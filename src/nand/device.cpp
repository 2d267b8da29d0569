#include "src/nand/device.hpp"

#include <algorithm>
#include <utility>

#include "src/util/expect.hpp"

namespace xlf::nand {

NandDevice::NandDevice(const DeviceConfig& config,
                       std::shared_ptr<IsppTraceCache> traces)
    : config_(config),
      array_(config.data_plane ? std::make_unique<NandArray>(config.array)
                               : nullptr),
      timing_(config.timing, config.array.ispp, config.array.plan,
              config.array.variability, config.array.aging,
              std::move(traces)),
      resident_(config.available_algorithms) {
  XLF_EXPECT(!resident_.empty());
  active_algorithm_ = resident_.front();
  const Geometry& g = geometry();
  XLF_EXPECT(g.blocks >= 1 && g.pages_per_block >= 1);
  oob_.assign(static_cast<std::size_t>(g.blocks) * g.pages_per_block,
              std::nullopt);
  erase_counts_.assign(g.blocks, 0);
  bad_.assign(g.blocks, 0);
  wear_.assign(g.blocks, 0.0);  // factory-fresh, like the array's ctor
  programmed_.assign(oob_.size(), 0);
}

NandArray& NandDevice::array() {
  XLF_EXPECT(array_ != nullptr && "metadata-only device has no cell array");
  return *array_;
}

const NandArray& NandDevice::array() const {
  XLF_EXPECT(array_ != nullptr && "metadata-only device has no cell array");
  return *array_;
}

void NandDevice::attach_data_plane(DataPlaneQueue* queue) {
  if (queue != nullptr) {
    XLF_EXPECT(config_.data_plane &&
               "metadata-only devices have no cell work to defer");
    XLF_EXPECT(config_.program_mode == ProgramMode::kStatistical &&
               "ISPP-trace timing needs the cells at program time");
    // Catch a mid-stream re-attach that would drop another queue's
    // pending jobs.
    XLF_EXPECT(deferred_ == nullptr || !deferred_->pending());
  } else if (deferred_ != nullptr) {
    deferred_->drain();  // detaching must leave the array current
  }
  deferred_ = queue;
}

std::size_t NandDevice::page_index(PageAddress addr) const {
  XLF_EXPECT(addr.block < geometry().blocks &&
             addr.page < geometry().pages_per_block);
  return static_cast<std::size_t>(addr.block) * geometry().pages_per_block +
         addr.page;
}

void NandDevice::select_program_algorithm(ProgramAlgorithm algo) {
  const bool available =
      std::find(resident_.begin(), resident_.end(), algo) != resident_.end();
  XLF_EXPECT(available && "algorithm not resident in the code store");
  active_algorithm_ = algo;
}

void NandDevice::upload_algorithm(ProgramAlgorithm algo) {
  XLF_EXPECT(config_.store == AlgorithmStore::kSram &&
             "code-ROM devices cannot accept microcode uploads");
  if (std::find(resident_.begin(), resident_.end(), algo) == resident_.end()) {
    resident_.push_back(algo);
  }
}

ReadOutcome NandDevice::read_page(PageAddress addr) const {
  XLF_EXPECT(array_ != nullptr && "metadata-only devices service reads from "
                                  "the controller's timing models");
  // A read senses the cells as they stand, so any deferred program /
  // erase work for this die must land first (in push order, so every
  // page sees the same erase generation and wear as inline execution).
  if (deferred_ != nullptr) deferred_->drain();
  ReadOutcome outcome;
  outcome.data = array_->read_page(addr);
  outcome.busy_time = timing_.read_time();
  return outcome;
}

ProgramOutcome NandDevice::program_page(PageAddress addr, const BitVec& data,
                                        LoadStrategy strategy) {
  const std::size_t index = page_index(addr);
  XLF_EXPECT(!programmed_[index] &&
             "NAND constraint: program-after-erase only");
  programmed_[index] = 1;
  const double wear_now = wear_[addr.block];
  if (array_ == nullptr) {
    // Metadata-only: the statistical mode's deterministic service
    // time, no cells to place.
    return ProgramOutcome{
        true,
        timing_.page_write_time(active_algorithm_, wear_now,
                                geometry().bits_per_page() / 8, strategy),
        0};
  }
  if (deferred_ != nullptr) {
    // Statistical mode (enforced at attach): timing and success are
    // already determined by (algorithm, wear, size), so the cell
    // placement can run later on the die's own queue. The sampled
    // over-programmed count is not recoverable here; deferred runs
    // report 0.
    deferred_->push(
        [this, addr, bits = data, algo = active_algorithm_] {
          array_->program_page(addr, bits, algo, config_.program_mode);
        });
    return ProgramOutcome{
        true,
        timing_.page_write_time(active_algorithm_, wear_now, data.size() / 8,
                                strategy),
        0};
  }
  const ProgramResult result =
      array_->program_page(addr, data, active_algorithm_, config_.program_mode);
  ProgramOutcome outcome;
  outcome.ok = result.ok;
  outcome.over_programmed_cells = result.over_programmed_cells;
  if (result.trace.has_value()) {
    // Bit-true mode: the actual trace of this very page.
    outcome.busy_time = result.trace->duration() +
                        timing_.io_transfer_time(data.size() / 8) -
                        (strategy == LoadStrategy::kTwoRound
                             ? timing_.io_transfer_time(data.size() / 16)
                             : Seconds{0.0});
  } else {
    outcome.busy_time = timing_.page_write_time(
        active_algorithm_, wear_now, data.size() / 8, strategy);
  }
  return outcome;
}

EraseOutcome NandDevice::erase_block(std::uint32_t block) {
  XLF_EXPECT(block < geometry().blocks);
  XLF_EXPECT(!bad_[block] && "erasing a retired (grown-bad) block");
  if (deferred_ != nullptr) {
    deferred_->push([this, block] { array_->erase_block(block); });
  } else if (array_ != nullptr) {
    array_->erase_block(block);
  }
  // Mirror the array's own P/E accounting (erase_block adds one
  // cycle) so wear reads stay exact while the cell work is deferred
  // or absent.
  wear_[block] += 1.0;
  // The spare area is erased with the data, and the durable erase
  // counter advances — this pair is what rebuild reads at mount.
  const std::size_t base =
      static_cast<std::size_t>(block) * geometry().pages_per_block;
  for (std::uint32_t p = 0; p < geometry().pages_per_block; ++p) {
    oob_[base + p].reset();
    programmed_[base + p] = 0;
  }
  ++erase_counts_[block];
  return EraseOutcome{timing_.erase_time()};
}

void NandDevice::write_oob(PageAddress addr, const OobRecord& record) {
  const std::size_t index = page_index(addr);
  XLF_EXPECT(!bad_[addr.block] && "programming a retired block's spare area");
  XLF_EXPECT(!oob_[index].has_value() &&
             "spare area already programmed (program without erase)");
  oob_[index] = record;
}

const std::optional<OobRecord>& NandDevice::oob(PageAddress addr) const {
  return oob_[page_index(addr)];
}

void NandDevice::mark_bad(std::uint32_t block) {
  XLF_EXPECT(block < geometry().blocks);
  bad_[block] = 1;
}

bool NandDevice::is_bad(std::uint32_t block) const {
  XLF_EXPECT(block < geometry().blocks);
  return bad_[block] != 0;
}

std::uint32_t NandDevice::erase_count(std::uint32_t block) const {
  XLF_EXPECT(block < geometry().blocks);
  return erase_counts_[block];
}

bool NandDevice::page_programmed(PageAddress addr) const {
  return programmed_[page_index(addr)] != 0;
}

double NandDevice::wear(std::uint32_t block) const {
  XLF_EXPECT(block < geometry().blocks);
  return wear_[block];
}

void NandDevice::set_wear(std::uint32_t block, double cycles) {
  XLF_EXPECT(block < geometry().blocks);
  wear_[block] = cycles;
  if (deferred_ != nullptr) {
    deferred_->push([this, block, cycles] { array_->set_wear(block, cycles); });
  } else if (array_ != nullptr) {
    array_->set_wear(block, cycles);
  }
}

void NandDevice::set_uniform_wear(double cycles) {
  for (std::uint32_t b = 0; b < geometry().blocks; ++b) {
    set_wear(b, cycles);
  }
}

std::size_t NandDevice::code_store_bytes() const {
  return config_.base_microcode_bytes +
         resident_.size() * config_.bytes_per_algorithm;
}

}  // namespace xlf::nand
