#include "src/nand/array.hpp"

#include <algorithm>
#include <array>

#include "src/util/expect.hpp"

namespace xlf::nand {
namespace {

// Word-at-a-time Gray coding: a 64-bit page word holds 32 cells, bit
// 2i the MSB and bit 2i+1 the LSB of cell i. A level's 2-bit code
// (c1 c0) satisfies c0 = MSB ^ LSB and c1 = !LSB (L0=11, L1=01,
// L2=00, L3=10), so a whole word converts with a few masks.
constexpr std::size_t kCellsPerWord = 32;
constexpr std::uint64_t kEvenBits = 0x5555555555555555ull;

std::uint64_t bits_to_codes(std::uint64_t word) {
  const std::uint64_t msb = word & kEvenBits;
  const std::uint64_t lsb = (word >> 1) & kEvenBits;
  return (msb ^ lsb) | ((~lsb & kEvenBits) << 1);
}

std::uint64_t codes_to_bits(std::uint64_t codes) {
  const std::uint64_t c0 = codes & kEvenBits;
  const std::uint64_t c1 = (codes >> 1) & kEvenBits;
  return (~(c0 ^ c1) & kEvenBits) | ((~c1 & kEvenBits) << 1);
}

// Purposes of the per-page keyed substreams.
constexpr std::uint64_t kErasedStream = 1;
constexpr std::uint64_t kPlacementStream = 2;
constexpr std::uint64_t kCellParamsStream = 3;

}  // namespace

NandArray::NandArray(const ArrayConfig& config)
    : config_(config),
      variability_(config.variability, config.aging),
      ispp_(config.ispp, config.plan),
      interference_(config.interference),
      rber_(config.plan, config.aging, config.ispp, config.variability,
            config.interference),
      disturb_(config.disturb),
      rng_(config.seed),
      blocks_(config.geometry.blocks),
      pages_(config.geometry.pages()) {
  XLF_EXPECT(config.geometry.blocks >= 1);
  XLF_EXPECT(config.geometry.pages_per_block >= 1);
}

void NandArray::check_addr(PageAddress addr) const {
  XLF_EXPECT(addr.block < config_.geometry.blocks);
  XLF_EXPECT(addr.page < config_.geometry.pages_per_block);
}

NandArray::PageState& NandArray::page(PageAddress addr) {
  check_addr(addr);
  return pages_[addr.block * config_.geometry.pages_per_block + addr.page];
}

const NandArray::PageState& NandArray::page(PageAddress addr) const {
  check_addr(addr);
  return pages_[addr.block * config_.geometry.pages_per_block + addr.page];
}

Rng NandArray::page_stream(PageAddress addr, std::uint64_t tag) const {
  return Rng::keyed(config_.seed, addr.block, addr.page,
                    blocks_[addr.block].generation, tag);
}

std::vector<Volts> NandArray::erased_thresholds(PageAddress addr) const {
  Rng rng = page_stream(addr, kErasedStream);
  std::vector<Volts> vth(config_.geometry.cells_per_page());
  for (Volts& v : vth) {
    v = variability_.sample_erased(rng, config_.plan.erased_mean,
                                   config_.plan.erased_sigma);
  }
  return vth;
}

std::span<const Volts> NandArray::sense(PageAddress addr,
                                        std::vector<Volts>& scratch) const {
  const PageState& state = page(addr);
  if (!state.vth.empty()) return state.vth;
  scratch = erased_thresholds(addr);
  return scratch;
}

std::vector<Volts>& NandArray::materialize(PageAddress addr) {
  PageState& state = page(addr);
  if (state.vth.empty()) state.vth = erased_thresholds(addr);
  return state.vth;
}

void NandArray::erase_block(std::uint32_t block) {
  XLF_EXPECT(block < config_.geometry.blocks);
  BlockState& state = blocks_[block];
  state.wear += 1.0;
  state.wear_at_erase = state.wear;
  ++state.generation;
  for (std::uint32_t p = 0; p < config_.geometry.pages_per_block; ++p) {
    PageState& page_state =
        pages_[block * config_.geometry.pages_per_block + p];
    page_state.programmed = false;
    page_state.vth = std::vector<Volts>();  // release the memory
  }
}

double NandArray::wear(std::uint32_t block) const {
  XLF_EXPECT(block < config_.geometry.blocks);
  return blocks_[block].wear;
}

void NandArray::set_wear(std::uint32_t block, double pe_cycles) {
  XLF_EXPECT(block < config_.geometry.blocks);
  XLF_EXPECT(pe_cycles >= 0.0);
  blocks_[block].wear = pe_cycles;
}

bool NandArray::is_erased(PageAddress addr) const {
  return !page(addr).programmed;
}

std::vector<Level> NandArray::bits_to_levels(const BitVec& bits) {
  XLF_EXPECT(bits.size() % 2 == 0);
  std::vector<Level> levels(bits.size() / 2);
  for (std::size_t w = 0; w < bits.words().size(); ++w) {
    const std::uint64_t codes = bits_to_codes(bits.word(w));
    const std::size_t first = w * kCellsPerWord;
    const std::size_t end = std::min(levels.size(), first + kCellsPerWord);
    for (std::size_t i = first; i < end; ++i) {
      levels[i] = static_cast<Level>((codes >> (2 * (i - first))) & 3u);
    }
  }
  return levels;
}

BitVec NandArray::levels_to_bits(const std::vector<Level>& levels) {
  BitVec bits(levels.size() * 2);
  for (std::size_t w = 0; w < bits.words().size(); ++w) {
    const std::size_t first = w * kCellsPerWord;
    const std::size_t end = std::min(levels.size(), first + kCellsPerWord);
    std::uint64_t codes = 0;
    for (std::size_t i = first; i < end; ++i) {
      codes |= static_cast<std::uint64_t>(levels[i]) << (2 * (i - first));
    }
    bits.set_word(w, codes_to_bits(codes));
  }
  return bits;
}

ProgramResult NandArray::program_page(PageAddress addr, const BitVec& bits,
                                      ProgramAlgorithm algo,
                                      ProgramMode mode) {
  XLF_EXPECT(!page(addr).programmed);  // NAND constraint: program-after-erase
  XLF_EXPECT(bits.size() == config_.geometry.bits_per_page());
  const auto targets = bits_to_levels(bits);
  const BlockState& block = blocks_[addr.block];
  const double pe = block.wear;
  std::vector<Volts>& vth = materialize(addr);

  ProgramResult result;
  if (mode == ProgramMode::kIsppSimulation) {
    // The pulse engine needs full cells: the page's thresholds plus
    // per-cell parameters drawn at the wear of the last erase.
    Rng params_rng = page_stream(addr, kCellParamsStream);
    // Page-sized on the first ISPP program, recycled afterwards.
    ispp_cells_.resize(vth.size());  // xlf-lint: allow(hot-alloc)
    const std::span<FloatingGateCell> cells(ispp_cells_);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cells[i] = FloatingGateCell(
          vth[i], variability_.sample(params_rng, block.wear_at_erase));
    }
    result.trace = ispp_.program(cells, targets, algo, rng_,
                                 config_.aging.dv_zone_multiplier(pe));
    result.ok = result.trace->converged;

    // Wear-induced spread on top of the verify-clamped placement: the
    // aggregate of trap-assisted shifts, early retention and disturb
    // that the RBER calibration attributes to read time.
    const double wear_spread = rber_.wear_sigma(algo, pe).value();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (targets[i] != Level::kL0) {
        cells[i].shift(Volts{rng_.gaussian(0.0, wear_spread)});
      }
    }

    // Within-page parasitic coupling from the programming displacement.
    std::vector<Volts> deltas(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      deltas[i] = cells[i].vth() - vth[i];
    }
    interference_.apply_within_page(cells, deltas);
    for (std::size_t i = 0; i < cells.size(); ++i) vth[i] = cells[i].vth();
  } else {
    // Statistical placement: sample the calibrated read-time
    // distribution directly, from the page's own keyed substream.
    std::array<LevelDistribution, 4> dists;
    for (Level level : kAllLevels) {
      dists[static_cast<std::size_t>(level)] =
          rber_.distribution(level, algo, pe);
    }
    Rng rng = page_stream(addr, kPlacementStream);
    for (std::size_t i = 0; i < vth.size(); ++i) {
      if (targets[i] == Level::kL0) continue;  // erased cells stay put
      const LevelDistribution& dist =
          dists[static_cast<std::size_t>(targets[i])];
      vth[i] = Volts{rng.gaussian(dist.mean.value(), dist.sigma.value())};
    }
  }

  for (const Volts v : vth) {
    if (config_.plan.is_over_programmed(v)) ++result.over_programmed_cells;
  }
  page(addr).programmed = true;
  return result;
}

BitVec NandArray::read_page(PageAddress addr) const {
  std::vector<Volts> scratch;
  const std::span<const Volts> vth = sense(addr, scratch);
  BitVec bits(config_.geometry.bits_per_page());
  for (std::size_t w = 0; w < bits.words().size(); ++w) {
    const std::size_t first = w * kCellsPerWord;
    const std::size_t end = std::min(vth.size(), first + kCellsPerWord);
    std::uint64_t codes = 0;
    for (std::size_t i = first; i < end; ++i) {
      const Level level = config_.plan.read_level(vth[i]);
      codes |= static_cast<std::uint64_t>(level) << (2 * (i - first));
    }
    bits.set_word(w, codes_to_bits(codes));
  }
  return bits;
}

std::vector<Level> NandArray::read_levels(PageAddress addr) const {
  std::vector<Volts> scratch;
  const std::span<const Volts> vth = sense(addr, scratch);
  std::vector<Level> levels(vth.size());
  for (std::size_t i = 0; i < vth.size(); ++i) {
    levels[i] = config_.plan.read_level(vth[i]);
  }
  return levels;
}

std::vector<Volts> NandArray::thresholds(PageAddress addr) const {
  const PageState& state = page(addr);
  return state.vth.empty() ? erased_thresholds(addr) : state.vth;
}

void NandArray::apply_retention(PageAddress addr, double hours) {
  PageState& state = page(addr);
  XLF_EXPECT(state.programmed && "retention stress targets written data");
  const double pe = blocks_[addr.block].wear;
  const double mean = disturb_.retention_mean(hours, pe).value();
  const double sigma = disturb_.retention_sigma(hours, pe).value();
  for (Volts& v : state.vth) {
    // Only cells holding charge detrap; the erased level is its own
    // equilibrium.
    if (v < config_.plan.read[0]) continue;
    const double loss = std::max(0.0, rng_.gaussian(mean, sigma));
    v = v - Volts{loss};
  }
}

void NandArray::apply_read_disturb(PageAddress addr,
                                   unsigned long long reads) {
  const double mean = disturb_.read_disturb_shift(reads).value();
  for (Volts& v : materialize(addr)) {
    // Weak gate stress mostly moves the erased population upward.
    if (v >= config_.plan.read[0]) continue;
    const double shift = std::max(0.0, rng_.gaussian(mean, 0.3 * mean));
    v = v + Volts{shift};
  }
}

double monte_carlo_rber(const ArrayConfig& base_config, ProgramAlgorithm algo,
                        double pe_cycles, unsigned pages, ProgramMode mode,
                        std::uint64_t seed) {
  XLF_EXPECT(pages >= 1);
  ArrayConfig config = base_config;
  config.geometry.blocks = 1;
  config.geometry.pages_per_block = 1;
  config.seed = seed;

  NandArray array(config);
  Rng data_rng(seed ^ 0xD1CEBA5Eull);
  std::uint64_t errors = 0;
  std::uint64_t bits_total = 0;
  const PageAddress addr{0, 0};
  for (unsigned p = 0; p < pages; ++p) {
    // Set the wear before erasing so the ISPP cell parameters are
    // drawn at the aged state.
    array.set_wear(0, pe_cycles);
    array.erase_block(0);
    array.set_wear(0, pe_cycles);
    BitVec data(config.geometry.bits_per_page());
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.set(i, data_rng.chance(0.5));
    }
    array.program_page(addr, data, algo, mode);
    errors += array.read_page(addr).hamming_distance(data);
    bits_total += data.size();
  }
  return static_cast<double>(errors) / static_cast<double>(bits_total);
}

}  // namespace xlf::nand
