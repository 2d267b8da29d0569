// NAND device facade: the component the memory controller talks to.
//
// Wraps the bit-true array with the command-level behaviours the
// paper's cross-layer knob needs:
//  * runtime-selectable program algorithm (Section 5) — the embedded
//    microcontroller executes whichever ISPP variant the code store
//    holds; switching is a register write, not a silicon change;
//  * the code-store model of Section 6.4 — algorithms live in an
//    on-die code ROM (or an SRAM written by the controller), and the
//    cost of selectability is a small capacity increase;
//  * per-operation timing from the NandTiming characterisation.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/nand/array.hpp"
#include "src/nand/data_plane.hpp"
#include "src/nand/oob.hpp"
#include "src/nand/timing.hpp"

namespace xlf::nand {

// Section 6.4: where the programming microcode lives.
enum class AlgorithmStore {
  kCodeRom,  // hardwired at fabrication, possibly multi-algorithm
  kSram,     // uploaded by the memory controller at runtime
};

struct DeviceConfig {
  ArrayConfig array;
  TimingConfig timing;
  AlgorithmStore store = AlgorithmStore::kCodeRom;
  // Algorithms resident in the code store.
  std::vector<ProgramAlgorithm> available_algorithms{
      ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv};
  // Microcode footprint model (Section 6.4).
  std::size_t base_microcode_bytes = 24 * 1024;
  std::size_t bytes_per_algorithm = 2 * 1024;
  // Default array programming fidelity.
  ProgramMode program_mode = ProgramMode::kStatistical;
  // Instantiate the bit-true cell array (true, the default) or run
  // metadata-only (false): no cells exist, programs and erases update
  // only the durable metadata plane and the device-level wear /
  // programmed-page trackers, and service times come from the same
  // NandTiming models the statistical mode uses. Metadata-only
  // devices make production block counts (64k+ blocks/die) cheap to
  // construct and simulate; reads then carry no payload, so drivers
  // must not verify data.
  bool data_plane = true;
};

struct ReadOutcome {
  BitVec data;
  Seconds busy_time{0.0};
};

struct ProgramOutcome {
  bool ok = true;
  Seconds busy_time{0.0};
  unsigned over_programmed_cells = 0;
};

struct EraseOutcome {
  Seconds busy_time{0.0};
};

class NandDevice {
 public:
  // `traces` shares a characterisation cache built for an equal
  // TimingConfig and array model (see IsppTraceCache); nullptr starts
  // a private one.
  explicit NandDevice(const DeviceConfig& config,
                      std::shared_ptr<IsppTraceCache> traces = nullptr);

  const DeviceConfig& config() const { return config_; }
  const Geometry& geometry() const { return config_.array.geometry; }
  // The cell array; only exists on data-plane devices.
  NandArray& array();
  const NandArray& array() const;
  const NandTiming& timing() const { return timing_; }

  // Defer cell-array mutations (programs, erases, wear jumps) into
  // `queue` instead of running them inline; nullptr detaches. While
  // attached, wear reads come from the device's synchronously
  // maintained shadow and reads drain the queue first, so results are
  // byte-identical to undeferred execution (see data_plane.hpp for
  // the ordering contract). Statistical-mode data-plane devices only:
  // ISPP-trace timing needs the cells at program time.
  void attach_data_plane(DataPlaneQueue* queue);

  // --- the cross-layer knob -----------------------------------------
  // Selects the ISPP variant for subsequent programs. Rejects
  // algorithms not resident in the code store.
  void select_program_algorithm(ProgramAlgorithm algo);
  ProgramAlgorithm program_algorithm() const { return active_algorithm_; }
  // SRAM store only: upload a new algorithm image at runtime.
  void upload_algorithm(ProgramAlgorithm algo);

  // --- command set ---------------------------------------------------
  ReadOutcome read_page(PageAddress addr) const;
  ProgramOutcome program_page(PageAddress addr, const BitVec& data,
                              LoadStrategy strategy = LoadStrategy::kFullSequence);
  EraseOutcome erase_block(std::uint32_t block);

  // --- durable metadata (spare area + system block) -------------------
  // Spare-area write of the page's OOB record; modelled as the tail
  // of the page's program operation (no extra time — the spare bytes
  // ride the same ISPP pass). The page must not already carry a
  // record and the block must not be retired.
  void write_oob(PageAddress addr, const OobRecord& record);
  // The page's surviving record; nullopt for erased pages and for
  // torn programs (data committed, crash before the OOB step).
  const std::optional<OobRecord>& oob(PageAddress addr) const;
  // Grown-bad bookkeeping: a block whose erase failed is retired into
  // the durable bad-block table and never touched again.
  void mark_bad(std::uint32_t block);
  bool is_bad(std::uint32_t block) const;
  // Durable per-block erase counter (survives remount, unlike the
  // FTL allocator's DRAM copy, which is rebuilt from this).
  std::uint32_t erase_count(std::uint32_t block) const;
  // Whether the page has been programmed since its block's last erase
  // (tracked at device level, so it answers in metadata-only and
  // deferred modes too — the FTL's rebuild frontier scan reads this).
  bool page_programmed(PageAddress addr) const;

  // --- wear / lifetime -------------------------------------------------
  // Device-level wear, kept in lockstep with the array's own counter
  // (and authoritative when the array is deferred or absent).
  double wear(std::uint32_t block) const;
  void set_wear(std::uint32_t block, double cycles);
  // Convenience: age every block (uniform wear-levelled device).
  void set_uniform_wear(double cycles);

  // --- Section 6.4 accounting -----------------------------------------
  std::size_t code_store_bytes() const;
  std::size_t algorithms_resident() const { return resident_.size(); }

 private:
  std::size_t page_index(PageAddress addr) const;

  DeviceConfig config_;
  // nullptr on metadata-only devices, which skip the array's
  // per-page threshold storage and cell sampling on program and read.
  std::unique_ptr<NandArray> array_;
  NandTiming timing_;
  std::vector<ProgramAlgorithm> resident_;
  ProgramAlgorithm active_algorithm_ = ProgramAlgorithm::kIsppSv;
  // Durable metadata plane: per-page spare records, per-block erase
  // counters and the grown-bad table.
  std::vector<std::optional<OobRecord>> oob_;
  std::vector<std::uint32_t> erase_counts_;
  std::vector<char> bad_;
  // Device-level mirrors of array state, valid in every mode: wear_
  // answers wear() while cell work is deferred (or absent), and
  // programmed_ answers page_programmed().
  std::vector<double> wear_;
  std::vector<char> programmed_;
  DataPlaneQueue* deferred_ = nullptr;
};

}  // namespace xlf::nand
