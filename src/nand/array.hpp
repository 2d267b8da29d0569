// Bit-true NAND array: every cell carries an analog threshold
// voltage; pages are programmed through the ISPP engine (or a
// statistically equivalent placement), aged per block, disturbed by
// neighbours, and read back against R1..R3.
//
// Erased state is lazy and keyed. A block keeps only its wear, its
// erase generation and its wear at the last erase; a page stores its
// thresholds (8 B per cell) once it is programmed or disturbed, and
// nothing while it holds its pristine erased population. That
// population is a pure function of the page key (array seed, block,
// page, generation): cell i's erased threshold is the i-th Gaussian of
// the key's erased substream, so an erased read, a read disturb and a
// later program all see the same cells, whenever they happen.
// Statistical-mode placement draws from its own keyed substream too,
// so programmed thresholds do not depend on the order pages are
// written in. Only ISPP-mode programming (pulse noise, wear spread) and
// the retention and disturb stresses draw from the array's ordered
// noise stream.
//
// Bit-to-cell mapping: page bit 2i is the MSB (upper page) and bit
// 2i+1 the LSB (lower page) of cell i, Gray-coded onto L0..L3.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/nand/aging.hpp"
#include "src/nand/disturb.hpp"
#include "src/nand/geometry.hpp"
#include "src/nand/interference.hpp"
#include "src/nand/ispp.hpp"
#include "src/nand/rber_model.hpp"
#include "src/nand/threshold.hpp"
#include "src/nand/variability.hpp"
#include "src/util/bitvec.hpp"
#include "src/util/rng.hpp"

namespace xlf::nand {

struct ArrayConfig {
  Geometry geometry;
  VoltagePlan plan;
  IsppConfig ispp;
  VariabilityConfig variability;
  InterferenceConfig interference;
  AgingLaw aging;
  DisturbConfig disturb;
  std::uint64_t seed = 1;
};

// How a page program places thresholds.
enum class ProgramMode {
  // Full ISPP pulse-by-pulse simulation plus wear spread: slow,
  // bit-true, produces a real IsppTrace.
  kIsppSimulation,
  // Direct sampling from the calibrated read-time distributions:
  // fast, statistically identical for RBER purposes.
  kStatistical,
};

struct ProgramResult {
  bool ok = true;
  // Populated in kIsppSimulation mode.
  std::optional<IsppTrace> trace;
  unsigned over_programmed_cells = 0;
};

class NandArray {
 public:
  explicit NandArray(const ArrayConfig& config);

  const ArrayConfig& config() const { return config_; }
  const RberModel& rber_model() const { return rber_; }

  // --- block operations ---------------------------------------------
  // Erase counts one P/E cycle, advances the block's generation (its
  // pages get a fresh erased population) and frees their thresholds.
  void erase_block(std::uint32_t block);
  double wear(std::uint32_t block) const;
  // Jump a block ahead in its lifetime (lifetime experiments).
  void set_wear(std::uint32_t block, double pe_cycles);

  // --- page operations ------------------------------------------------
  bool is_erased(PageAddress addr) const;
  ProgramResult program_page(PageAddress addr, const BitVec& bits,
                             ProgramAlgorithm algo,
                             ProgramMode mode = ProgramMode::kStatistical);
  // Reads of an erased page sense its keyed erased population,
  // computed on the fly.
  BitVec read_page(PageAddress addr) const;
  // Raw level view for distribution diagnostics.
  std::vector<Level> read_levels(PageAddress addr) const;
  std::vector<Volts> thresholds(PageAddress addr) const;

  static std::vector<Level> bits_to_levels(const BitVec& bits);
  static BitVec levels_to_bits(const std::vector<Level>& levels);

  // --- stress injection (beyond the average-case RBER law) -----------
  // Retention bake: programmed cells of the page lose charge for
  // `hours` at the block's wear state (erased cells are unaffected).
  void apply_retention(PageAddress addr, double hours);
  // Read disturb: `reads` block reads creep the page's erased cells
  // upward toward R1.
  void apply_read_disturb(PageAddress addr, unsigned long long reads);

 private:
  struct BlockState {
    double wear = 0.0;
    // Erases since construction; part of every page key, so a
    // re-erased page draws fresh noise.
    std::uint64_t generation = 0;
    // Wear right after the last erase, at which ISPP mode draws the
    // cell parameters (the factory erase counts as one cycle).
    double wear_at_erase = 1.0;
  };
  struct PageState {
    // Empty while the page holds its pristine erased population.
    std::vector<Volts> vth;
    bool programmed = false;
  };
  PageState& page(PageAddress addr);
  const PageState& page(PageAddress addr) const;
  void check_addr(PageAddress addr) const;
  Rng page_stream(PageAddress addr, std::uint64_t tag) const;
  // The page's keyed erased population.
  std::vector<Volts> erased_thresholds(PageAddress addr) const;
  // The page's thresholds: stored ones, or else the erased population
  // written into `scratch`.
  std::span<const Volts> sense(PageAddress addr,
                               std::vector<Volts>& scratch) const;
  // Store the erased population in a pristine page; returns the
  // stored thresholds.
  std::vector<Volts>& materialize(PageAddress addr);

  ArrayConfig config_;
  VariabilitySampler variability_;
  IsppEngine ispp_;
  InterferenceModel interference_;
  RberModel rber_;
  DisturbModel disturb_;
  Rng rng_;
  std::vector<BlockState> blocks_;
  std::vector<PageState> pages_;
  // ISPP-mode scratch: the page's cells with their drawn parameters.
  std::vector<FloatingGateCell> ispp_cells_;
};

// Monte-Carlo RBER measurement: program `pages` pages of random data
// at the given age and count raw read errors. Cross-validates the
// closed-form law (Fig. 5 companion experiment).
double monte_carlo_rber(const ArrayConfig& base_config, ProgramAlgorithm algo,
                        double pe_cycles, unsigned pages, ProgramMode mode,
                        std::uint64_t seed);

}  // namespace xlf::nand
