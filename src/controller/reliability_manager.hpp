// The integrated reliability manager (paper Section 3): selects the
// minimal BCH correction capability meeting the UBER target through a
// pluggable policy::TuningPolicy — the built-ins are `static` (hold
// the configured t), `model_based` (t from the device's known wear
// state and RBER law) and `feedback` (t from live corrected-bit
// feedback out of the ECC unit, the self-adaptive path). Eq. (1)
// closes the loop in the model-based and feedback cases.
//
// The manager owns all mutable state (the EWMA estimator, the
// saturation flag, the memo of recent UBER solves); the policy object
// is immutable and consulted per decision with a TuningContext
// snapshot, so one policy instance is safely shared across dies and
// threads.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/bch/code_params.hpp"
#include "src/nand/aging.hpp"
#include "src/policy/policy.hpp"
#include "src/util/recent_memo.hpp"

namespace xlf::controller {

struct ReliabilityConfig {
  double uber_target = 1e-11;  // Section 6.2
  unsigned m = 16;
  std::uint32_t k = 32768;
  unsigned t_min = 3;
  unsigned t_max = 65;
  // Feedback estimator: EWMA smoothing and a multiplicative safety
  // margin on the estimated RBER (estimates from sparse error counts
  // are noisy; undershooting t is the expensive direction).
  double ewma_alpha = 0.05;
  double safety_factor = 1.25;
  // Pages to observe before trusting the feedback estimate.
  unsigned warmup_pages = 32;
};

class ReliabilityManager {
 public:
  // `policy_name` is looked up in PolicyRegistry<TuningPolicy>;
  // unknown names throw listing the registered policies.
  ReliabilityManager(const ReliabilityConfig& config,
                     const std::string& policy_name,
                     const nand::AgingLaw& law);

  const std::string& policy_name() const { return policy_name_; }
  const policy::TuningPolicy& tuning_policy() const { return *policy_; }
  // Swap the tuning strategy at runtime (estimator state is kept).
  void set_policy(const std::string& policy_name);
  const ReliabilityConfig& config() const { return config_; }

  // --- model-based path ------------------------------------------------
  // Minimal t meeting the UBER target for the given algorithm/wear.
  // Saturates at t_max (and reports so via `saturated()`).
  unsigned select_t(nand::ProgramAlgorithm algo, double pe_cycles) const;
  // Eq. (1) evaluated at the configuration the manager would pick.
  double predicted_uber(nand::ProgramAlgorithm algo, double pe_cycles) const;

  // --- feedback path -----------------------------------------------------
  // Feed one decode result: corrected bits over a codeword of n bits.
  void observe_decode(unsigned corrected_bits, std::uint32_t codeword_bits);
  double estimated_rber() const;
  bool estimate_ready() const { return pages_seen_ >= config_.warmup_pages; }
  // Recommended t per the active policy and current state;
  // `fallback_t` is returned by policies that decline to retune (the
  // static policy, feedback before warm-up).
  unsigned recommended_t(nand::ProgramAlgorithm algo, double pe_cycles,
                         unsigned fallback_t) const;

  // True when the last selection could not meet the target within t_max.
  bool saturated() const { return saturated_; }

 private:
  // Bridges a TuningPolicy's t_for_rber calls back to the manager so
  // the saturation flag tracks exactly the selections that consulted
  // the UBER equation. Nested for private access; defined in the cpp.
  struct Host;

  // The UBER solve, memoised: its answer is a pure function of rber
  // and the fixed config, and a block's rber repeats on every write
  // between two of its erases.
  unsigned t_for_rber(double rber) const;

  ReliabilityConfig config_;
  std::string policy_name_;
  std::shared_ptr<const policy::TuningPolicy> policy_;
  nand::AgingLaw law_;
  double rber_estimate_ = 0.0;
  unsigned pages_seen_ = 0;
  mutable bool saturated_ = false;
  // Recent solves keyed by the rber's bit pattern; nullopt = the
  // target is out of reach within t_max. A few entries cover the
  // open blocks a die writes in turn (host hot/cold and GC frontiers).
  mutable RecentMemo<std::uint64_t, std::optional<unsigned>, 8> t_memo_;
};

}  // namespace xlf::controller
