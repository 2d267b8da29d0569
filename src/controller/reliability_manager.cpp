#include "src/controller/reliability_manager.hpp"

#include <bit>

#include "src/policy/registry.hpp"
#include "src/util/expect.hpp"

namespace xlf::controller {

struct ReliabilityManager::Host final : policy::TuningHost {
  const ReliabilityManager* manager = nullptr;
  unsigned t_for_rber(double rber) const override {
    return manager->t_for_rber(rber);
  }
};

ReliabilityManager::ReliabilityManager(const ReliabilityConfig& config,
                                       const std::string& policy_name,
                                       const nand::AgingLaw& law)
    : config_(config), law_(law) {
  XLF_EXPECT(config_.uber_target > 0.0 && config_.uber_target < 1.0);
  XLF_EXPECT(config_.t_min >= 1 && config_.t_min <= config_.t_max);
  XLF_EXPECT(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0);
  XLF_EXPECT(config_.safety_factor >= 1.0);
  set_policy(policy_name);
}

void ReliabilityManager::set_policy(const std::string& policy_name) {
  policy_ =
      policy::PolicyRegistry<policy::TuningPolicy>::instance().make_shared(
          policy_name);
  policy_name_ = policy_name;
}

unsigned ReliabilityManager::t_for_rber(double rber) const {
  const std::optional<unsigned> t =
      t_memo_.get(std::bit_cast<std::uint64_t>(rber), [&] {
        return bch::min_t_for_uber(rber, config_.uber_target, config_.k,
                                   config_.m, config_.t_min, config_.t_max);
      });
  saturated_ = !t.has_value();
  return t.value_or(config_.t_max);
}

unsigned ReliabilityManager::select_t(nand::ProgramAlgorithm algo,
                                      double pe_cycles) const {
  return t_for_rber(law_.rber(algo, pe_cycles));
}

double ReliabilityManager::predicted_uber(nand::ProgramAlgorithm algo,
                                          double pe_cycles) const {
  const double rber = law_.rber(algo, pe_cycles);
  const unsigned t = t_for_rber(rber);
  const bch::CodeParams params{config_.m, config_.k, t};
  return bch::uber(rber, params.n(), t);
}

void ReliabilityManager::observe_decode(unsigned corrected_bits,
                                        std::uint32_t codeword_bits) {
  XLF_EXPECT(codeword_bits > 0);
  const double sample =
      static_cast<double>(corrected_bits) / codeword_bits;
  if (pages_seen_ == 0) {
    rber_estimate_ = sample;
  } else {
    rber_estimate_ = (1.0 - config_.ewma_alpha) * rber_estimate_ +
                     config_.ewma_alpha * sample;
  }
  ++pages_seen_;
}

double ReliabilityManager::estimated_rber() const { return rber_estimate_; }

unsigned ReliabilityManager::recommended_t(nand::ProgramAlgorithm algo,
                                           double pe_cycles,
                                           unsigned fallback_t) const {
  Host host;
  host.manager = this;

  policy::TuningContext ctx;
  ctx.algo = algo;
  ctx.pe_cycles = pe_cycles;
  ctx.fallback_t = fallback_t;
  ctx.estimated_rber = rber_estimate_;
  ctx.estimate_ready = estimate_ready();
  ctx.safety_factor = config_.safety_factor;
  ctx.budget = {config_.uber_target, config_.m, config_.k, config_.t_min,
                config_.t_max};
  ctx.law = &law_;
  ctx.host = &host;
  return policy_->recommend(ctx);
}

}  // namespace xlf::controller
