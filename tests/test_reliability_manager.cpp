#include "src/controller/reliability_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.hpp"

namespace xlf::controller {
namespace {

ReliabilityManager make_manager(const std::string& policy) {
  return ReliabilityManager(ReliabilityConfig{}, policy, nand::AgingLaw{});
}

TEST(ReliabilityManager, ModelBasedSchedulesMatchPaper) {
  // Section 6.2: SV needs tMIN ~3-4 at BOL and tMAX = 65 at EOL; the
  // DV schedule stays far lower.
  const ReliabilityManager manager =
      make_manager("model_based");
  EXPECT_LE(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1.0), 4u);
  EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1e6), 65u);
  EXPECT_FALSE(manager.saturated());
  EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppDv, 1.0), 3u);
  const unsigned dv_eol =
      manager.select_t(nand::ProgramAlgorithm::kIsppDv, 1e6);
  EXPECT_GE(dv_eol, 14u);  // paper quotes 14; exact Eq.-(1) gives 16
  EXPECT_LE(dv_eol, 17u);
}

TEST(ReliabilityManager, ScheduleMonotoneOverLife) {
  const ReliabilityManager manager =
      make_manager("model_based");
  for (auto algo :
       {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
    unsigned prev = 0;
    for (double c = 1.0; c <= 1e6; c *= 2.0) {
      const unsigned t = manager.select_t(algo, c);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
}

TEST(ReliabilityManager, PredictedUberMeetsTarget) {
  const ReliabilityManager manager =
      make_manager("model_based");
  for (auto algo :
       {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
    for (double c : {1.0, 1e3, 1e5, 1e6}) {
      EXPECT_LE(manager.predicted_uber(algo, c), 1e-11 * 1.0001)
          << to_string(algo) << " " << c;
    }
  }
}

TEST(ReliabilityManager, SaturationReported) {
  ReliabilityConfig tight;
  tight.t_max = 10;  // too weak for EOL ISPP-SV
  const ReliabilityManager manager(tight, "model_based",
                                   nand::AgingLaw{});
  EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1e6), 10u);
  EXPECT_TRUE(manager.saturated());
}

TEST(ReliabilityManager, StaticPolicyKeepsFallback) {
  const ReliabilityManager manager = make_manager("static");
  EXPECT_EQ(
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 1e6, 12u), 12u);
}

TEST(ReliabilityManager, FeedbackWaitsForWarmup) {
  ReliabilityManager manager = make_manager("feedback");
  EXPECT_FALSE(manager.estimate_ready());
  EXPECT_EQ(
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 1e5, 7u), 7u);
}

TEST(ReliabilityManager, FeedbackConvergesToObservedRate) {
  ReliabilityManager manager = make_manager("feedback");
  // Feed decodes at a known error density: 33 corrected bits per
  // 33808-bit codeword = RBER ~9.76e-4 (the EOL SV point).
  for (int i = 0; i < 400; ++i) manager.observe_decode(33, 33808);
  EXPECT_TRUE(manager.estimate_ready());
  EXPECT_NEAR(manager.estimated_rber(), 33.0 / 33808.0, 2e-5);
  const unsigned t =
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 0.0, 3u);
  // With the 1.25x safety margin this must land at/near the EOL t.
  EXPECT_GE(t, 60u);
  EXPECT_LE(t, 65u);
}

TEST(ReliabilityManager, FeedbackWithNoErrorsFallsToFloor) {
  ReliabilityManager manager = make_manager("feedback");
  for (int i = 0; i < 100; ++i) manager.observe_decode(0, 33808);
  EXPECT_EQ(
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 1e6, 40u), 3u);
}

TEST(ReliabilityManager, FeedbackTracksModelAcrossLife) {
  // Feeding synthetic observations drawn from the aging law must make
  // the feedback schedule track the model-based one within a step or
  // two (the safety factor biases it upward).
  const nand::AgingLaw law;
  const ReliabilityManager model = make_manager("model_based");
  for (double c : {1e3, 1e5, 1e6}) {
    ReliabilityManager feedback = make_manager("feedback");
    const double rber = law.rber(nand::ProgramAlgorithm::kIsppSv, c);
    const auto corrected = static_cast<unsigned>(rber * 33808.0 + 0.5);
    for (int i = 0; i < 200; ++i) feedback.observe_decode(corrected, 33808);
    const unsigned t_feedback =
        feedback.recommended_t(nand::ProgramAlgorithm::kIsppSv, c, 3u);
    const unsigned t_model = model.select_t(nand::ProgramAlgorithm::kIsppSv, c);
    EXPECT_GE(t_feedback + 1, t_model) << c;   // never dangerously below
    EXPECT_LE(t_feedback, t_model + 8) << c;   // nor wastefully above
  }
}

// The UBER solve the manager memoises, computed fresh.
std::optional<unsigned> fresh_solve(const ReliabilityConfig& config,
                                    double rber) {
  return bch::min_t_for_uber(rber, config.uber_target, config.k, config.m,
                             config.t_min, config.t_max);
}

TEST(ReliabilityManager, MemoisedSolveMatchesAFreshOne) {
  // A seeded walk over more distinct rbers than the memo holds, with
  // repeats, and a t_max low enough that end-of-life rbers saturate:
  // every step's t and saturated() must equal a fresh solve.
  ReliabilityConfig config;
  config.t_max = 20;
  config.ewma_alpha = 1.0;  // the estimate is exactly the last sample
  config.warmup_pages = 1;
  const nand::AgingLaw law;
  const std::vector<double> ages{1.0,  30.0, 1e2, 5e2, 1e3, 3e3,
                                 1e4,  3e4,  1e5, 2e5, 5e5, 1e6};
  const std::vector<unsigned> corrected{1,   2,   4,   9,    20,   45,
                                        100, 220, 480, 1000, 2200, 9000};
  constexpr std::uint32_t kCodewordBits = 33808;

  ReliabilityManager model(config, "model_based", law);
  ReliabilityManager feedback(config, "feedback", law);
  Rng rng(20240611);
  unsigned model_saturated = 0, feedback_saturated = 0;
  for (int step = 0; step < 600; ++step) {
    const auto algo = rng.below(2) == 0 ? nand::ProgramAlgorithm::kIsppSv
                                        : nand::ProgramAlgorithm::kIsppDv;
    const double age = ages[rng.below(ages.size())];
    const auto expected_model = fresh_solve(config, law.rber(algo, age));
    EXPECT_EQ(model.recommended_t(algo, age, 3u),
              expected_model.value_or(config.t_max))
        << "step " << step;
    EXPECT_EQ(model.saturated(), !expected_model.has_value())
        << "step " << step;
    model_saturated += expected_model.has_value() ? 0 : 1;

    const unsigned errors = corrected[rng.below(corrected.size())];
    feedback.observe_decode(errors, kCodewordBits);
    const double sample = static_cast<double>(errors) / kCodewordBits;
    const auto expected_feedback =
        fresh_solve(config, std::min(0.5, sample * config.safety_factor));
    EXPECT_EQ(feedback.recommended_t(algo, age, 3u),
              expected_feedback.value_or(config.t_max))
        << "step " << step;
    EXPECT_EQ(feedback.saturated(), !expected_feedback.has_value())
        << "step " << step;
    feedback_saturated += expected_feedback.has_value() ? 0 : 1;
  }
  // Both outcomes occur on both policies, so the memo held both.
  EXPECT_GT(model_saturated, 0u);
  EXPECT_LT(model_saturated, 600u);
  EXPECT_GT(feedback_saturated, 0u);
  EXPECT_LT(feedback_saturated, 600u);
}

TEST(ReliabilityManager, InvalidConfigsRejected) {
  ReliabilityConfig bad;
  bad.uber_target = 0.0;
  EXPECT_THROW(ReliabilityManager(bad, "static",
                                  nand::AgingLaw{}),
               std::invalid_argument);
  bad = ReliabilityConfig{};
  bad.safety_factor = 0.5;
  EXPECT_THROW(ReliabilityManager(bad, "static",
                                  nand::AgingLaw{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace xlf::controller
