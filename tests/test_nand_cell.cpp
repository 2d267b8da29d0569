#include "src/nand/cell.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/nand/ispp.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

CellParams quiet_params() {
  CellParams params;
  params.injection_sigma = Volts{0.0};  // deterministic transfer
  return params;
}

TEST(Cell, NoTunnellingBelowOnset) {
  FloatingGateCell cell(Volts{-3.0}, quiet_params());
  Rng rng(1);
  // VCG - VTH - K = 4 - (-3) - 14 = -7: deep below onset.
  cell.apply_pulse(Volts{4.0}, rng);
  EXPECT_NEAR(cell.vth().value(), -3.0, 1e-6);
}

TEST(Cell, SlopeOneTrackingAboveOnset) {
  // In the staircase steady state VTH advances by exactly the step.
  FloatingGateCell cell(Volts{-3.0}, quiet_params());
  Rng rng(2);
  std::vector<double> history;
  for (double vcg = 14.0; vcg <= 19.0; vcg += 0.25) {
    cell.apply_pulse(Volts{vcg}, rng);
    history.push_back(cell.vth().value());
  }
  // After the onset transient, consecutive deltas equal the 250 mV step.
  for (std::size_t i = history.size() - 5; i + 1 < history.size(); ++i) {
    EXPECT_NEAR(history[i + 1] - history[i], 0.25, 0.01);
  }
}

TEST(Cell, ExpectedStepIsSoftplusOfOverdrive) {
  const FloatingGateCell cell(Volts{0.0}, quiet_params());
  // Far above onset: step ~ overdrive (slope-1 region).
  EXPECT_NEAR(cell.expected_step(Volts{20.0}).value(), 6.0, 0.02);
  // Far below onset: step ~ 0.
  EXPECT_NEAR(cell.expected_step(Volts{8.0}).value(), 0.0, 1e-4);
  // At onset: step = s ln 2.
  EXPECT_NEAR(cell.expected_step(Volts{14.0}).value(), 0.4 * std::log(2.0),
              1e-9);
}

TEST(Cell, BitlineBiasReducesStep) {
  FloatingGateCell a(Volts{1.0}, quiet_params());
  FloatingGateCell b(Volts{1.0}, quiet_params());
  Rng rng(3);
  a.apply_pulse(Volts{16.0}, rng);
  b.apply_pulse(Volts{16.0}, rng, Volts{0.7});
  EXPECT_GT(a.vth(), b.vth());
  EXPECT_GT(b.vth(), Volts{1.0});  // still programs, just slower
}

TEST(Cell, FasterCellsHaveSmallerOnset) {
  CellParams fast = quiet_params();
  fast.k_onset = Volts{13.5};
  CellParams slow = quiet_params();
  slow.k_onset = Volts{14.5};
  FloatingGateCell fast_cell(Volts{-3.0}, fast);
  FloatingGateCell slow_cell(Volts{-3.0}, slow);
  Rng rng(4);
  for (double vcg = 14.0; vcg < 16.0; vcg += 0.25) {
    fast_cell.apply_pulse(Volts{vcg}, rng);
    slow_cell.apply_pulse(Volts{vcg}, rng);
  }
  EXPECT_GT(fast_cell.vth(), slow_cell.vth());
}

TEST(Cell, InjectionNoiseScalesWithStep) {
  CellParams noisy;
  noisy.injection_sigma = Volts{0.05};
  Rng rng(5);
  RunningStats small_steps, large_steps;
  for (int trial = 0; trial < 4000; ++trial) {
    FloatingGateCell cell(Volts{0.0}, noisy);
    cell.apply_pulse(Volts{14.3}, rng);  // overdrive 0.3
    small_steps.add(cell.vth().value());
    FloatingGateCell cell2(Volts{0.0}, noisy);
    cell2.apply_pulse(Volts{17.0}, rng);  // overdrive 3.0
    large_steps.add(cell2.vth().value());
  }
  EXPECT_GT(large_steps.stddev(), small_steps.stddev());
  // sigma = 0.05 * sqrt(step): ~0.0866 for a 3 V step.
  EXPECT_NEAR(large_steps.stddev(), 0.05 * std::sqrt(3.0), 0.01);
}

TEST(Cell, ShiftMovesThreshold) {
  FloatingGateCell cell(Volts{2.0}, quiet_params());
  cell.shift(Volts{0.5});
  EXPECT_NEAR(cell.vth().value(), 2.5, 1e-12);
  cell.shift(Volts{-5.7});
  EXPECT_NEAR(cell.vth().value(), -3.2, 1e-12);
}

TEST(Cell, InhibitedCellUnaffectedByNoise) {
  // A cell far below onset must not random-walk from injection noise
  // (noise scales with the transferred charge).
  CellParams noisy;
  noisy.injection_sigma = Volts{0.10};
  FloatingGateCell cell(Volts{-3.0}, noisy);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) cell.apply_pulse(Volts{5.0}, rng);
  EXPECT_NEAR(cell.vth().value(), -3.0, 1e-3);
}

}  // namespace
}  // namespace xlf::nand
