#include "src/nand/ispp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>

#include "src/nand/aging.hpp"
#include "src/nand/variability.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

struct Population {
  std::vector<FloatingGateCell> cells;
  std::vector<Level> targets;
};

Population make_population(std::size_t count, double pe_cycles,
                           std::uint64_t seed,
                           std::optional<Level> pattern = std::nullopt) {
  const VariabilityConfig vcfg;
  const AgingLaw aging;
  const VariabilitySampler sampler(vcfg, aging);
  const VoltagePlan plan;
  Rng rng(seed);
  Population pop;
  for (std::size_t i = 0; i < count; ++i) {
    pop.cells.emplace_back(
        sampler.sample_erased(rng, plan.erased_mean, plan.erased_sigma),
        sampler.sample(rng, pe_cycles));
    pop.targets.push_back(pattern.value_or(static_cast<Level>(rng.below(4))));
  }
  return pop;
}

double level_sigma(const Population& pop, Level level) {
  RunningStats stats;
  for (std::size_t i = 0; i < pop.cells.size(); ++i) {
    if (pop.targets[i] == level) stats.add(pop.cells[i].vth().value());
  }
  return stats.stddev();
}

TEST(Ispp, AllCellsConvergeAtBeginningOfLife) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    Population pop = make_population(2048, 0.0, 11);
    Rng rng(1);
    const IsppTrace trace =
        engine.program(pop.cells, pop.targets, algo, rng);
    EXPECT_TRUE(trace.converged) << to_string(algo);
    EXPECT_EQ(trace.failed_cells, 0u);
  }
}

TEST(Ispp, ProgrammedCellsLandAboveTheirVerifyLevel) {
  const VoltagePlan plan;
  const IsppEngine engine(IsppConfig{}, plan);
  Population pop = make_population(2048, 0.0, 12);
  Rng rng(2);
  engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng);
  for (std::size_t i = 0; i < pop.cells.size(); ++i) {
    if (pop.targets[i] == Level::kL0) {
      EXPECT_LT(pop.cells[i].vth(), plan.read[0]);
    } else {
      EXPECT_GE(pop.cells[i].vth() + Volts{1e-9},
                plan.verify_for(pop.targets[i]));
    }
  }
}

TEST(Ispp, DvCompactsDistributions) {
  // The double-verify slow zone must tighten the programmed spread —
  // the physical mechanism behind the Fig. 5 RBER gap.
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population sv_pop = make_population(6144, 0.0, 13);
  Population dv_pop = make_population(6144, 0.0, 13);  // same seeds
  Rng rng_sv(3), rng_dv(3);
  engine.program(sv_pop.cells, sv_pop.targets, ProgramAlgorithm::kIsppSv,
                 rng_sv);
  engine.program(dv_pop.cells, dv_pop.targets, ProgramAlgorithm::kIsppDv,
                 rng_dv);
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    EXPECT_LT(level_sigma(dv_pop, level), level_sigma(sv_pop, level))
        << "level " << static_cast<int>(level);
  }
}

TEST(Ispp, DvTakesLongerAndSensesMore) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population sv_pop = make_population(2048, 0.0, 14);
  Population dv_pop = make_population(2048, 0.0, 14);
  Rng rng_sv(4), rng_dv(4);
  const IsppTrace sv =
      engine.program(sv_pop.cells, sv_pop.targets, ProgramAlgorithm::kIsppSv, rng_sv);
  const IsppTrace dv =
      engine.program(dv_pop.cells, dv_pop.targets, ProgramAlgorithm::kIsppDv, rng_dv);
  EXPECT_GT(dv.duration(), sv.duration());
  EXPECT_GT(dv.verify_ops, sv.verify_ops * 3 / 2);  // ~2x senses
  EXPECT_GE(dv.pulses, sv.pulses);                  // slow-zone crawl
  // The paper's write-loss window: DV costs ~1.4-2.1x SV.
  const double ratio = dv.duration() / sv.duration();
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 2.2);
}

TEST(Ispp, L0OnlyPageNeedsNoPulses) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population pop = make_population(256, 0.0, 15, Level::kL0);
  Rng rng(5);
  const IsppTrace trace =
      engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng);
  EXPECT_EQ(trace.pulses, 0u);
  EXPECT_EQ(trace.verify_ops, 0u);
  EXPECT_TRUE(trace.converged);
}

TEST(Ispp, PatternDurationOrderingL1L2L3) {
  // Higher targets keep the staircase running longer (Fig. 6's
  // pattern dependence).
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  std::map<int, double> durations;
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    Population pop = make_population(2048, 0.0, 16, level);
    Rng rng(6);
    durations[static_cast<int>(level)] =
        engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng)
            .duration()
            .value();
  }
  EXPECT_LT(durations[1], durations[2]);
  EXPECT_LT(durations[2], durations[3]);
}

TEST(Ispp, HigherPatternRaisesAverageVcg) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population l1 = make_population(1024, 0.0, 17, Level::kL1);
  Population l3 = make_population(1024, 0.0, 17, Level::kL3);
  Rng rng1(7), rng3(7);
  const IsppTrace t1 =
      engine.program(l1.cells, l1.targets, ProgramAlgorithm::kIsppSv, rng1);
  const IsppTrace t3 =
      engine.program(l3.cells, l3.targets, ProgramAlgorithm::kIsppSv, rng3);
  EXPECT_GT(t3.average_vcg(), t1.average_vcg());
}

TEST(Ispp, WiderDvZoneSlowsDvFurther) {
  // The aging-driven zone widening is the Fig. 9 growth mechanism.
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population a = make_population(2048, 0.0, 18);
  Population b = make_population(2048, 0.0, 18);
  Rng rng_a(8), rng_b(8);
  const IsppTrace narrow =
      engine.program(a.cells, a.targets, ProgramAlgorithm::kIsppDv, rng_a, 1.0);
  const IsppTrace wide =
      engine.program(b.cells, b.targets, ProgramAlgorithm::kIsppDv, rng_b, 3.0);
  EXPECT_GT(wide.duration(), narrow.duration());
}

TEST(Ispp, TraceAccountingIsConsistent) {
  const IsppConfig config;
  const IsppEngine engine(config, VoltagePlan{});
  Population pop = make_population(1024, 0.0, 19);
  Rng rng(9);
  const IsppTrace trace =
      engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng);
  EXPECT_NEAR(trace.program_pump_time.value(),
              trace.pulses * config.pulse_time.value(), 1e-12);
  EXPECT_NEAR(trace.verify_pump_time.value(),
              trace.verify_ops * config.verify_time.value(), 1e-12);
  EXPECT_NEAR(trace.duration().value(),
              (trace.setup_time + trace.program_pump_time +
               trace.verify_pump_time)
                  .value(),
              1e-12);
  // Average VCG falls inside the staircase range.
  EXPECT_GE(trace.average_vcg(), config.v_start);
  EXPECT_LE(trace.average_vcg(), config.v_end);
}

TEST(Ispp, StaircaseResponseMatchesPulseCount) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  FloatingGateCell cell(Volts{-5.0}, CellParams{Volts{17.0}, Volts{0.4},
                                                Volts{0.0}});
  Rng rng(10);
  const auto response = engine.staircase_response(cell, Volts{6.0},
                                                  Volts{24.0}, Volts{1.0}, rng);
  EXPECT_EQ(response.size(), 19u);  // 6..24 inclusive, 1 V steps
  // Monotone non-decreasing threshold.
  for (std::size_t i = 1; i < response.size(); ++i) {
    EXPECT_GE(response[i] + Volts{1e-9}, response[i - 1]);
  }
}

TEST(Ispp, MismatchedSpansRejected) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  std::vector<FloatingGateCell> cells(4);
  std::vector<Level> targets(5, Level::kL1);
  Rng rng(11);
  EXPECT_THROW(
      engine.program(cells, targets, ProgramAlgorithm::kIsppSv, rng),
      std::invalid_argument);
}

// Golden values of IsppEngine::program captured from the
// full-population-scan kernel. Any faster kernel must pulse the same
// cells in the same order, so it draws the same Rng values and every
// count, pump time and final threshold stays bit-identical. The table
// covers both algorithms at three ages (the DV zone widens with wear),
// random data and each single-level pattern.
struct IsppGolden {
  ProgramAlgorithm algo;
  double pe_cycles;
  int pattern;  // -1: random levels, else the target level of every cell
  unsigned pulses;
  unsigned verify_ops;
  unsigned failed_cells;
  double program_pump_s;
  double verify_pump_s;
  double inhibit_pump_s;
  double vcg_time_integral;
  std::uint64_t vth_hash;  // FNV-1a over the final thresholds' bits
};

std::uint64_t fnv1a_thresholds(const std::vector<FloatingGateCell>& cells) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const FloatingGateCell& cell : cells) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(cell.vth().value());
    for (int b = 0; b < 8; ++b) {
      hash ^= bits & 0xFFu;
      hash *= 0x100000001b3ull;
      bits >>= 8;
    }
  }
  return hash;
}

IsppGolden run_golden_case(ProgramAlgorithm algo, double pe_cycles,
                           int pattern) {
  const std::uint64_t seed = 0x15bb0 + static_cast<std::uint64_t>(algo) * 64 +
                             static_cast<std::uint64_t>(pattern + 1) * 8 +
                             static_cast<std::uint64_t>(std::log10(pe_cycles));
  Population pop = make_population(
      4096, pe_cycles, seed,
      pattern < 0 ? std::nullopt
                  : std::optional<Level>(static_cast<Level>(pattern)));
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Rng rng(seed ^ 0xD1CEull);
  const IsppTrace trace = engine.program(
      pop.cells, pop.targets, algo, rng,
      AgingLaw{}.dv_zone_multiplier(pe_cycles));
  return IsppGolden{algo,
                    pe_cycles,
                    pattern,
                    trace.pulses,
                    trace.verify_ops,
                    trace.failed_cells,
                    trace.program_pump_time.value(),
                    trace.verify_pump_time.value(),
                    trace.inhibit_pump_time.value(),
                    trace.vcg_time_integral,
                    fnv1a_thresholds(pop.cells)};
}

// The case as a table row, hex floats so the row round-trips exactly.
std::string golden_row(const IsppGolden& g) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{ProgramAlgorithm::%s, %g, %d, %u, %u, %u, %a, %a, %a, %a, "
                "0x%016llxull},",
                g.algo == ProgramAlgorithm::kIsppSv ? "kIsppSv" : "kIsppDv",
                g.pe_cycles, g.pattern, g.pulses, g.verify_ops, g.failed_cells,
                g.program_pump_s, g.verify_pump_s, g.inhibit_pump_s,
                g.vcg_time_integral,
                static_cast<unsigned long long>(g.vth_hash));
  return buf;
}

// clang-format off
const IsppGolden kIsppGolden[] = {
    {ProgramAlgorithm::kIsppSv, 1, -1, 18, 29, 0, 0x1.797cc39ffd60ep-11, 0x1.11ada76d97b31p-11, 0x1.797cc39ffd60ep-11, 0x1.7c6fbd273d5bap-7, 0x19a1b8c8cc7ae561ull},
    {ProgramAlgorithm::kIsppSv, 1, 1, 9, 9, 0, 0x1.797cc39ffd60ep-12, 0x1.53bd1676640a7p-13, 0x1.797cc39ffd60ep-12, 0x1.61e4f765fd8aep-8, 0x40d5c74c4187f8faull},
    {ProgramAlgorithm::kIsppSv, 1, 2, 14, 11, 0, 0x1.2599ed7c6fbd2p-11, 0x1.9f3c70c996b77p-13, 0x1.2599ed7c6fbd2p-11, 0x1.1eb851eb851ebp-7, 0x6d4d9e0ed9474698ull},
    {ProgramAlgorithm::kIsppSv, 1, 3, 20, 13, 0, 0x1.a36e2eb1c432cp-11, 0x1.eabbcb1cc9647p-13, 0x1.a36e2eb1c432cp-11, 0x1.ad42c3c9eecbfp-7, 0x43147dfb87ce4e7bull},
    {ProgramAlgorithm::kIsppSv, 10000, -1, 20, 32, 0, 0x1.a36e2eb1c432cp-11, 0x1.2dfd694ccab3fp-11, 0x1.a36e2eb1c432cp-11, 0x1.ad42c3c9eecbfp-7, 0xd1f4342ae9fa0bf2ull},
    {ProgramAlgorithm::kIsppSv, 10000, 1, 9, 9, 0, 0x1.797cc39ffd60ep-12, 0x1.53bd1676640a7p-13, 0x1.797cc39ffd60ep-12, 0x1.61e4f765fd8aep-8, 0x8a04611da2131936ull},
    {ProgramAlgorithm::kIsppSv, 10000, 2, 15, 13, 0, 0x1.3a92a30553261p-11, 0x1.eabbcb1cc9647p-13, 0x1.3a92a30553261p-11, 0x1.35a858793dd97p-7, 0xed18176c7b4867aeull},
    {ProgramAlgorithm::kIsppSv, 10000, 3, 19, 12, 0, 0x1.8e757928e0c9dp-11, 0x1.c4fc1df3300dfp-13, 0x1.8e757928e0c9dp-11, 0x1.94af4f0d844cfp-7, 0x1e2909cef8e6b0abull},
    {ProgramAlgorithm::kIsppSv, 1e+06, -1, 19, 39, 0, 0x1.8e757928e0c9dp-11, 0x1.700cd855970b5p-11, 0x1.8e757928e0c9dp-11, 0x1.94af4f0d844cfp-7, 0xdd8aa0674d7d907cull},
    {ProgramAlgorithm::kIsppSv, 1e+06, 1, 11, 11, 0, 0x1.cd5f99c38b04ap-12, 0x1.9f3c70c996b77p-13, 0x1.cd5f99c38b04ap-12, 0x1.b7bf1e8e60807p-8, 0x5ce1f66f947aaca5ull},
    {ProgramAlgorithm::kIsppSv, 1e+06, 2, 16, 15, 0, 0x1.4f8b588e368fp-11, 0x1.1b1d92b7fe08bp-12, 0x1.4f8b588e368fp-11, 0x1.4cec41dd1a21ep-7, 0xc380cf8086282ba1ull},
    {ProgramAlgorithm::kIsppSv, 1e+06, 3, 21, 16, 0, 0x1.b866e43aa79bbp-11, 0x1.2dfd694ccab3fp-12, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7, 0xc512c9469e32ec7dull},
    {ProgramAlgorithm::kIsppDv, 1, -1, 21, 76, 0, 0x1.b866e43aa79bbp-11, 0x1.669ced0b30b5bp-10, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7, 0xc3a0d010a9a3c897ull},
    {ProgramAlgorithm::kIsppDv, 1, 1, 11, 22, 0, 0x1.cd5f99c38b04ap-12, 0x1.9f3c70c996b77p-12, 0x1.cd5f99c38b04ap-12, 0x1.b7bf1e8e60807p-8, 0xfb2c952de500e7b6ull},
    {ProgramAlgorithm::kIsppDv, 1, 2, 16, 28, 0, 0x1.4f8b588e368fp-11, 0x1.083dbc23315d7p-11, 0x1.4f8b588e368fp-11, 0x1.4cec41dd1a21ep-7, 0x1f3ed2ba2fc55c81ull},
    {ProgramAlgorithm::kIsppDv, 1, 3, 21, 30, 0, 0x1.b866e43aa79bbp-11, 0x1.1b1d92b7fe08bp-11, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7, 0x93c4abfc5d7bed3aull},
    {ProgramAlgorithm::kIsppDv, 10000, -1, 22, 82, 0, 0x1.cd5f99c38b04ap-11, 0x1.82ecaeea63b69p-10, 0x1.cd5f99c38b04ap-11, 0x1.df1172ef0ae53p-7, 0x5b96f8f1f27af970ull},
    {ProgramAlgorithm::kIsppDv, 10000, 1, 12, 24, 0, 0x1.f75104d551d68p-12, 0x1.c4fc1df3300dfp-12, 0x1.f75104d551d68p-12, 0x1.e3a7daa4fca42p-8, 0x1b91a413b7c6c4c3ull},
    {ProgramAlgorithm::kIsppDv, 10000, 2, 16, 28, 0, 0x1.4f8b588e368fp-11, 0x1.083dbc23315d7p-11, 0x1.4f8b588e368fp-11, 0x1.4cec41dd1a21ep-7, 0x0d9b758ece26574aull},
    {ProgramAlgorithm::kIsppDv, 10000, 3, 22, 32, 0, 0x1.cd5f99c38b04ap-11, 0x1.2dfd694ccab3fp-11, 0x1.cd5f99c38b04ap-11, 0x1.df1172ef0ae53p-7, 0x850474e994665dadull},
    {ProgramAlgorithm::kIsppDv, 1e+06, -1, 26, 112, 0, 0x1.10a137f38c544p-10, 0x1.083dbc23315d6p-9, 0x1.10a137f38c544p-10, 0x1.2157689ca18bdp-6, 0xdefe84cbdb2c2872ull},
    {ProgramAlgorithm::kIsppDv, 1e+06, 1, 15, 30, 0, 0x1.3a92a30553261p-11, 0x1.1b1d92b7fe08bp-11, 0x1.3a92a30553261p-11, 0x1.35a858793dd97p-7, 0xd40445a44c93170cull},
    {ProgramAlgorithm::kIsppDv, 1e+06, 2, 18, 36, 0, 0x1.797cc39ffd60ep-11, 0x1.53bd1676640a7p-11, 0x1.797cc39ffd60ep-11, 0x1.7c6fbd273d5bap-7, 0x2550f9be0d116533ull},
    {ProgramAlgorithm::kIsppDv, 1e+06, 3, 27, 54, 0, 0x1.1b1d92b7fe08cp-10, 0x1.fd9ba1b1960fbp-11, 0x1.1b1d92b7fe08cp-10, 0x1.2dcb1465e8922p-6, 0x5b7add5db05f41e7ull},
};
// clang-format on

TEST(Ispp, ProgramMatchesGoldenTraces) {
  std::size_t row = 0;
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (double pe : {1.0, 1e4, 1e6}) {
      for (int pattern : {-1, 1, 2, 3}) {
        const std::string got = golden_row(run_golden_case(algo, pe, pattern));
        EXPECT_EQ(got, row < std::size(kIsppGolden)
                           ? golden_row(kIsppGolden[row])
                           : std::string("(no golden row)"));
        ++row;
      }
    }
  }
  EXPECT_EQ(row, std::size(kIsppGolden));
}

}  // namespace
}  // namespace xlf::nand
