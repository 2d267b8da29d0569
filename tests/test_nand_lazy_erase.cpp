// The bit-true array's lazy, keyed erased state, checked against the
// models it must reproduce: the erased and per-level programmed
// threshold moments, and Monte-Carlo raw bit errors against the RBER
// law over many array seeds. Also pins the properties keying buys
// (program order does not matter, erased reads and later programs see
// one population, an erase draws fresh noise) and that ISPP-mode
// programming still converges on the lazily drawn cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/nand/array.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

ArrayConfig small_config(std::uint64_t seed = 1) {
  ArrayConfig config;
  config.geometry.blocks = 2;
  config.geometry.pages_per_block = 4;
  config.seed = seed;
  return config;
}

BitVec random_page_bits(const Geometry& geometry, std::uint64_t seed) {
  Rng rng(seed);
  BitVec bits(geometry.bits_per_page());
  for (std::size_t w = 0; w < bits.words().size(); ++w) {
    bits.set_word(w, rng.next());
  }
  return bits;
}

// |sample mean - mu| within 4 standard errors, and the sample sigma
// within 4 standard errors of sigma (SE of a Gaussian sample's
// standard deviation ~ sigma / sqrt(2n)).
void expect_moments(const RunningStats& stats, double mu, double sigma) {
  const auto n = static_cast<double>(stats.count());
  ASSERT_GT(n, 100.0);
  EXPECT_NEAR(stats.mean(), mu, 4.0 * sigma / std::sqrt(n));
  EXPECT_NEAR(stats.stddev(), sigma, 4.0 * sigma / std::sqrt(2.0 * n));
}

TEST(LazyErase, ErasedMomentsMatchThePlan) {
  const NandArray array(small_config());
  const VoltagePlan& plan = array.config().plan;
  RunningStats stats;
  for (std::uint32_t b = 0; b < 2; ++b) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      for (const Volts v : array.thresholds({b, p})) stats.add(v.value());
    }
  }
  expect_moments(stats, plan.erased_mean.value(), plan.erased_sigma.value());
}

TEST(LazyErase, ProgrammedLevelMomentsMatchTheRberModel) {
  for (const ProgramAlgorithm algo :
       {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    NandArray array(small_config());
    array.set_wear(0, 1e4);
    std::array<RunningStats, 4> per_level;
    for (std::uint32_t p = 0; p < 4; ++p) {
      const BitVec data = random_page_bits(array.config().geometry, 10 + p);
      array.program_page({0, p}, data, algo);
      const auto targets = NandArray::bits_to_levels(data);
      const auto vth = array.thresholds({0, p});
      for (std::size_t i = 0; i < vth.size(); ++i) {
        per_level[static_cast<std::size_t>(targets[i])].add(vth[i].value());
      }
    }
    for (const Level level : kAllLevels) {
      const LevelDistribution dist =
          array.rber_model().distribution(level, algo, 1e4);
      expect_moments(per_level[static_cast<std::size_t>(level)],
                     dist.mean.value(), dist.sigma.value());
    }
  }
}

TEST(LazyErase, MonteCarloBitErrorsMatchTheRberLaw) {
  // One page per array seed, 64 seeds per (algorithm, age): the total
  // raw bit errors must fall within a binomial 4-sigma band of the
  // closed-form RBER.
  constexpr unsigned kSeeds = 64;
  const ArrayConfig base = small_config();
  const NandArray reference(base);
  const RberModel& model = reference.rber_model();
  const double bits_per_page = base.geometry.bits_per_page();
  for (const ProgramAlgorithm algo :
       {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (const double pe : {1.0, 1e4, 1e6}) {
      double errors = 0.0;
      for (unsigned seed = 1; seed <= kSeeds; ++seed) {
        errors += bits_per_page * monte_carlo_rber(base, algo, pe, 1,
                                                   ProgramMode::kStatistical,
                                                   seed);
      }
      const double n = kSeeds * bits_per_page;
      const double p = model.rber(algo, pe);
      const double band = 4.0 * std::sqrt(n * p * (1.0 - p));
      EXPECT_NEAR(errors, n * p, band)
          << (algo == ProgramAlgorithm::kIsppSv ? "SV" : "DV") << " at " << pe
          << " P/E";
    }
  }
}

TEST(LazyErase, ProgramOrderDoesNotChangeThresholds) {
  NandArray forward(small_config(7));
  NandArray backward(small_config(7));
  const Geometry& geometry = forward.config().geometry;
  for (std::uint32_t p = 0; p < 4; ++p) {
    forward.program_page({1, p}, random_page_bits(geometry, 100 + p),
                         ProgramAlgorithm::kIsppSv);
  }
  // Unrelated work in between must not shift anything either.
  backward.program_page({0, 0}, random_page_bits(geometry, 5),
                        ProgramAlgorithm::kIsppDv);
  backward.erase_block(0);
  for (std::uint32_t p = 4; p-- > 0;) {
    backward.program_page({1, p}, random_page_bits(geometry, 100 + p),
                          ProgramAlgorithm::kIsppSv);
  }
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(forward.thresholds({1, p}), backward.thresholds({1, p}))
        << "page " << p;
  }
}

TEST(LazyErase, ErasedReadsAndProgramSeeOnePopulation) {
  NandArray array(small_config(3));
  const PageAddress addr{0, 2};
  const auto erased = array.thresholds(addr);
  // Computed on the fly, the same population every time.
  EXPECT_EQ(array.thresholds(addr), erased);
  const auto levels = array.read_levels(addr);
  for (std::size_t i = 0; i < erased.size(); ++i) {
    EXPECT_EQ(levels[i], array.config().plan.read_level(erased[i]));
  }

  const BitVec data = random_page_bits(array.config().geometry, 42);
  array.program_page(addr, data, ProgramAlgorithm::kIsppSv);
  const auto targets = NandArray::bits_to_levels(data);
  const auto programmed = array.thresholds(addr);
  std::size_t l0_cells = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] != Level::kL0) continue;
    ++l0_cells;
    EXPECT_EQ(programmed[i], erased[i]) << "cell " << i;
  }
  EXPECT_GT(l0_cells, 0u);
}

TEST(LazyErase, ReadDisturbOnAnErasedPageCarriesIntoTheProgram) {
  NandArray array(small_config(4));
  const PageAddress addr{1, 1};
  const auto pristine = array.thresholds(addr);
  array.apply_read_disturb(addr, 100000);
  const auto disturbed = array.thresholds(addr);
  EXPECT_TRUE(array.is_erased(addr));
  EXPECT_NE(disturbed, pristine);

  const BitVec data = random_page_bits(array.config().geometry, 43);
  array.program_page(addr, data, ProgramAlgorithm::kIsppSv);
  const auto targets = NandArray::bits_to_levels(data);
  const auto programmed = array.thresholds(addr);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == Level::kL0) {
      EXPECT_EQ(programmed[i], disturbed[i]);
    }
  }
}

TEST(LazyErase, EraseDrawsFreshNoise) {
  NandArray array(small_config(5));
  const PageAddress addr{0, 0};
  const BitVec data = random_page_bits(array.config().geometry, 44);
  const auto erased_before = array.thresholds(addr);
  array.program_page(addr, data, ProgramAlgorithm::kIsppSv);
  const auto first = array.thresholds(addr);

  array.erase_block(0);
  EXPECT_TRUE(array.is_erased(addr));
  const auto erased_after = array.thresholds(addr);
  array.program_page(addr, data, ProgramAlgorithm::kIsppSv);
  const auto second = array.thresholds(addr);

  std::size_t same_erased = 0;
  std::size_t same_programmed = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    same_erased += erased_before[i] == erased_after[i] ? 1 : 0;
    same_programmed += first[i] == second[i] ? 1 : 0;
  }
  EXPECT_EQ(same_erased, 0u);
  EXPECT_EQ(same_programmed, 0u);
  // Same data, same wear: still readable.
  EXPECT_LE(array.read_page(addr).hamming_distance(data), 2u);
}

TEST(LazyErase, IsppProgramConvergesAtBolAndAt1e5Cycles) {
  for (const double pe : {0.0, 1e5}) {
    NandArray array(small_config(6));
    if (pe > 0.0) {
      // Age the block, then erase so the cells are drawn at that wear.
      array.set_wear(0, pe);
      array.erase_block(0);
    }
    const BitVec data = random_page_bits(array.config().geometry, 45);
    const ProgramResult result = array.program_page(
        {0, 0}, data, ProgramAlgorithm::kIsppDv,
        ProgramMode::kIsppSimulation);
    ASSERT_TRUE(result.trace.has_value());
    EXPECT_TRUE(result.ok) << pe << " P/E";
    EXPECT_TRUE(result.trace->converged) << pe << " P/E";
    EXPECT_EQ(result.trace->failed_cells, 0u);
    // Raw errors stay within a 4-sigma Poisson bound of the RBER law.
    const double expected =
        array.rber_model().rber(ProgramAlgorithm::kIsppDv, std::max(pe, 1.0)) *
        static_cast<double>(data.size());
    EXPECT_LE(static_cast<double>(
                  array.read_page({0, 0}).hamming_distance(data)),
              expected + 4.0 * std::sqrt(expected) + 1.0)
        << pe << " P/E";
  }
}

TEST(LazyErase, ConstructionIsBookkeepingOnly) {
  // 262144 pages: eager sampling would draw 13.6G Gaussians here.
  ArrayConfig config;
  config.geometry.blocks = 16384;
  config.geometry.pages_per_block = 16;
  NandArray array(config);
  const BitVec data = random_page_bits(config.geometry, 46);
  array.program_page({16383, 15}, data, ProgramAlgorithm::kIsppSv);
  EXPECT_LE(array.read_page({16383, 15}).hamming_distance(data), 2u);
  EXPECT_TRUE(array.is_erased({0, 0}));
  array.erase_block(16383);
  EXPECT_TRUE(array.is_erased({16383, 15}));
}

}  // namespace
}  // namespace xlf::nand
