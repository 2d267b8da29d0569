#include "src/nand/array.hpp"

#include <gtest/gtest.h>

#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

ArrayConfig tiny_config() {
  ArrayConfig config;
  config.geometry.blocks = 2;
  config.geometry.pages_per_block = 4;
  return config;
}

BitVec random_page_bits(const Geometry& geometry, Rng& rng) {
  BitVec bits(geometry.bits_per_page());
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.chance(0.5));
  return bits;
}

TEST(Array, StartsEresedEverywhere) {
  const NandArray array(tiny_config());
  for (std::uint32_t b = 0; b < 2; ++b) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      EXPECT_TRUE(array.is_erased({b, p}));
    }
    EXPECT_DOUBLE_EQ(array.wear(b), 0.0);  // factory fresh
  }
}

TEST(Array, LevelBitConversionRoundTrip) {
  Rng rng(1);
  BitVec bits(64);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.chance(0.5));
  const auto levels = NandArray::bits_to_levels(bits);
  EXPECT_EQ(levels.size(), 32u);
  EXPECT_EQ(NandArray::levels_to_bits(levels), bits);
}

TEST(Array, WordwiseGrayCodingMatchesPerCellMapping) {
  // 35 cells: one full 32-cell word plus a partial tail word.
  Rng rng(9);
  BitVec bits(70);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.chance(0.5));
  const auto levels = NandArray::bits_to_levels(bits);
  ASSERT_EQ(levels.size(), 35u);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(levels[i], bits_to_level(Bits2{bits.get(2 * i),
                                             bits.get(2 * i + 1)}));
  }
  std::vector<Level> all(35);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = kAllLevels[i % 4];
  const BitVec packed = NandArray::levels_to_bits(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Bits2 b = level_to_bits(all[i]);
    EXPECT_EQ(packed.get(2 * i), b.msb);
    EXPECT_EQ(packed.get(2 * i + 1), b.lsb);
  }
}

TEST(Array, ProgramReadRoundTripAtBol) {
  // At beginning of life the RBER is ~2.5e-6: a single page (34.5k
  // bits) reads back error-free with overwhelming probability.
  NandArray array(tiny_config());
  Rng rng(2);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  const ProgramResult result =
      array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv,
                         ProgramMode::kStatistical);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(array.is_erased({0, 0}));
  const BitVec read = array.read_page({0, 0});
  EXPECT_LE(read.hamming_distance(data), 2u);
}

TEST(Array, IsppModeRoundTripAtBol) {
  NandArray array(tiny_config());
  Rng rng(3);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  const ProgramResult result = array.program_page(
      {0, 1}, data, ProgramAlgorithm::kIsppDv, ProgramMode::kIsppSimulation);
  EXPECT_TRUE(result.ok);
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_TRUE(result.trace->converged);
  EXPECT_GT(result.trace->pulses, 10u);
  const BitVec read = array.read_page({0, 1});
  EXPECT_LE(read.hamming_distance(data), 2u);
}

TEST(Array, ProgramWithoutEraseRejected) {
  NandArray array(tiny_config());
  Rng rng(4);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv);
  EXPECT_THROW(array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv),
               std::invalid_argument);
}

TEST(Array, EraseRestoresProgrammability) {
  NandArray array(tiny_config());
  Rng rng(5);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv);
  array.erase_block(0);
  EXPECT_TRUE(array.is_erased({0, 0}));
  EXPECT_DOUBLE_EQ(array.wear(0), 1.0);
  EXPECT_NO_THROW(
      array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv));
}

TEST(Array, EraseIsPerBlock) {
  NandArray array(tiny_config());
  Rng rng(6);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv);
  array.program_page({1, 0}, data, ProgramAlgorithm::kIsppSv);
  array.erase_block(0);
  EXPECT_TRUE(array.is_erased({0, 0}));
  EXPECT_FALSE(array.is_erased({1, 0}));
  EXPECT_DOUBLE_EQ(array.wear(1), 0.0);
}

TEST(Array, WearControls) {
  NandArray array(tiny_config());
  array.set_wear(1, 5e5);
  EXPECT_DOUBLE_EQ(array.wear(1), 5e5);
  EXPECT_THROW(array.set_wear(9, 1.0), std::invalid_argument);
  EXPECT_THROW(array.set_wear(0, -1.0), std::invalid_argument);
}

TEST(Array, ErasedThresholdsAreNegative) {
  NandArray array(tiny_config());
  const auto thresholds = array.thresholds({0, 0});
  RunningStats stats;
  for (Volts v : thresholds) stats.add(v.value());
  EXPECT_NEAR(stats.mean(), -3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 0.4, 0.05);
}

TEST(Array, ReadLevelsMatchProgrammedTargets) {
  NandArray array(tiny_config());
  Rng rng(7);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({1, 2}, data, ProgramAlgorithm::kIsppSv);
  const auto levels = array.read_levels({1, 2});
  const auto targets = NandArray::bits_to_levels(data);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] != targets[i]) ++mismatches;
  }
  EXPECT_LE(mismatches, 2u);
}

TEST(Array, AgedPagesShowMoreErrors) {
  ArrayConfig config = tiny_config();
  NandArray fresh(config);
  NandArray aged(config);
  aged.set_wear(0, 1e6);
  Rng rng(8);
  const BitVec data = random_page_bits(config.geometry, rng);
  fresh.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv);
  aged.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv);
  const auto fresh_errors = fresh.read_page({0, 0}).hamming_distance(data);
  const auto aged_errors = aged.read_page({0, 0}).hamming_distance(data);
  // EOL SV RBER 1e-3 over 34.5k bits: ~35 expected errors.
  EXPECT_LT(fresh_errors, 5u);
  EXPECT_GT(aged_errors, 10u);
}

TEST(Array, OutOfRangeAddressesRejected) {
  NandArray array(tiny_config());
  EXPECT_THROW(array.read_page({2, 0}), std::invalid_argument);
  EXPECT_THROW(array.read_page({0, 4}), std::invalid_argument);
  EXPECT_THROW(array.erase_block(5), std::invalid_argument);
}

TEST(Array, WrongPageSizeRejected) {
  NandArray array(tiny_config());
  EXPECT_THROW(
      array.program_page({0, 0}, BitVec(100), ProgramAlgorithm::kIsppSv),
      std::invalid_argument);
}

}  // namespace
}  // namespace xlf::nand
