#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/nand/device.hpp"
#include "src/nand/timing.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::nand {
namespace {

NandTiming make_timing(const DeviceConfig& device = {},
                       std::shared_ptr<IsppTraceCache> traces = nullptr) {
  return NandTiming(device.timing, device.array.ispp, device.array.plan,
                    device.array.variability, device.array.aging,
                    std::move(traces));
}

// Every field of two traces, compared bit for bit.
bool same_bits(const IsppTrace& a, const IsppTrace& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.algorithm == b.algorithm && a.pulses == b.pulses &&
         a.verify_ops == b.verify_ops && a.converged == b.converged &&
         a.failed_cells == b.failed_cells &&
         bits(a.program_pump_time.value()) ==
             bits(b.program_pump_time.value()) &&
         bits(a.vcg_time_integral) == bits(b.vcg_time_integral) &&
         bits(a.verify_pump_time.value()) ==
             bits(b.verify_pump_time.value()) &&
         bits(a.inhibit_pump_time.value()) ==
             bits(b.inhibit_pump_time.value()) &&
         bits(a.setup_time.value()) == bits(b.setup_time.value());
}

TEST(Timing, DatasheetConstants) {
  const NandTiming timing = make_timing();
  EXPECT_NEAR(timing.read_time().micros(), 75.0, 1e-9);   // [27]
  EXPECT_NEAR(timing.erase_time().millis(), 2.5, 1e-9);
}

TEST(Timing, SvProgramNearPaperQuote) {
  // Section 6.3.3 quotes ~1.5 ms for the ISPP-SV page program.
  const NandTiming timing = make_timing();
  const double ms =
      timing.program_time(ProgramAlgorithm::kIsppSv, 100.0).millis();
  EXPECT_GT(ms, 1.1);
  EXPECT_LT(ms, 1.9);
}

TEST(Timing, DvSlowerByPaperWindow) {
  // Fig. 9 window: the DV/SV ratio implies a 35-55% write loss.
  const NandTiming timing = make_timing();
  for (double c : {1.0, 1e4, 1e6}) {
    const double ratio = timing.program_time(ProgramAlgorithm::kIsppDv, c) /
                         timing.program_time(ProgramAlgorithm::kIsppSv, c);
    EXPECT_GT(ratio, 1.45) << c;
    EXPECT_LT(ratio, 2.3) << c;
  }
}

TEST(Timing, DvPenaltyGrowsOverLife) {
  const NandTiming timing = make_timing();
  const double bol = timing.program_time(ProgramAlgorithm::kIsppDv, 1e2) /
                     timing.program_time(ProgramAlgorithm::kIsppSv, 1e2);
  const double eol = timing.program_time(ProgramAlgorithm::kIsppDv, 1e6) /
                     timing.program_time(ProgramAlgorithm::kIsppSv, 1e6);
  EXPECT_GT(eol, bol);
}

TEST(Timing, TracesAreCachedPerAgeCell) {
  const NandTiming timing = make_timing();
  const IsppTrace& a = timing.sample_trace(ProgramAlgorithm::kIsppSv, 1e4);
  const IsppTrace& b = timing.sample_trace(ProgramAlgorithm::kIsppSv, 1e4);
  EXPECT_EQ(&a, &b);
}

TEST(Timing, PatternTracesOrdered) {
  const NandTiming timing = make_timing();
  const Seconds l1 =
      timing.sample_trace(ProgramAlgorithm::kIsppSv, 10.0, Level::kL1)
          .duration();
  const Seconds l3 =
      timing.sample_trace(ProgramAlgorithm::kIsppSv, 10.0, Level::kL3)
          .duration();
  EXPECT_LT(l1, l3);
}

TEST(Timing, IoTransferAndLoadStrategies) {
  const NandTiming timing = make_timing();
  const Seconds load = timing.io_transfer_time(4096);
  EXPECT_GT(load.micros(), 10.0);
  const Seconds full = timing.page_write_time(
      ProgramAlgorithm::kIsppSv, 100.0, 4096, LoadStrategy::kFullSequence);
  const Seconds two_round = timing.page_write_time(
      ProgramAlgorithm::kIsppSv, 100.0, 4096, LoadStrategy::kTwoRound);
  // Two-round overlaps half the load (Section 6.3.3 mitigation).
  EXPECT_NEAR((full - two_round).value(), (load / 2.0).value(), 1e-12);
}

TEST(Device, AlgorithmSelectionIsTheRuntimeKnob) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  EXPECT_EQ(device.program_algorithm(), ProgramAlgorithm::kIsppSv);
  device.select_program_algorithm(ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(device.program_algorithm(), ProgramAlgorithm::kIsppDv);
}

TEST(Device, SingleAlgorithmRomRejectsOthers) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  config.available_algorithms = {ProgramAlgorithm::kIsppSv};
  NandDevice device(config);
  EXPECT_THROW(device.select_program_algorithm(ProgramAlgorithm::kIsppDv),
               std::invalid_argument);
  // Code-ROM devices cannot take uploads (Section 6.4).
  EXPECT_THROW(device.upload_algorithm(ProgramAlgorithm::kIsppDv),
               std::invalid_argument);
}

TEST(Device, SramStoreAcceptsUploads) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  config.store = AlgorithmStore::kSram;
  config.available_algorithms = {ProgramAlgorithm::kIsppSv};
  NandDevice device(config);
  const std::size_t before = device.code_store_bytes();
  device.upload_algorithm(ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(device.algorithms_resident(), 2u);
  EXPECT_GT(device.code_store_bytes(), before);
  EXPECT_NO_THROW(device.select_program_algorithm(ProgramAlgorithm::kIsppDv));
}

TEST(Device, CodeRomGrowthIsSmall) {
  // Section 6.4: selectability costs only "a small increase of the
  // code-ROM capacity".
  DeviceConfig single;
  single.array.geometry.blocks = 1;
  single.array.geometry.pages_per_block = 2;
  single.available_algorithms = {ProgramAlgorithm::kIsppSv};
  DeviceConfig dual = single;
  dual.available_algorithms = {ProgramAlgorithm::kIsppSv,
                               ProgramAlgorithm::kIsppDv};
  const NandDevice a(single), b(dual);
  const double growth = static_cast<double>(b.code_store_bytes()) /
                            a.code_store_bytes() -
                        1.0;
  EXPECT_GT(growth, 0.0);
  EXPECT_LT(growth, 0.15);
}

TEST(Device, CommandSetRoundTrip) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  Rng rng(1);
  BitVec data(device.geometry().bits_per_page());
  for (std::size_t i = 0; i < data.size(); ++i) data.set(i, rng.chance(0.5));

  const ProgramOutcome write = device.program_page({0, 0}, data);
  EXPECT_TRUE(write.ok);
  EXPECT_GT(write.busy_time.millis(), 1.0);

  const ReadOutcome read = device.read_page({0, 0});
  EXPECT_NEAR(read.busy_time.micros(), 75.0, 1e-9);
  EXPECT_LE(read.data.hamming_distance(data), 2u);

  const EraseOutcome erase = device.erase_block(0);
  EXPECT_NEAR(erase.busy_time.millis(), 2.5, 1e-9);
}

TEST(Device, UniformWearApplies) {
  DeviceConfig config;
  config.array.geometry.blocks = 3;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  device.set_uniform_wear(1234.0);
  for (std::uint32_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(device.wear(b), 1234.0);
  }
}

TEST(Timing, ArraySeedIsNotACharacterisationInput) {
  // An Ssd's dies differ only in ArrayConfig::seed and share one trace
  // cache; that is sound only while characterisation ignores the seed.
  DeviceConfig die0;
  DeviceConfig die1 = die0;
  die1.array.seed = die0.array.seed + 12345;
  const NandTiming a = make_timing(die0);
  const NandTiming b = make_timing(die1);
  for (const auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (const double age : {1.0, 3e3, 1e6}) {
      for (const std::optional<Level> pattern :
           {std::optional<Level>{}, std::optional<Level>{Level::kL2}}) {
        EXPECT_TRUE(same_bits(a.sample_trace(algo, age, pattern),
                              b.sample_trace(algo, age, pattern)))
            << to_string(algo) << " " << age;
      }
    }
  }
}

TEST(Timing, SharedCacheReturnsOneEntryPerKey) {
  const DeviceConfig device;
  const NandTiming owner = make_timing(device);
  const NandTiming sharer = make_timing(device, owner.trace_cache());
  EXPECT_EQ(owner.trace_cache(), sharer.trace_cache());
  // Filled through one, hit through the other: same entry, no second
  // characterisation. 10 and 9.2 cycles quantise to one age key (a
  // pair whose traces differ when characterised at their exact ages).
  const IsppTrace& a = owner.sample_trace(ProgramAlgorithm::kIsppSv, 10.0);
  EXPECT_EQ(&sharer.sample_trace(ProgramAlgorithm::kIsppSv, 9.2), &a);
  // A private cache holds its own entry with the same bits, even when
  // filled from another age of the key: entries are characterised at
  // the key's canonical age, never at the age that missed first.
  const NandTiming alone = make_timing(device);
  const IsppTrace& b = alone.sample_trace(ProgramAlgorithm::kIsppSv, 9.2);
  EXPECT_NE(&b, &a);
  EXPECT_TRUE(same_bits(a, b));
}

TEST(Timing, ConcurrentFillOfASharedCache) {
  // Workers race on a cold cache shared by two NandTimings over mixed
  // algorithms, patterns and ages (1e30 cycles saturates the cycle
  // count characterisation mixes into its seed). Every caller of one
  // key must get the same entry, with the bits of a serial reference.
  struct Key {
    ProgramAlgorithm algo;
    double age;
    std::optional<Level> pattern;
  };
  std::vector<Key> keys;
  for (const auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (const double age : {1.0, 40.0, 2e3, 1e6, 1e30}) {
      keys.push_back({algo, age, std::nullopt});
    }
    keys.push_back({algo, 5e2, Level::kL1});
    keys.push_back({algo, 5e2, Level::kL3});
  }
  const DeviceConfig device;
  const NandTiming a = make_timing(device);
  const NandTiming b = make_timing(device, a.trace_cache());
  constexpr std::size_t kRounds = 6;
  std::vector<const IsppTrace*> got(keys.size() * kRounds, nullptr);
  ThreadPool pool(8);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    const Key& key = keys[i % keys.size()];
    const NandTiming& timing = (i / keys.size()) % 2 == 0 ? a : b;
    got[i] = &timing.sample_trace(key.algo, key.age, key.pattern);
  });

  const NandTiming reference = make_timing(device);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const IsppTrace& expected =
        reference.sample_trace(keys[k].algo, keys[k].age, keys[k].pattern);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const IsppTrace* trace = got[round * keys.size() + k];
      EXPECT_EQ(trace, got[k]) << "key " << k << " round " << round;
      EXPECT_TRUE(same_bits(*trace, expected)) << "key " << k;
    }
    // A later lookup still lands on the entry the race published.
    EXPECT_EQ(&b.sample_trace(keys[k].algo, keys[k].age, keys[k].pattern),
              got[k]);
  }
}

}  // namespace
}  // namespace xlf::nand
