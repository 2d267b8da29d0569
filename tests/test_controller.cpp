#include "src/controller/controller.hpp"

#include <gtest/gtest.h>

#include "src/util/rng.hpp"

namespace xlf::controller {
namespace {

struct Fixture {
  nand::NandDevice device;
  MemoryController controller;

  explicit Fixture(ControllerConfig config = {},
                   nand::DeviceConfig device_config = small_device())
      : device(device_config), controller(config, device, hv::HvConfig{}) {}

  static nand::DeviceConfig small_device() {
    nand::DeviceConfig config;
    config.array.geometry.blocks = 2;
    config.array.geometry.pages_per_block = 4;
    return config;
  }

  BitVec random_data(std::uint64_t seed) {
    Rng rng(seed);
    BitVec data(device.geometry().data_bits_per_page());
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.set(i, rng.chance(0.5));
    }
    return data;
  }
};

TEST(Controller, WriteReadRoundTrip) {
  Fixture fx;
  const BitVec data = fx.random_data(1);
  const WriteResult write = fx.controller.write_page({0, 0}, data);
  EXPECT_TRUE(write.ok);
  EXPECT_EQ(write.t_used, 3u);  // baseline BOL capability
  EXPECT_GT(write.latency.millis(), 1.0);  // program dominates

  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data);
  EXPECT_GT(read.latency.micros(), 75.0);
}

TEST(Controller, CrossLayerKnobsReachBothLayers) {
  Fixture fx;
  fx.controller.set_program_algorithm(nand::ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(fx.device.program_algorithm(), nand::ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(fx.controller.registers().program_algorithm(),
            nand::ProgramAlgorithm::kIsppDv);
  fx.controller.set_correction_capability(20);
  EXPECT_EQ(fx.controller.registers().ecc_capability(), 20u);
  EXPECT_EQ(fx.controller.ecc().correction_capability(), 20u);
}

TEST(Controller, PagesDecodeWithTheirWriteTimeCapability) {
  Fixture fx;
  const BitVec data_a = fx.random_data(2);
  fx.controller.set_correction_capability(5);
  fx.controller.write_page({0, 0}, data_a);

  // Reconfigure before reading back: the stored page still uses t=5.
  fx.controller.set_correction_capability(30);
  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data_a);
  // Current configuration is untouched by the read.
  EXPECT_EQ(fx.controller.correction_capability(), 30u);
}

TEST(Controller, AdaptEccFollowsWear) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  const unsigned t = fx.controller.adapt_ecc(1e6);
  EXPECT_EQ(t, 65u);
  EXPECT_EQ(fx.controller.correction_capability(), 65u);
  fx.device.set_uniform_wear(1.0);
  EXPECT_LE(fx.controller.adapt_ecc(1.0), 4u);
}

TEST(Controller, AgedPagesAreCorrectedTransparently) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  fx.controller.adapt_ecc(1e6);  // t = 65
  const BitVec data = fx.random_data(3);
  fx.controller.write_page({0, 0}, data);
  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data);
  // EOL SV RBER 1e-3 x 33808 bits: expect tens of corrected bits.
  EXPECT_GT(read.corrected_bits, 5u);
  EXPECT_LT(read.corrected_bits, 80u);
}

TEST(Controller, FeedbackCountersReachRegisters) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  fx.controller.adapt_ecc(1e6);
  const BitVec data = fx.random_data(4);
  fx.controller.write_page({0, 0}, data);
  fx.controller.read_page({0, 0});
  EXPECT_EQ(fx.controller.registers().decoded_pages(), 1u);
  EXPECT_GT(fx.controller.registers().corrected_bits(), 0u);
  EXPECT_GT(fx.controller.reliability().estimated_rber(), 0.0);
}

TEST(Controller, HonestAndFastDecodeAgree) {
  ControllerConfig honest_config;
  honest_config.simulation_fast_decode = false;
  Fixture honest(honest_config);
  Fixture fast;

  honest.device.set_uniform_wear(1e5);
  fast.device.set_uniform_wear(1e5);
  honest.controller.adapt_ecc(1e5);
  fast.controller.adapt_ecc(1e5);

  const BitVec data = honest.random_data(6);
  honest.controller.write_page({0, 0}, data);
  fast.controller.write_page({0, 0}, data);
  const ReadResult a = honest.controller.read_page({0, 0});
  const ReadResult b = fast.controller.read_page({0, 0});
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.data, data);
  EXPECT_EQ(b.data, data);
}

TEST(Controller, WorstCaseLatenciesMatchModels) {
  Fixture fx;
  fx.controller.set_correction_capability(65);
  EXPECT_NEAR(fx.controller.worst_case_read_latency().micros(), 75.0 + 159.4,
              1.5);
  const Seconds write = fx.controller.write_latency(100.0);
  EXPECT_GT(write.millis(), 1.0);
}

TEST(Controller, CodewordMustFitDevicePage) {
  // A device with a tiny spare area cannot host the t = 65 codeword.
  nand::DeviceConfig device_config = Fixture::small_device();
  device_config.array.geometry.spare_bytes_per_page = 64;  // 512 bits < 1040
  EXPECT_THROW(Fixture(ControllerConfig{}, device_config),
               std::invalid_argument);
}

// The per-page metadata contract on both planes: the bit-true plane
// (cells, codewords) and the metadata-only plane (no payload bits).
class ControllerPlanes : public ::testing::TestWithParam<bool> {
 protected:
  static nand::DeviceConfig device_config() {
    nand::DeviceConfig config = Fixture::small_device();
    config.data_plane = GetParam();
    return config;
  }
  BitVec payload(Fixture& fx, std::uint64_t seed) {
    return GetParam() ? fx.random_data(seed) : BitVec(0);
  }
};

TEST_P(ControllerPlanes, ReadingUnwrittenPageThrows) {
  Fixture fx(ControllerConfig{}, device_config());
  fx.controller.write_page({0, 0}, payload(fx, 10));
  EXPECT_THROW(fx.controller.read_page({0, 1}), std::invalid_argument);
  EXPECT_THROW(fx.controller.read_page({1, 0}), std::invalid_argument);
}

TEST_P(ControllerPlanes, ReadingAfterEraseThrows) {
  Fixture fx(ControllerConfig{}, device_config());
  fx.controller.write_page({1, 2}, payload(fx, 11));
  fx.controller.write_page({1, 3}, payload(fx, 12));
  fx.controller.write_page({0, 2}, payload(fx, 13));
  EXPECT_TRUE(fx.controller.read_page({1, 2}).ok);
  EXPECT_NEAR(fx.controller.erase_block(1).millis(), 2.5, 1e-9);
  EXPECT_THROW(fx.controller.read_page({1, 2}), std::invalid_argument);
  EXPECT_THROW(fx.controller.read_page({1, 3}), std::invalid_argument);
  // The other block keeps its page.
  EXPECT_TRUE(fx.controller.read_page({0, 2}).ok);
}

TEST_P(ControllerPlanes, OutOfRangeAddressThrows) {
  Fixture fx(ControllerConfig{}, device_config());
  // small_device(): 2 blocks x 4 pages.
  for (const nand::PageAddress addr :
       {nand::PageAddress{2, 0}, nand::PageAddress{0, 4},
        nand::PageAddress{7, 9}}) {
    EXPECT_THROW(fx.controller.read_page(addr), std::invalid_argument);
    EXPECT_THROW(fx.controller.write_page(addr, payload(fx, 14)),
                 std::invalid_argument);
  }
  EXPECT_THROW(fx.controller.erase_block(2), std::invalid_argument);
}

TEST_P(ControllerPlanes, RewriteAfterEraseDecodesAtTheNewCapability) {
  // `a` writes a page at t = 5, erases it and rewrites it at t = 20;
  // `b` runs the same sequence at t = 20 throughout. The erased page's
  // metadata must be gone, so both reads see a t = 20 page.
  Fixture a(ControllerConfig{}, device_config());
  Fixture b(ControllerConfig{}, device_config());
  const BitVec first = payload(a, 15);
  const BitVec second = payload(a, 16);
  a.controller.set_correction_capability(5);
  b.controller.set_correction_capability(20);
  a.controller.write_page({0, 1}, first);
  b.controller.write_page({0, 1}, first);
  a.controller.erase_block(0);
  b.controller.erase_block(0);
  a.controller.set_correction_capability(20);
  EXPECT_EQ(a.controller.write_page({0, 1}, second).t_used, 20u);
  b.controller.write_page({0, 1}, second);
  a.controller.set_correction_capability(3);
  b.controller.set_correction_capability(3);

  const ReadResult ra = a.controller.read_page({0, 1});
  const ReadResult rb = b.controller.read_page({0, 1});
  EXPECT_TRUE(ra.ok);
  EXPECT_EQ(ra.data, rb.data);
  if (GetParam()) {
    EXPECT_EQ(ra.data, second);
  }
  EXPECT_EQ(ra.corrected_bits, rb.corrected_bits);
  EXPECT_EQ(ra.latency.value(), rb.latency.value());
  EXPECT_EQ(ra.ecc_energy.value(), rb.ecc_energy.value());
  if (!GetParam()) {
    // The meta plane charges the worst-case decode at the page's t:
    // the t = 20 one, not the t = 5 one.
    const auto& model = a.controller.ecc().latency_model();
    EXPECT_EQ(ra.latency.value(),
              (a.device.timing().read_time() + model.decode_latency(20) +
               ra.io_latency)
                  .value());
  }
}

INSTANTIATE_TEST_SUITE_P(BothPlanes, ControllerPlanes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "BitTrue"
                                                         : "Meta");
                         });

}  // namespace
}  // namespace xlf::controller
