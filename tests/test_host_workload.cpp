// Host workload generator: golden streams (a digest of every field,
// so a change to the default sweep's command stream fails here),
// fixed-seed determinism, empirical hot/cold skew, the even split
// across tenants, and trim emission.
#include "src/sim/host_workload.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

namespace xlf::sim {
namespace {

bool same_command(const host::Command& a, const host::Command& b) {
  return a.type == b.type && a.lba == b.lba && a.length == b.length &&
         a.queue == b.queue && a.tenant == b.tenant &&
         a.gap.value() == b.gap.value();
}

// FNV-1a over every field of every command, little-endian, with the
// gap as its IEEE-754 bit pattern.
std::uint64_t stream_digest(const std::vector<host::Command>& commands) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto mix = [&hash](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
  };
  for (const host::Command& command : commands) {
    const double gap = command.gap.value();
    std::uint64_t gap_bits = 0;
    std::memcpy(&gap_bits, &gap, sizeof gap_bits);
    mix(static_cast<std::uint64_t>(command.type), 1);
    mix(command.lba, 4);
    mix(command.length, 4);
    mix(command.queue, 2);
    mix(command.tenant, 2);
    mix(gap_bits, 8);
  }
  return hash;
}

host::Command expected(host::CmdType type, ftl::Lpa lba, std::uint16_t queue) {
  host::Command command;
  command.type = type;
  command.lba = lba;
  command.queue = queue;
  command.tenant = queue;
  return command;
}

struct GoldenStream {
  const char* name;
  std::size_t tenants;
  double trim_fraction;
  std::uint64_t digest;
  // The caller's Rng right after generate(): pins how many draws (and
  // forks) the generator took from it.
  std::uint64_t rng_after;
  std::vector<host::Command> head;
};

// Golden streams of the default sweep tenant (TenantSpec defaults) at
// the sweep's default seed, 64 logical pages, 1000 commands. The
// one-tenant shape is the single-queue sweep's stream; the four-tenant
// trim shape covers the forked per-tenant streams. A failure means the
// sweep's output bytes move too.
TEST(MultiTenantWorkload, GeneratorMatchesGoldenStreams) {
  using host::CmdType;
  const std::vector<GoldenStream> goldens{
      {"1 tenant, trim 0", 1, 0.0, 0x6579d373f67f2204ull,
       0xc35f0b06439a1c16ull,
       {expected(CmdType::kWrite, 40, 0), expected(CmdType::kRead, 40, 0),
        expected(CmdType::kWrite, 15, 0), expected(CmdType::kWrite, 6, 0),
        expected(CmdType::kRead, 6, 0), expected(CmdType::kWrite, 17, 0),
        expected(CmdType::kRead, 6, 0), expected(CmdType::kRead, 6, 0)}},
      {"4 tenants, trim 0.1", 4, 0.1, 0x044e1a87540a19e8ull,
       0x64b31785ba47ec33ull,
       {expected(CmdType::kWrite, 12, 0), expected(CmdType::kWrite, 48, 0),
        expected(CmdType::kWrite, 1, 0), expected(CmdType::kWrite, 6, 0),
        expected(CmdType::kWrite, 6, 0), expected(CmdType::kWrite, 10, 0),
        expected(CmdType::kRead, 48, 0), expected(CmdType::kTrim, 1, 0)}},
  };
  for (const GoldenStream& golden : goldens) {
    TenantSpec tenant;
    tenant.trim_fraction = golden.trim_fraction;
    const MultiTenantWorkload workload(
        std::vector<TenantSpec>(golden.tenants, tenant));
    Rng rng(0x55DF71);
    const auto commands = workload.generate(64, 1000, rng);
    ASSERT_EQ(commands.size(), 1000u) << golden.name;
    for (std::size_t i = 0; i < golden.head.size(); ++i) {
      EXPECT_TRUE(same_command(commands[i], golden.head[i]))
          << golden.name << ": command " << i << " is "
          << host::to_string(commands[i].type) << " lba "
          << commands[i].lba << " queue " << commands[i].queue;
    }
    EXPECT_EQ(stream_digest(commands), golden.digest)
        << golden.name << ": new digest 0x" << std::hex
        << stream_digest(commands);
    EXPECT_EQ(rng.next(), golden.rng_after) << golden.name;
  }
}

TEST(MultiTenantWorkload, FixedSeedIsByteIdentical) {
  const MultiTenantWorkload workload(
      std::vector<TenantSpec>(3, TenantSpec{0.25, 0.85, 0.3, 0.1}));
  Rng a(777), b(777);
  const auto first = workload.generate(64, 300, a);
  const auto second = workload.generate(64, 300, b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(same_command(first[i], second[i]))
        << "stream diverges at command " << i;
  }
}

TEST(MultiTenantWorkload, HotColdSkewMatchesConfiguredFractions) {
  // 20% of the LPA space is hot and takes 80% of writes; with 10k
  // requests the empirical shares sit within a few percent.
  const TenantSpec tenant{0.2, 0.8, 0.3, 0.0};
  const MultiTenantWorkload workload(std::vector<TenantSpec>{tenant});
  const std::uint32_t logical_pages = 1000;
  Rng rng(42);
  const auto commands = workload.generate(logical_pages, 10000, rng);

  const std::uint32_t hot_pages =
      static_cast<std::uint32_t>(logical_pages * tenant.hot_fraction);
  std::size_t writes = 0, hot_writes = 0, reads = 0;
  for (const host::Command& command : commands) {
    // Hot and cold targets alike stay inside the LPA space.
    EXPECT_LT(command.lba, logical_pages);
    if (command.type == host::CmdType::kRead) {
      ++reads;
      continue;
    }
    ++writes;
    if (command.lba < hot_pages) ++hot_writes;
  }
  const double observed_hot =
      static_cast<double>(hot_writes) / static_cast<double>(writes);
  EXPECT_NEAR(observed_hot, tenant.hot_write_fraction, 0.03);
  const double observed_reads =
      static_cast<double>(reads) / static_cast<double>(commands.size());
  EXPECT_NEAR(observed_reads, tenant.read_fraction, 0.03);
}

TEST(MultiTenantWorkload, SplitsRequestsAcrossQueuesInTenantOrder) {
  const MultiTenantWorkload workload(
      std::vector<TenantSpec>(4, TenantSpec{}));
  Rng rng(9);
  const auto commands = workload.generate(64, 203, rng);
  ASSERT_EQ(commands.size(), 203u);
  std::vector<std::size_t> per_queue(4, 0);
  std::uint16_t previous_queue = 0;
  for (const host::Command& command : commands) {
    ASSERT_LT(command.queue, 4u);
    EXPECT_EQ(command.tenant, command.queue);
    // Every arrival is at time 0, so the tenants' streams follow one
    // another in tenant order.
    EXPECT_EQ(command.gap.value(), 0.0);
    EXPECT_GE(command.queue, previous_queue);
    previous_queue = command.queue;
    ++per_queue[command.queue];
  }
  // 203 = 4*50 + 3: earlier tenants absorb the remainder.
  EXPECT_EQ(per_queue, (std::vector<std::size_t>{51, 51, 51, 50}));
}

TEST(MultiTenantWorkload, TrimFractionEmitsTrimsOfWrittenLpasOnly) {
  const TenantSpec tenant{0.25, 0.85, 0.2, 0.3};
  const MultiTenantWorkload workload(std::vector<TenantSpec>{tenant});
  Rng rng(31);
  const auto commands = workload.generate(64, 4000, rng);
  std::set<ftl::Lpa> ever_written;
  std::size_t trims = 0, non_reads = 0;
  for (const host::Command& command : commands) {
    switch (command.type) {
      case host::CmdType::kWrite:
        ever_written.insert(command.lba);
        ++non_reads;
        break;
      case host::CmdType::kTrim:
        // Trims only target LPAs the stream wrote earlier. (The
        // written list carries overwrite duplicates — deliberately,
        // so hot LPAs attract proportionally more reads — so an LPA
        // can occasionally be trimmed twice without a rewrite in
        // between; the FTL services that as a no-op.)
        EXPECT_EQ(ever_written.count(command.lba), 1u)
            << "trim of a never-written LPA";
        ++trims;
        ++non_reads;
        break;
      case host::CmdType::kRead:
        break;
      case host::CmdType::kFlush:
        FAIL() << "generator never emits flushes";
    }
  }
  // ~30% of non-read requests trim (the configured conditional).
  const double observed =
      static_cast<double>(trims) / static_cast<double>(non_reads);
  EXPECT_NEAR(observed, tenant.trim_fraction, 0.03);
}

}  // namespace
}  // namespace xlf::sim
