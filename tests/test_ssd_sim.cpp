// Open-loop SSD simulator: completion accounting, queue-depth and
// multi-die scaling, utilisation bookkeeping, the arrival clock
// (golden timelines), and dispatcher timing arithmetic.
#include "src/sim/ssd_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/controller/dispatch.hpp"
#include "src/sim/host_workload.hpp"

namespace xlf::sim {
namespace {

using namespace xlf::literals;

ftl::SsdConfig ssd_config(std::uint32_t channels, std::uint32_t dies) {
  ftl::SsdConfig config;
  config.topology = {channels, dies};
  config.die.device.array.geometry.blocks = 8;
  config.die.device.array.geometry.pages_per_block = 4;
  return config;
}

TEST(DieDispatcher, WritesShareChannelButOverlapOnDies) {
  // 1 channel x 2 dies: the bursts serialise on the bus, the
  // programs overlap.
  controller::DieDispatcher dispatcher({1, 2});
  const Seconds io = 0.001_s, cell = 0.010_s;
  const auto a = dispatcher.submit_write(0, Seconds{0.0}, io, cell);
  const auto b = dispatcher.submit_write(1, Seconds{0.0}, io, cell);
  EXPECT_DOUBLE_EQ(a.completion.value(), 0.011);
  // Die 1's burst waits for die 0's burst only, not its program.
  EXPECT_DOUBLE_EQ(b.start.value(), 0.001);
  EXPECT_DOUBLE_EQ(b.completion.value(), 0.012);
  EXPECT_DOUBLE_EQ(dispatcher.channel_busy(0).value(), 0.002);
}

TEST(DieDispatcher, SameDieSerialises) {
  controller::DieDispatcher dispatcher({1, 1});
  const Seconds io = 0.001_s, cell = 0.010_s;
  const auto a = dispatcher.submit_write(0, Seconds{0.0}, io, cell);
  const auto b = dispatcher.submit_write(0, Seconds{0.0}, io, cell);
  EXPECT_DOUBLE_EQ(b.start.value(), a.completion.value());
  EXPECT_DOUBLE_EQ(b.completion.value(), 0.022);
}

TEST(DieDispatcher, ReadSensesBeforeBurstingOut) {
  controller::DieDispatcher dispatcher({1, 2});
  // Die 0 reads (sense 75us, burst 25us); die 1's read senses in
  // parallel and its burst queues behind die 0's.
  const auto a = dispatcher.submit_read(0, Seconds{0.0}, 25.0_us, 75.0_us);
  const auto b = dispatcher.submit_read(1, Seconds{0.0}, 25.0_us, 75.0_us);
  EXPECT_DOUBLE_EQ(a.completion.micros(), 100.0);
  EXPECT_DOUBLE_EQ(b.completion.micros(), 125.0);
}

TEST(DieDispatcher, DiesStripeRoundRobinAcrossChannels) {
  controller::DieDispatcher dispatcher({2, 2});
  ASSERT_EQ(dispatcher.dies(), 4u);
  EXPECT_EQ(dispatcher.channel_of(0), 0u);
  EXPECT_EQ(dispatcher.channel_of(1), 1u);
  EXPECT_EQ(dispatcher.channel_of(2), 0u);
  EXPECT_EQ(dispatcher.channel_of(3), 1u);
}

host::Command command(host::CmdType type, ftl::Lpa lba,
                      std::uint16_t queue = 0) {
  host::Command cmd;
  cmd.type = type;
  cmd.lba = lba;
  cmd.queue = queue;
  return cmd;
}

host::Command command_after(host::CmdType type, ftl::Lpa lba,
                            std::uint16_t queue, double gap,
                            std::uint32_t length = 1) {
  host::Command cmd = command(type, lba, queue);
  cmd.tenant = queue;
  cmd.gap = Seconds{gap};
  cmd.length = length;
  return cmd;
}

TEST(SsdSimulator, AccountsEveryRequest) {
  ftl::Ssd ssd(ssd_config(2, 1));
  SsdSimulator simulator(ssd);
  // Uniform overwrite traffic: the whole LPA space is the hot set.
  const MultiTenantWorkload workload({TenantSpec{1.0, 1.0, 0.25, 0.0}});
  Rng rng(11);
  const auto commands = workload.generate(ssd.logical_pages(), 60, rng);
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.reads + stats.writes + stats.unmapped_reads,
            commands.size());
  EXPECT_EQ(stats.unmapped_reads, 0u);  // reads only target written LPAs
  EXPECT_GT(stats.elapsed.value(), 0.0);
  EXPECT_EQ(stats.die_utilisation.size(), 2u);
  EXPECT_EQ(stats.data_mismatches, 0u);
  // The single queue's view agrees with the globals.
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  EXPECT_EQ(stats.queue_stats[0].reads + stats.queue_stats[0].writes, 60u);
  EXPECT_EQ(stats.queue_stats[0].reads, stats.reads);
  EXPECT_DOUBLE_EQ(stats.queue_stats[0].read_latency.mean(),
                   stats.read_latency.mean());
  EXPECT_DOUBLE_EQ(stats.queue_stats[0].write_latency.mean(),
                   stats.write_latency.mean());
}

TEST(SsdSimulator, PrepopulateMapsEveryLogicalPage) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  simulator.prepopulate();
  for (ftl::Lpa lpa = 0; lpa < ssd.logical_pages(); ++lpa) {
    EXPECT_TRUE(ssd.ftl().mapped(lpa));
  }
}

TEST(SsdSimulator, MoreDiesAndDepthFinishSooner) {
  // Identical sequential write load; the 2-die SSD at QD 4 overlaps
  // programs that the 1-die QD-1 SSD must serialise.
  const auto run = [](std::uint32_t channels, std::size_t qd) {
    ftl::Ssd ssd(ssd_config(channels, 1));
    SsdSimConfig config;
    config.queue_depth = qd;
    SsdSimulator simulator(ssd, config);
    // Sequential overwrite: 40 writes cycling through 12 LPAs (a
    // fixed count, not capacity-scaled, for comparability).
    std::vector<host::Command> commands;
    for (ftl::Lpa i = 0; i < 40; ++i) {
      commands.push_back(command(host::CmdType::kWrite, i % 12));
    }
    return simulator.run(commands);
  };
  const SsdSimStats serial = run(1, 1);
  const SsdSimStats overlapped = run(2, 4);
  EXPECT_LT(overlapped.elapsed.value(), serial.elapsed.value());
  EXPECT_LT(overlapped.write_latency.mean(), serial.write_latency.mean());
  // The single die is saturated under back-to-back arrivals.
  EXPECT_NEAR(serial.die_util_max(), 1.0, 1e-9);
}

TEST(SsdSimulator, UnmappedReadsCompleteInstantly) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  const SsdSimStats stats = simulator.run(
      {command(host::CmdType::kRead, 0), command(host::CmdType::kRead, 1)});
  EXPECT_EQ(stats.unmapped_reads, 2u);
  EXPECT_EQ(stats.reads, 0u);
  EXPECT_DOUBLE_EQ(stats.elapsed.value(), 0.0);
}

// Regression (satellite): the utilisation summaries of an empty
// vector must read as NaN (JSON null), not a fabricated 0.0 — and
// must not touch the vector at all (the old mean() divided by zero
// size on some refactors of this code).
TEST(SsdSimStats, EmptyUtilisationSummariesAreNaN) {
  const SsdSimStats stats;
  ASSERT_TRUE(stats.die_utilisation.empty());
  EXPECT_TRUE(std::isnan(stats.die_util_min()));
  EXPECT_TRUE(std::isnan(stats.die_util_max()));
  EXPECT_TRUE(std::isnan(stats.die_util_mean()));
}

TEST(SsdSimulator, TrimUnmapsAndReadsComeBackUnmapped) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  const std::vector<host::Command> commands{
      command(host::CmdType::kWrite, 3),
      command(host::CmdType::kTrim, 3),
      command(host::CmdType::kTrim, 4),  // never written: no-op trim
      command(host::CmdType::kRead, 3),
  };
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.trims, 2u);
  EXPECT_EQ(stats.trimmed_pages, 1u);
  // The trimmed LPA reads as deallocated (no flash access, no
  // mismatch against the erased oracle entry).
  EXPECT_EQ(stats.unmapped_reads, 1u);
  EXPECT_EQ(stats.reads, 0u);
  EXPECT_EQ(stats.data_mismatches, 0u);
  EXPECT_FALSE(ssd.ftl().mapped(3));
}

TEST(SsdSimulator, MultiPageExtentCompletesWithItsLastPage) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.queue_depth = 4;
  SsdSimulator simulator(ssd, config);
  host::Command extent = command(host::CmdType::kWrite, 0);
  extent.length = 4;
  const SsdSimStats stats = simulator.run({extent});
  // Four page programs, one command: the single latency sample is the
  // whole extent's service time.
  EXPECT_EQ(stats.writes, 4u);
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  EXPECT_EQ(stats.queue_stats[0].writes, 1u);
  EXPECT_EQ(stats.write_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.write_latency.max(), stats.elapsed.value());
}

TEST(SsdSimulator, FlushIsAPerQueueBarrier) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.queue_depth = 8;  // depth never binds; the barrier must
  SsdSimulator simulator(ssd, config);
  const std::vector<host::Command> commands{
      command(host::CmdType::kWrite, 0),
      command(host::CmdType::kWrite, 1),
      command(host::CmdType::kFlush, 0),
      command(host::CmdType::kWrite, 2),
  };
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.flushes, 1u);
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  EXPECT_EQ(stats.queue_stats[0].flushes, 1u);

  // All four commands arrive at t=0. Without the barrier, write 2
  // would issue immediately (depth 8) and overlap the first two; the
  // flush holds it until both have completed, so its latency includes
  // the full drain. On one die writes serialise: the last write's
  // completion is the whole run.
  EXPECT_EQ(stats.writes, 3u);
  const double last_write = stats.write_latency.max();
  EXPECT_DOUBLE_EQ(last_write, stats.elapsed.value());
  // The flush completed exactly when the pre-flush writes drained,
  // i.e. strictly before the run's end (write 2 still had to run).
  EXPECT_GT(stats.elapsed.value(), 0.0);
}

TEST(SsdSimulator, QueuesKeepIndependentStatsThatSumToGlobal) {
  ftl::Ssd ssd(ssd_config(2, 1));
  SsdSimConfig config;
  config.queue_depth = 4;
  config.host.queues = 3;
  SsdSimulator simulator(ssd, config);
  std::vector<host::Command> commands;
  for (std::uint16_t q = 0; q < 3; ++q) {
    for (ftl::Lpa lpa = 0; lpa < 4; ++lpa) {
      commands.push_back(
          command(host::CmdType::kWrite, lpa * 3 + q, q));
    }
  }
  const SsdSimStats stats = simulator.run(commands);
  ASSERT_EQ(stats.queue_stats.size(), 3u);
  std::uint64_t per_queue_writes = 0;
  for (const host::QueueStats& queue : stats.queue_stats) {
    EXPECT_EQ(queue.writes, 4u);
    per_queue_writes += queue.writes;
  }
  EXPECT_EQ(per_queue_writes, stats.writes);
  EXPECT_EQ(stats.data_mismatches, 0u);
}

// Golden timelines of the open-loop arrival clock: hand-built streams
// with nonzero gaps, where arrivals land between, before and exactly
// at completions. The trims and unmapped reads complete at their own
// issue instant, and the gap-0 command after each arrives at that
// same instant: arrivals must go first. Counts, elapsed time and the
// per-queue latency means are pinned bit for bit (hex floats).
struct QueueGolden {
  std::uint64_t reads, writes, trims, flushes;
  double read_mean, write_mean;
};

void expect_queue(const host::QueueStats& stats, const QueueGolden& golden,
                  std::size_t q) {
  EXPECT_EQ(stats.reads, golden.reads) << "queue " << q;
  EXPECT_EQ(stats.writes, golden.writes) << "queue " << q;
  EXPECT_EQ(stats.trims, golden.trims) << "queue " << q;
  EXPECT_EQ(stats.flushes, golden.flushes) << "queue " << q;
  EXPECT_EQ(stats.read_latency.mean(), golden.read_mean) << "queue " << q;
  EXPECT_EQ(stats.write_latency.mean(), golden.write_mean) << "queue " << q;
}

TEST(SsdSimulator, OneQueueArrivalClockMatchesGoldenTimeline) {
  using host::CmdType;
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimConfig config;
  config.queue_depth = 2;
  SsdSimulator simulator(ssd, config);
  const std::vector<host::Command> commands{
      command_after(CmdType::kWrite, 0, 0, 0.0),
      command_after(CmdType::kWrite, 1, 0, 1e-4),
      command_after(CmdType::kRead, 0, 0, 5e-4),
      command_after(CmdType::kTrim, 1, 0, 3e-3),
      command_after(CmdType::kWrite, 2, 0, 0.0),   // at the trim's completion
      command_after(CmdType::kRead, 7, 0, 2e-3),   // unmapped
      command_after(CmdType::kWrite, 3, 0, 0.0),   // at its completion
      command_after(CmdType::kFlush, 0, 0, 1e-5),
      command_after(CmdType::kWrite, 4, 0, 0.0),   // held by the flush
      command_after(CmdType::kRead, 2, 0, 7e-4),
      command_after(CmdType::kWrite, 0, 0, 4e-3, 2),
  };
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.writes, 7u);
  EXPECT_EQ(stats.unmapped_reads, 1u);
  EXPECT_EQ(stats.trims, 1u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.elapsed.value(), 0x1.b99bdda883deep-7);
  EXPECT_EQ(stats.read_latency.mean(), 0x1.ce09b9fff5139p-10);
  EXPECT_EQ(stats.write_latency.mean(), 0x1.34e8c99ba3428p-9);
  ASSERT_EQ(stats.queue_stats.size(), 1u);
  expect_queue(stats.queue_stats[0],
               {3, 6, 1, 1, 0x1.ce09b9fff5139p-10, 0x1.34e8c99ba3428p-9}, 0);
}

TEST(SsdSimulator, TwoQueueArrivalClockMatchesGoldenTimeline) {
  // Depth 1 makes the tie order visible: when the queue-0 trim
  // completes, the two gap-0 arrivals (queue 0, then queue 1) must
  // both be submitted before the freed slot is arbitrated.
  using host::CmdType;
  ftl::Ssd ssd(ssd_config(2, 1));
  SsdSimConfig config;
  config.queue_depth = 1;
  config.host.queues = 2;
  SsdSimulator simulator(ssd, config);
  const std::vector<host::Command> commands{
      command_after(CmdType::kWrite, 0, 0, 0.0),
      command_after(CmdType::kWrite, 1, 1, 2e-4),
      command_after(CmdType::kTrim, 0, 0, 5e-3),
      command_after(CmdType::kWrite, 2, 0, 0.0),
      command_after(CmdType::kWrite, 3, 1, 0.0),
      command_after(CmdType::kRead, 9, 1, 3e-3),   // unmapped
      command_after(CmdType::kRead, 1, 0, 0.0),
      command_after(CmdType::kWrite, 4, 1, 0.0),
      command_after(CmdType::kFlush, 0, 1, 1e-4),
      command_after(CmdType::kWrite, 5, 1, 0.0),   // held by the flush
      command_after(CmdType::kWrite, 6, 0, 0.0),
      command_after(CmdType::kRead, 2, 0, 6e-3),
      command_after(CmdType::kRead, 3, 1, 1e-6),
  };
  const SsdSimStats stats = simulator.run(commands);
  EXPECT_EQ(stats.reads, 3u);
  EXPECT_EQ(stats.writes, 7u);
  EXPECT_EQ(stats.unmapped_reads, 1u);
  EXPECT_EQ(stats.trims, 1u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.elapsed.value(), 0x1.dd3b2f001db21p-7);
  EXPECT_EQ(stats.read_latency.mean(), 0x1.c32c6ca8d90dp-13);
  EXPECT_EQ(stats.write_latency.mean(), 0x1.6d149d3fd3c95p-9);
  ASSERT_EQ(stats.queue_stats.size(), 2u);
  expect_queue(stats.queue_stats[0],
               {2, 3, 1, 0, 0x1.c3b2a465debcp-13, 0x1.6296a0a1d05dp-9}, 0);
  expect_queue(stats.queue_stats[1],
               {2, 4, 0, 1, 0x1.c2a634ebd35ep-13, 0x1.74f31ab6565a8p-9}, 1);
}

TEST(SsdSimulator, NegativeGapIsRejectedBeforeAnyCommandRuns) {
  ftl::Ssd ssd(ssd_config(1, 1));
  SsdSimulator simulator(ssd);
  const std::vector<host::Command> commands{
      command_after(host::CmdType::kWrite, 0, 0, 1e-3),
      command_after(host::CmdType::kWrite, 1, 0, -1e-4),
  };
  EXPECT_THROW(simulator.run(commands), std::invalid_argument);
  EXPECT_FALSE(ssd.ftl().mapped(0));
}

}  // namespace
}  // namespace xlf::sim
