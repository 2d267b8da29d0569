// FTL layer: L2P mapping invariants, allocator/GC policy mechanics,
// and the end-to-end property the whole PR exists for — a skewed
// overwrite workload drives GC until per-block P/E counts diverge and
// the reliability manager assigns *different* t to hot and cold
// blocks of the same run, with zero data mismatches.
#include "src/ftl/ssd.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/ftl/allocator.hpp"
#include "src/ftl/mapping.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"

namespace xlf::ftl {
namespace {

AllocatorConfig alloc_config(std::uint32_t blocks, std::uint32_t pages,
                             const std::string& wear) {
  return AllocatorConfig{
      blocks, pages,
      policy::PolicyRegistry<policy::WearPolicy>::instance().make_shared(
          wear)};
}

std::shared_ptr<const policy::GcPolicy> gc_policy(const std::string& name) {
  return policy::PolicyRegistry<policy::GcPolicy>::instance().make_shared(
      name);
}

TEST(PageMap, OutOfPlaceWriteInvalidatesOldLocation) {
  PageMap map(2, 4, 4, 20);
  EXPECT_FALSE(map.mapped(7));
  EXPECT_FALSE(map.lookup(7).valid());

  const Ppa first{1, 2, 3};
  map.map(7, first);
  EXPECT_TRUE(map.mapped(7));
  EXPECT_EQ(map.lookup(7), first);
  EXPECT_TRUE(map.valid(first));
  EXPECT_EQ(map.lpa_at(first), 7u);
  EXPECT_EQ(map.valid_count(1, 2), 1u);

  const Ppa second{0, 1, 0};
  map.map(7, second);
  EXPECT_EQ(map.lookup(7), second);
  EXPECT_FALSE(map.valid(first));
  EXPECT_EQ(map.valid_count(1, 2), 0u);
  EXPECT_EQ(map.valid_count(0, 1), 1u);
}

TEST(PageMap, RejectsMappingOntoLivePage) {
  PageMap map(1, 4, 4, 8);
  map.map(0, Ppa{0, 0, 0});
  EXPECT_THROW(map.map(1, Ppa{0, 0, 0}), std::invalid_argument);
}

TEST(PageMap, UnmapInvalidatesPageAndDropsValidCount) {
  PageMap map(1, 4, 4, 8);
  const Ppa ppa{0, 2, 1};
  map.map(5, ppa);
  ASSERT_EQ(map.valid_count(0, 2), 1u);
  map.unmap(5);
  EXPECT_FALSE(map.mapped(5));
  EXPECT_FALSE(map.valid(ppa));
  EXPECT_EQ(map.valid_count(0, 2), 0u);
  // The freed slot can host another LPA without relocation, and a
  // re-trim of the now-unmapped LPA is a caller error.
  map.map(3, ppa);
  EXPECT_EQ(map.lpa_at(ppa), 3u);
  EXPECT_THROW(map.unmap(5), std::invalid_argument);
}

TEST(PageMap, EraseRequiresNoLiveDataAndClearsPages) {
  PageMap map(1, 4, 4, 8);
  map.map(0, Ppa{0, 1, 0});
  EXPECT_THROW(map.on_erase(0, 1), std::invalid_argument);
  map.map(0, Ppa{0, 2, 0});  // relocate; block 1 now dead
  map.on_erase(0, 1);
  EXPECT_EQ(map.valid_count(0, 1), 0u);
  // The freed page is mappable again.
  map.map(1, Ppa{0, 1, 0});
  EXPECT_EQ(map.valid_count(0, 1), 1u);
}

TEST(PageMap, RequiresOverProvisioning) {
  // logical == physical leaves GC no slack; the map refuses it.
  EXPECT_THROW(PageMap(1, 2, 4, 8), std::invalid_argument);
  EXPECT_NO_THROW(PageMap(1, 2, 4, 7));
}

TEST(DieAllocator, FrontiersFillBlocksSequentially) {
  const AllocatorConfig config = alloc_config(4, 2, "none");
  DieAllocator alloc(config);
  EXPECT_EQ(alloc.free_count(), 4u);

  const auto a = alloc.take_page(DieAllocator::Stream::kHost);
  const auto b = alloc.take_page(DieAllocator::Stream::kHost);
  // Same block, consecutive pages; block closes when full.
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, 0u);
  EXPECT_EQ(b.second, 1u);
  EXPECT_TRUE(alloc.is_closed(a.first));
  EXPECT_EQ(alloc.free_count(), 3u);

  // The GC stream opens its own block: hot/cold separation.
  const auto c = alloc.take_page(DieAllocator::Stream::kGc);
  EXPECT_NE(c.first, a.first);
}

TEST(DieAllocator, DynamicWearLevelingPrefersLowEraseCounts) {
  const AllocatorConfig config = alloc_config(4, 1, "dynamic");
  DieAllocator alloc(config);
  // One-page blocks close on every take; erasing each one raises its
  // count, so the allocator walks the whole pool before reusing any
  // block — the levelling behaviour.
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto slot = alloc.take_page(DieAllocator::Stream::kHost);
    EXPECT_EQ(slot.first, i);
    alloc.on_erase(slot.first);
  }
  // Second lap: counts are level again, back to block 0.
  EXPECT_EQ(alloc.take_page(DieAllocator::Stream::kHost).first, 0u);
  EXPECT_EQ(alloc.max_erase_count(), 1u);
}

TEST(DieAllocator, GreedyVictimHasFewestValidPages) {
  const AllocatorConfig config = alloc_config(5, 4, "none");
  DieAllocator alloc(config);
  // Close three blocks (0, 1, 2).
  for (int b = 0; b < 3; ++b) {
    for (int p = 0; p < 4; ++p) alloc.take_page(DieAllocator::Stream::kHost);
  }
  const auto valid = [](std::uint32_t block) -> std::uint32_t {
    switch (block) {
      case 0: return 3;
      case 1: return 1;
      case 2: return 2;
      default: return 4;
    }
  };
  const auto victim = alloc.pick_victim(*gc_policy("greedy"), valid, 10);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);
}

TEST(DieAllocator, CostBenefitPrefersColdOverSlightlyEmptier) {
  const AllocatorConfig config = alloc_config(5, 4, "none");
  DieAllocator alloc(config);
  for (int b = 0; b < 2; ++b) {
    for (int p = 0; p < 4; ++p) alloc.take_page(DieAllocator::Stream::kHost);
  }
  // Block 0: ancient, 2 valid. Block 1: just written, 1 valid.
  alloc.stamp_write(0, 1);
  alloc.stamp_write(1, 1000);
  const auto valid = [](std::uint32_t block) -> std::uint32_t {
    return block == 0 ? 2 : 1;
  };
  // Greedy takes the emptier block 1; cost-benefit weighs age and
  // takes the cold block 0.
  EXPECT_EQ(*alloc.pick_victim(*gc_policy("greedy"), valid, 1001), 1u);
  EXPECT_EQ(*alloc.pick_victim(*gc_policy("cost-benefit"), valid, 1001), 0u);
}

TEST(DieAllocator, SkipsFullyValidBlocks) {
  const AllocatorConfig config = alloc_config(4, 2, "none");
  DieAllocator alloc(config);
  for (int p = 0; p < 2; ++p) alloc.take_page(DieAllocator::Stream::kHost);
  const auto all_valid = [](std::uint32_t) -> std::uint32_t { return 2; };
  EXPECT_FALSE(
      alloc.pick_victim(*gc_policy("greedy"), all_valid, 1).has_value());
}

SsdConfig small_ssd() {
  SsdConfig config;
  config.topology = {2, 1};  // 2 channels x 1 die
  config.die.device.array.geometry.blocks = 8;
  config.die.device.array.geometry.pages_per_block = 4;
  // Start mid-life and compress the lifetime so a few hundred host
  // operations traverse enough of the paper's schedule for t to move.
  config.initial_pe_cycles = 1e4;
  config.ftl.pe_cycles_per_erase = 3e4;
  return config;
}

TEST(Ftl, OutOfPlaceOverwriteAndReadBack) {
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();

  BitVec first(bits);
  first.set(0, true);
  BitVec second(bits);
  second.set(1, true);

  const FtlOpResult w1 = ftl.write(0, first);
  EXPECT_TRUE(w1.ok);
  EXPECT_GE(w1.t_used, 3u);
  const FtlOpResult w2 = ftl.write(0, second);  // overwrite, no erase needed
  EXPECT_TRUE(w2.ok);
  EXPECT_EQ(ftl.stats().host_writes, 2u);
  EXPECT_EQ(ftl.stats().erases, 0u);

  const FtlOpResult r = ftl.read(0);
  EXPECT_FALSE(r.unmapped);
  EXPECT_FALSE(r.uncorrectable);
  EXPECT_TRUE(r.data == second);
}

TEST(Ftl, UnmappedReadServicedAsZeroPage) {
  Ssd ssd(small_ssd());
  const FtlOpResult r = ssd.ftl().read(3);
  EXPECT_TRUE(r.unmapped);
  EXPECT_EQ(r.data.popcount(), 0u);
  EXPECT_EQ(ssd.ftl().stats().unmapped_reads, 1u);
  EXPECT_EQ(r.cell_time.value(), 0.0);
}

TEST(Ftl, TrimDeallocatesWithoutTouchingFlash) {
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();
  BitVec payload(bits);
  payload.set(5, true);
  const FtlOpResult written = ftl.write(7, payload);
  const Ppa location = ftl.map().lookup(7);
  ASSERT_EQ(ftl.map().valid_count(location.die, location.block), 1u);

  const FtlOpResult trimmed = ftl.trim(7);
  EXPECT_FALSE(trimmed.unmapped);
  EXPECT_EQ(trimmed.die, written.die);
  // Metadata-only: no service time, no energy, no flash op.
  EXPECT_EQ(trimmed.cell_time.value(), 0.0);
  EXPECT_EQ(trimmed.io_time.value(), 0.0);
  EXPECT_EQ(trimmed.nand_energy.value(), 0.0);
  // The mapping is gone and the physical page reads invalid (one
  // fewer live page for GC to relocate).
  EXPECT_FALSE(ftl.mapped(7));
  EXPECT_EQ(ftl.map().valid_count(location.die, location.block), 0u);
  EXPECT_TRUE(ftl.read(7).unmapped);

  // Trim of a never-written (or already-trimmed) LPA is a no-op.
  const FtlOpResult again = ftl.trim(7);
  EXPECT_TRUE(again.unmapped);
  EXPECT_EQ(ftl.stats().host_trims, 2u);
  EXPECT_EQ(ftl.stats().trimmed_pages, 1u);
}

TEST(Ftl, TrimmedBlocksMakeGcMeasurablyCheaper) {
  // Two identical drives overwrite the same hot range until GC must
  // run; on one of them the cold remainder was trimmed first. The
  // trimmed drive's victims carry no live cold data, so the same
  // host-write stream costs fewer relocations (lower WA).
  const auto relocations_with = [](bool trim_cold) {
    Ssd ssd(small_ssd());
    Ftl& ftl = ssd.ftl();
    const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();
    const BitVec payload(bits);
    for (Lpa lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
      ftl.write(lpa, payload);
    }
    if (trim_cold) {
      for (Lpa lpa = 4; lpa < ftl.logical_pages(); ++lpa) ftl.trim(lpa);
    }
    const std::uint64_t before = ftl.stats().gc_relocations;
    for (int pass = 0; pass < 12; ++pass) {
      for (Lpa lpa = 0; lpa < 4; ++lpa) ftl.write(lpa, payload);
    }
    return ftl.stats().gc_relocations - before;
  };
  const std::uint64_t untrimmed = relocations_with(false);
  const std::uint64_t trimmed = relocations_with(true);
  EXPECT_LT(trimmed, untrimmed);
}

TEST(Ftl, FlushIsTheDurabilityBarrierForTrimsAndCounters) {
  // Flush stopped being a no-op: it persists the buffered trim
  // tombstones into the durable journal and checkpoints the sequence/
  // clock counters, still at zero modeled device time (data pages are
  // write-through; only the trim metadata needs the barrier).
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  const BitVec payload(ssd.die_geometry().data_bits_per_page());
  ftl.write(7, payload);
  ftl.trim(7);
  // The tombstone buffers in DRAM until a flush persists it.
  EXPECT_EQ(ftl.pending_trims(), 1u);
  EXPECT_TRUE(ssd.durable().tombstones.empty());

  const FtlOpResult flushed = ftl.flush();
  EXPECT_TRUE(flushed.ok);
  EXPECT_EQ(flushed.cell_time.value(), 0.0);
  EXPECT_EQ(flushed.io_time.value(), 0.0);
  EXPECT_EQ(ftl.pending_trims(), 0u);
  ASSERT_EQ(ssd.durable().tombstones.size(), 1u);
  EXPECT_EQ(ssd.durable().tombstones[0].lpa, 7u);
  EXPECT_EQ(ssd.durable().checkpoint_seq, ftl.sequence());
  EXPECT_EQ(ssd.durable().checkpoint_clock, ftl.logical_clock());
  EXPECT_EQ(ssd.durable().flush_epochs, 1u);
  EXPECT_EQ(ftl.stats().host_flushes, 1u);
  EXPECT_EQ(ftl.stats().flushed_tombstones, 1u);

  // A second flush is a pure checkpoint: no new tombstones.
  ftl.flush();
  EXPECT_EQ(ssd.durable().tombstones.size(), 1u);
  EXPECT_EQ(ssd.durable().flush_epochs, 2u);
}

TEST(Ftl, LpaDieAffinityStripesAcrossDies) {
  Ssd ssd(small_ssd());
  Ftl& ftl = ssd.ftl();
  ASSERT_EQ(ftl.dies(), 2u);
  const std::uint32_t bits = ssd.die_geometry().data_bits_per_page();
  const BitVec payload(bits);
  EXPECT_EQ(ftl.write(0, payload).die, 0u);
  EXPECT_EQ(ftl.write(1, payload).die, 1u);
  EXPECT_EQ(ftl.write(2, payload).die, 0u);
}

// The acceptance property of the whole refactor: skewed overwrites
// make GC churn hot blocks far past cold ones, the reliability
// manager picks per-block t from each block's own P/E count — so one
// run carries different t on different blocks — and every read still
// verifies bit-true.
TEST(Ftl, SkewedOverwritesDivergeWearAndPerBlockT) {
  Ssd ssd(small_ssd());
  sim::SsdSimConfig sim_config;
  sim_config.queue_depth = 4;
  sim_config.verify_data = true;
  sim::SsdSimulator simulator(ssd, sim_config);
  simulator.prepopulate();

  const sim::HotColdWorkload workload(0.25, 0.85, 0.3);
  Rng rng(2026);
  const auto requests = workload.generate(ssd.logical_pages(), 220, rng);
  const sim::SsdSimStats stats = simulator.run(requests);

  // GC actually ran.
  EXPECT_GT(stats.gc_relocations, 0u);
  EXPECT_GT(stats.erases, 0u);
  EXPECT_GT(stats.write_amplification, 1.0);

  // Wear diverged across blocks...
  EXPECT_GT(stats.wear_max, 1.5 * stats.wear_min);
  // ...and the reliability manager assigned different t to hot vs
  // cold blocks within this one run.
  EXPECT_GT(stats.max_t_used, stats.min_t_used);

  // Per-block capability spread is visible block by block too.
  std::set<unsigned> block_ts;
  for (std::uint32_t d = 0; d < ssd.ftl().dies(); ++d) {
    for (std::uint32_t b = 0; b < ssd.die_geometry().blocks; ++b) {
      if (ssd.ftl().block_t(d, b) > 0) block_ts.insert(ssd.ftl().block_t(d, b));
    }
  }
  EXPECT_GE(block_ts.size(), 2u);

  // Bit-true through all of it: every mapped read verified.
  EXPECT_EQ(stats.data_mismatches, 0u);
  EXPECT_EQ(stats.uncorrectable, 0u);
}

TEST(Ftl, StaticWearLevelingSwapsColdBlocks) {
  SsdConfig config = small_ssd();
  config.topology = {1, 1};
  config.ftl.wear_policy = "static";
  config.ftl.static_wl_spread = 3;
  Ssd ssd(config);
  sim::SsdSimulator simulator(ssd);
  simulator.prepopulate();

  // Heavy skew: nearly all writes hit 20% of the space, pinning the
  // cold majority in place — exactly what static WL exists to break.
  const sim::HotColdWorkload workload(0.2, 0.97, 0.0);
  Rng rng(7);
  const auto requests = workload.generate(ssd.logical_pages(), 200, rng);
  const sim::SsdSimStats stats = simulator.run(requests);
  EXPECT_GT(stats.wl_swaps, 0u);
  EXPECT_EQ(stats.data_mismatches, 0u);
}

TEST(Ssd, DiesShareOneTraceCacheOnBothPlanes) {
  for (const bool data_plane : {true, false}) {
    SsdConfig config = small_ssd();
    config.die.device.data_plane = data_plane;
    Ssd ssd(config);
    ASSERT_EQ(ssd.dies(), 2u);
    const nand::NandTiming& die0 = ssd.die(0).device().timing();
    const nand::NandTiming& die1 = ssd.die(1).device().timing();
    EXPECT_EQ(die0.trace_cache(), die1.trace_cache());
    EXPECT_EQ(&die0.sample_trace(nand::ProgramAlgorithm::kIsppSv, 2e4),
              &die1.sample_trace(nand::ProgramAlgorithm::kIsppSv, 2e4))
        << "data_plane " << data_plane;
    EXPECT_EQ(&die1.sample_trace(nand::ProgramAlgorithm::kIsppDv, 7.0,
                                 nand::Level::kL3),
              &die0.sample_trace(nand::ProgramAlgorithm::kIsppDv, 7.0,
                                 nand::Level::kL3))
        << "data_plane " << data_plane;
  }
  // Two Ssds never share: each characterises its own keys.
  Ssd first(small_ssd());
  Ssd second(small_ssd());
  EXPECT_NE(first.die(0).device().timing().trace_cache(),
            second.die(0).device().timing().trace_cache());
}

TEST(Ssd, BlockMetricsTrackPerBlockWear) {
  Ssd ssd(small_ssd());
  // Age one block far past another and read both through the
  // cross-layer framework.
  ssd.die(0).device().set_wear(0, 1e3);
  ssd.die(0).device().set_wear(1, 5e5);
  const core::Metrics young = ssd.block_metrics(0, 0);
  const core::Metrics old = ssd.block_metrics(0, 1);
  EXPECT_LT(young.rber, old.rber);
  EXPECT_LE(young.t, old.t);
  EXPECT_LT(young.pe_cycles, old.pe_cycles);
}

TEST(Ftl, RunsAreDeterministic) {
  const auto run_once = [] {
    Ssd ssd(small_ssd());
    sim::SsdSimulator simulator(ssd);
    simulator.prepopulate();
    const sim::HotColdWorkload workload(0.25, 0.85, 0.3);
    Rng rng(99);
    const auto requests = workload.generate(ssd.logical_pages(), 80, rng);
    return simulator.run(requests);
  };
  const sim::SsdSimStats a = run_once();
  const sim::SsdSimStats b = run_once();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.gc_relocations, b.gc_relocations);
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.write_amplification, b.write_amplification);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.read_latency.mean(), b.read_latency.mean());
  EXPECT_EQ(a.write_latency.mean(), b.write_latency.mean());
  EXPECT_EQ(a.wear_max, b.wear_max);
  EXPECT_EQ(a.min_t_used, b.min_t_used);
  EXPECT_EQ(a.max_t_used, b.max_t_used);
}

}  // namespace
}  // namespace xlf::ftl
