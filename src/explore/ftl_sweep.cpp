#include "src/explore/ftl_sweep.hpp"

#include <algorithm>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "src/ftl/fault.hpp"
#include "src/sim/die_shard.hpp"
#include "src/sim/host_workload.hpp"
#include "src/util/expect.hpp"
#include "src/util/stopwatch.hpp"

namespace xlf::explore {
namespace {

std::runtime_error stream_too_large(std::size_t requests) {
  std::ostringstream msg;
  msg << "--ftl-requests / workload.requests = " << requests
      << ": a stream of that many host commands does not fit in memory";
  return std::runtime_error(msg.str());
}

// A combo's command stream is materialised whole, so the request count
// is bounded by memory. A count beyond it names the input that set it
// instead of passing the allocator's bare message up.
std::vector<host::Command> generate_commands(
    const sim::MultiTenantWorkload& workload, std::uint32_t logical_pages,
    std::size_t requests, Rng& stream) {
  try {
    return workload.generate(logical_pages, requests, stream);
  } catch (const std::length_error&) {
    throw stream_too_large(requests);
  } catch (const std::bad_alloc&) {
    throw stream_too_large(requests);
  }
}

}  // namespace

FtlSweepResult ftl_sweep(const FtlSweepSpec& spec, ThreadPool& pool) {
  XLF_EXPECT(!spec.topologies.empty());
  XLF_EXPECT(!spec.queue_depths.empty());
  XLF_EXPECT(!spec.queue_counts.empty());
  XLF_EXPECT(!spec.arbitration_policies.empty());
  XLF_EXPECT(!spec.gc_policies.empty());
  XLF_EXPECT(!spec.wear_policies.empty());
  XLF_EXPECT(!spec.tuning_policies.empty());
  XLF_EXPECT(!spec.refresh_policies.empty());
  XLF_EXPECT(spec.requests > 0);
  XLF_EXPECT(spec.trim_fraction >= 0.0 && spec.trim_fraction < 1.0);
  XLF_EXPECT(!spec.fail_blocks.empty());
  XLF_EXPECT_MSG(spec.data_plane || !spec.shard_dies,
                 "shard_dies defers cell-array work, which metadata-only "
                 "devices do not have");

  // Every fail-block count must leave each die its logical share plus
  // the GC slack (the same viability bound Ftl's constructor enforces,
  // with the retired blocks subtracted) — checked up front for every
  // topology so a bad axis entry fails before any combo runs.
  const nand::Geometry& geometry = spec.base.die.device.array.geometry;
  const std::uint32_t slack = spec.base.ftl.gc_free_blocks + 2;
  for (const std::uint32_t fail : spec.fail_blocks) {
    XLF_EXPECT_MSG(geometry.blocks > fail + slack, [&] {
      std::ostringstream msg;
      msg << "fail_blocks=" << fail << " leaves fewer than the " << slack
          << " slack blocks GC needs out of blocks=" << geometry.blocks;
      return msg.str();
    }());
    for (const controller::DispatchConfig& topology : spec.topologies) {
      const std::uint32_t die_count =
          topology.channels * topology.dies_per_channel;
      const std::size_t physical =
          static_cast<std::size_t>(die_count) * geometry.pages();
      const auto logical = static_cast<std::uint32_t>(
          static_cast<double>(physical) * spec.base.ftl.logical_fraction);
      const std::uint32_t per_die_logical_max =
          logical / die_count + (logical % die_count != 0 ? 1 : 0);
      XLF_EXPECT_MSG(
          per_die_logical_max <=
              (geometry.blocks - fail - slack) * geometry.pages_per_block,
          [&] {
            std::ostringstream msg;
            msg << "fail_blocks=" << fail << " starves topology "
                << topology.channels << "x" << topology.dies_per_channel
                << ": up to " << per_die_logical_max
                << " logical pages land on one die but only "
                << (geometry.blocks - fail - slack) * geometry.pages_per_block
                << " fit beside the slack once the retired blocks are gone; "
                   "lower fail_blocks or logical_fraction, or grow the die";
            return msg.str();
          }());
    }
  }

  const std::size_t policy_combos =
      spec.gc_policies.size() * spec.wear_policies.size() *
      spec.tuning_policies.size() * spec.refresh_policies.size() *
      spec.fail_blocks.size();
  const std::size_t host_combos =
      spec.queue_counts.size() * spec.arbitration_policies.size();
  const std::size_t combos = spec.topologies.size() *
                             spec.queue_depths.size() * host_combos *
                             policy_combos;

  // Serially pre-forked randomness, one stream per combo: adding a
  // combo or reordering workers never reshuffles another combo's run.
  Rng root(spec.seed);
  std::vector<Rng> streams;
  streams.reserve(combos);
  for (std::size_t i = 0; i < combos; ++i) streams.push_back(root.fork());

  FtlSweepResult result;
  result.rows.resize(combos);
  if (spec.measure_throughput) {
    result.throughput_commands_per_second.assign(combos, 0.0);
  }

  const auto run_combo = [&](std::size_t index) {
    // Decompose: topology-major, then queue depth, queue count,
    // arbitration, then the policy axes gc > wear > tuning > refresh,
    // then the fail-block count (innermost).
    std::size_t rest = index;
    const std::size_t f = rest % spec.fail_blocks.size();
    rest /= spec.fail_blocks.size();
    const std::size_t r = rest % spec.refresh_policies.size();
    rest /= spec.refresh_policies.size();
    const std::size_t u = rest % spec.tuning_policies.size();
    rest /= spec.tuning_policies.size();
    const std::size_t w = rest % spec.wear_policies.size();
    rest /= spec.wear_policies.size();
    const std::size_t g = rest % spec.gc_policies.size();
    rest /= spec.gc_policies.size();
    const std::size_t a = rest % spec.arbitration_policies.size();
    rest /= spec.arbitration_policies.size();
    const std::size_t n = rest % spec.queue_counts.size();
    rest /= spec.queue_counts.size();
    const std::size_t q = rest % spec.queue_depths.size();
    const std::size_t t = rest / spec.queue_depths.size();

    ftl::SsdConfig config = spec.base;
    config.topology = spec.topologies[t];
    config.ftl.gc_policy = spec.gc_policies[g];
    config.ftl.wear_policy = spec.wear_policies[w];
    config.ftl.refresh_policy = spec.refresh_policies[r];
    config.die.controller.tuning_policy = spec.tuning_policies[u];
    config.die.device.data_plane = spec.data_plane;

    Rng stream = streams[index];
    ftl::Ssd ssd(config);
    // Sharded mode: this combo owns the whole pool (combos run
    // serially), so the per-die cell queues drain in parallel.
    std::optional<sim::DieShardExecutor> shards;
    if (spec.shard_dies) shards.emplace(ssd, pool);

    // Grown-bad injection: the combo's fail count retires the lowest
    // block ids of every die on their first erase — the blocks every
    // wear policy allocates first and GC churns hardest, so the
    // injection reliably bites.
    ftl::FaultInjector injector;
    const std::uint32_t fail = spec.fail_blocks[f];
    for (std::size_t d = 0; d < ssd.dies(); ++d) {
      for (std::uint32_t i = 0; i < fail; ++i) {
        injector.fail_block(static_cast<std::uint32_t>(d), i);
      }
    }
    ssd.set_fault_injector(&injector);

    const std::size_t queues = spec.queue_counts[n];
    sim::SsdSimConfig sim_config;
    sim_config.queue_depth = spec.queue_depths[q];
    sim_config.host.queues = queues;
    sim_config.host.arbitration = spec.arbitration_policies[a];
    // One weight list serves every queue-count entry: take the first
    // `queues` entries, pad missing ones with 1.0 (HostInterface).
    sim_config.host.queue_weights.assign(
        spec.queue_weights.begin(),
        spec.queue_weights.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(queues, spec.queue_weights.size())));
    sim_config.data_seed = stream.next();
    if (shards.has_value()) sim_config.data_plane_shards = &*shards;
    sim::SsdSimulator simulator(ssd, sim_config);
    if (spec.prepopulate) simulator.prepopulate();

    sim::TenantSpec tenant;
    tenant.hot_fraction = spec.hot_fraction;
    tenant.hot_write_fraction = spec.hot_write_fraction;
    tenant.read_fraction = spec.read_fraction;
    tenant.trim_fraction = spec.trim_fraction;
    tenant.mean_gap = spec.mean_gap;
    const sim::MultiTenantWorkload workload(
        std::vector<sim::TenantSpec>(queues, tenant));
    const std::vector<host::Command> commands =
        generate_commands(workload, ssd.logical_pages(), spec.requests, stream);

    FtlSweepRow row;
    row.channels = config.topology.channels;
    row.dies_per_channel = config.topology.dies_per_channel;
    row.queue_depth = spec.queue_depths[q];
    row.queues = queues;
    row.arbitration = spec.arbitration_policies[a];
    row.gc_policy = spec.gc_policies[g];
    row.wear_policy = spec.wear_policies[w];
    row.tuning_policy = spec.tuning_policies[u];
    row.refresh_policy = spec.refresh_policies[r];
    if (spec.measure_throughput) {
      // Wall-clock throughput read-out, reported beside (never inside)
      // the deterministic rows. Stopwatch owns the repo's only
      // sanctioned wall-clock read (src/util/stopwatch.hpp).
      const Stopwatch watch;
      row.stats = simulator.run(commands);
      const double wall = watch.elapsed_seconds();
      result.throughput_commands_per_second[index] =
          wall > 0.0 ? static_cast<double>(commands.size()) / wall : 0.0;
    } else {
      row.stats = simulator.run(commands);
    }
    // Land any deferred cell work and revert to inline execution
    // before the scrub / remount / read-back tail touches the arrays.
    shards.reset();
    // One maintenance scrub after the request stream: the refresh
    // policy's effect shows up as preventive relocations in the row.
    // Unconditional — a policy that refreshes nothing (the "none"
    // built-in, or any downstream no-op) just reports zeros.
    const ftl::ScrubResult scrubbed = ssd.ftl().scrub();
    row.stats.refresh_blocks = scrubbed.blocks_refreshed;
    row.stats.refresh_relocations = scrubbed.pages_relocated;
    // Recovery drill: every combo ends with a clean shutdown (flush),
    // a remount that rebuilds the FTL from OOB + journal, an
    // invariant audit, and a bit-true read-back of everything the
    // host still holds. Lifetime totals (prepopulate + run + scrub)
    // for the bad-block count, read before the remount resets stats.
    row.fail_blocks = fail;
    row.bad_blocks = ssd.ftl().stats().bad_blocks;
    ssd.ftl().flush();
    ssd.remount();
    ssd.ftl().check_consistency();
    row.rebuild_mismatches = simulator.verify_stored();
    result.rows[index] = std::move(row);
  };
  if (spec.shard_dies) {
    // The pool is not reentrant: sharded combos borrow it for their
    // per-die flushes, so the combo loop itself runs serially. Row
    // order — and row content — is identical either way.
    for (std::size_t index = 0; index < combos; ++index) run_combo(index);
  } else {
    pool.parallel_for(combos, run_combo);
  }
  return result;
}

}  // namespace xlf::explore
