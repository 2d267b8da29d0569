// The three benchmark workloads. Each builds every input from the
// seed through the public APIs and checks the outputs it gets back.
//
//  * ftl_meta_scale — metadata-only devices at production block
//    counts under a write-heavy multi-queue stream: host arbitration,
//    the event queue, FTL mapping/GC/OOB bookkeeping and the
//    controller's meta path do the work; cells, BCH and GF are
//    bypassed.
//  * ftl_bittrue_read — bit-true cell arrays late in life under a
//    read-heavy stream with payload verification: cell sampling, BCH
//    encode/decode and BitVec dominate, and construction-time erase
//    dominates set-up.
//  * paper_space_mc — the paper's figure path: the (algorithm x t x
//    age) sweep and an end-of-life Monte-Carlo, where the BCH error
//    locator is hot; the FTL, host and SSD simulator are bypassed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "src/core/cross_layer.hpp"
#include "src/explore/monte_carlo.hpp"
#include "src/explore/sweep.hpp"
#include "src/policy/policy.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"
#include "src/sim/workload.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace xlf;

// Name under which the sensitivity variant registers its greedy
// clone. The FTL indexes GC victims only for built-in policy names,
// so this clone picks the same victims through the linear scan.
constexpr const char* kGreedyClone = "perfbench-greedy-linear";

class GreedyClone final : public policy::GcPolicy {
 public:
  double score(const policy::GcBlockView& view) const override {
    return static_cast<double>(view.pages_per_block - view.valid_pages);
  }
};

// Appends `key=value;` with every digit, so the model text changes
// whenever any simulated statistic does.
class ModelText {
 public:
  void add(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out_ << key << '=' << buf << ';';
  }
  void add_stats(const char* key, const RunningStats& stats) {
    const std::string base(key);
    add((base + ".n").c_str(), static_cast<double>(stats.count()));
    if (stats.count() == 0) return;
    add((base + ".mean").c_str(), stats.mean());
    add((base + ".min").c_str(), stats.min());
    add((base + ".max").c_str(), stats.max());
    add((base + ".var").c_str(), stats.variance());
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean_us(const RunningStats& stats) {
  return stats.count() > 0 ? stats.mean() * 1e6 : 0.0;
}

struct FtlShape {
  ftl::SsdConfig ssd;
  sim::SsdSimConfig sim;
  sim::TenantSpec tenant;
  std::size_t tenants = 1;
  std::size_t commands = 0;
};

class FtlWorkload final : public Workload {
 public:
  FtlWorkload(FtlShape shape, std::uint64_t seed)
      : shape_(std::move(shape)), seed_(seed) {}

  RepResult run_rep(Tracer* tracer, int rep) override;
  ProbeInput probe_input(Tracer& tracer) override;

 private:
  void describe(const std::vector<host::Command>& commands, RepResult& r) const;

  FtlShape shape_;
  std::uint64_t seed_;
  // Last repetition's end state (kept for the probes).
  std::unique_ptr<ftl::Ssd> ssd_;
  std::unique_ptr<sim::SsdSimulator> sim_;
  sim::SsdSimStats stats_;
};

RepResult FtlWorkload::run_rep(Tracer* tracer, int rep) {
  // The previous repetition's state goes first, outside the timing.
  sim_.reset();
  ssd_.reset();

  Rng root(seed_);
  ftl::SsdConfig config = shape_.ssd;
  config.die.device.array.seed = root.next();
  sim::SsdSimConfig sim_config = shape_.sim;
  sim_config.data_seed = root.next();
  Rng stream = root.fork();

  RepResult r;
  const Clock::time_point start = Clock::now();
  std::vector<host::Command> commands;
  {
    const Scope setup(tracer, "setup", rep);
    {
      const Scope span(tracer, "ftl.construct", rep);
      ssd_ = std::make_unique<ftl::Ssd>(config);
    }
    sim_ = std::make_unique<sim::SsdSimulator>(*ssd_, sim_config);
    {
      const Scope span(tracer, "sim.prepopulate", rep);
      sim_->prepopulate();
    }
    {
      const Scope span(tracer, "sim.generate", rep);
      const sim::MultiTenantWorkload workload(
          std::vector<sim::TenantSpec>(shape_.tenants, shape_.tenant));
      commands = workload.generate(ssd_->logical_pages(), shape_.commands,
                                   stream);
    }
  }
  r.setup_s = seconds_since(start);

  const Clock::time_point run_start = Clock::now();
  {
    const Scope span(tracer, "sim.run", rep);
    stats_ = sim_->run(commands);
  }
  r.run_s = seconds_since(run_start);
  r.commands = static_cast<double>(commands.size());

  {
    const Scope span(tracer, "checks", rep);
    // Host commands: a page read that failed to decode or returned
    // other bits than the host wrote fails its command.
    r.attempted += commands.size();
    r.failed += stats_.uncorrectable + stats_.data_mismatches;
    if (stats_.uncorrectable + stats_.data_mismatches > 0) {
      r.failures.push_back(std::to_string(stats_.uncorrectable) +
                           " uncorrectable and " +
                           std::to_string(stats_.data_mismatches) +
                           " mismatching page reads");
    }
    r.check(!stats_.power_loss, "run stopped by a power loss");

    // Recovery drill: clean shutdown, remount from OOB + journal,
    // invariant audit, then every LPA against the pre-shutdown map
    // and (bit-true plane) every stored payload against the host's.
    ftl::Ftl& before = ssd_->ftl();
    const std::uint32_t logical = ssd_->logical_pages();
    std::vector<char> mapped(logical);
    for (std::uint32_t lpa = 0; lpa < logical; ++lpa) {
      mapped[lpa] = before.mapped(lpa) ? 1 : 0;
    }
    {
      const Scope s(tracer, "ftl.flush", rep);
      ssd_->ftl().flush();
    }
    {
      const Scope s(tracer, "ftl.remount", rep);
      ssd_->remount();
    }
    {
      const Scope s(tracer, "ftl.check_consistency", rep);
      try {
        ssd_->ftl().check_consistency();
        r.check(true, "");
      } catch (const std::exception& e) {
        r.check(false, std::string("check_consistency: ") + e.what());
      }
    }
    std::size_t payload_mismatches = 0;
    {
      const Scope s(tracer, "sim.verify_stored", rep);
      payload_mismatches = sim_->verify_stored();
    }
    std::size_t lost = 0;
    for (std::uint32_t lpa = 0; lpa < logical; ++lpa) {
      if ((ssd_->ftl().mapped(lpa) ? 1 : 0) != mapped[lpa]) ++lost;
    }
    r.attempted += logical;
    r.failed += lost + payload_mismatches;
    if (lost + payload_mismatches > 0) {
      r.failures.push_back(std::to_string(lost) +
                           " LPAs changed mapping and " +
                           std::to_string(payload_mismatches) +
                           " payloads differ after remount");
    }
  }
  r.wall_s = seconds_since(start);
  describe(commands, r);
  return r;
}

void FtlWorkload::describe(const std::vector<host::Command>& commands,
                           RepResult& r) const {
  const sim::SsdSimStats& s = stats_;
  ModelText m;
  m.add("commands", static_cast<double>(commands.size()));
  m.add("reads", static_cast<double>(s.reads));
  m.add("writes", static_cast<double>(s.writes));
  m.add("unmapped_reads", static_cast<double>(s.unmapped_reads));
  m.add("uncorrectable", static_cast<double>(s.uncorrectable));
  m.add("data_mismatches", static_cast<double>(s.data_mismatches));
  m.add("corrected_bits", static_cast<double>(s.corrected_bits));
  m.add("trims", static_cast<double>(s.trims));
  m.add("trimmed_pages", static_cast<double>(s.trimmed_pages));
  m.add("flushes", static_cast<double>(s.flushes));
  m.add("bad_blocks", static_cast<double>(s.bad_blocks));
  m.add("gc_relocations", static_cast<double>(s.gc_relocations));
  m.add("erases", static_cast<double>(s.erases));
  m.add("wl_swaps", static_cast<double>(s.wl_swaps));
  m.add("write_amplification", s.write_amplification);
  m.add("min_t", s.min_t_used);
  m.add("max_t", s.max_t_used);
  m.add("wear_min", s.wear_min);
  m.add("wear_max", s.wear_max);
  m.add("elapsed_s", s.elapsed.value());
  m.add("gc_busy_s", s.gc_busy.value());
  m.add("ecc_energy_j", s.ecc_energy.value());
  m.add("nand_energy_j", s.nand_energy.value());
  m.add_stats("read_latency", s.read_latency);
  m.add_stats("write_latency", s.write_latency);
  for (std::size_t q = 0; q < s.queue_stats.size(); ++q) {
    const host::QueueStats& qs = s.queue_stats[q];
    const std::string key = "queue" + std::to_string(q);
    m.add((key + ".commands").c_str(), static_cast<double>(qs.commands()));
    m.add_stats((key + ".read_latency").c_str(), qs.read_latency);
    m.add_stats((key + ".write_latency").c_str(), qs.write_latency);
  }
  for (std::size_t d = 0; d < s.die_utilisation.size(); ++d) {
    m.add(("die_util" + std::to_string(d)).c_str(), s.die_utilisation[d]);
  }
  for (std::size_t c = 0; c < s.channel_utilisation.size(); ++c) {
    m.add(("channel_util" + std::to_string(c)).c_str(),
          s.channel_utilisation[c]);
  }
  r.model = m.str();

  const double pages = static_cast<double>(s.reads + s.writes);
  r.counts = {
      {"sim.commands", static_cast<double>(commands.size()), "count"},
      {"sim.page_reads", static_cast<double>(s.reads), "count"},
      {"sim.page_writes", static_cast<double>(s.writes), "count"},
      {"sim.trimmed_pages", static_cast<double>(s.trimmed_pages), "count"},
      {"ftl.gc_relocations", static_cast<double>(s.gc_relocations), "count"},
      {"ftl.erases", static_cast<double>(s.erases), "count"},
      {"ftl.wl_swaps", static_cast<double>(s.wl_swaps), "count"},
      {"ftl.write_amplification", s.write_amplification, "ratio"},
      {"ftl.relocations_per_erase",
       per(static_cast<double>(s.gc_relocations),
           static_cast<double>(s.erases)),
       "ratio"},
      {"controller.min_t", static_cast<double>(s.min_t_used), "bits"},
      {"controller.max_t", static_cast<double>(s.max_t_used), "bits"},
      {"bch.corrected_bits", static_cast<double>(s.corrected_bits), "count"},
      {"bch.uncorrectable", static_cast<double>(s.uncorrectable), "count"},
      {"sim.simulated_s", s.elapsed.value(), "sim_s"},
      {"sim.read_latency_mean_us", mean_us(s.read_latency), "sim_us"},
      {"sim.write_latency_mean_us", mean_us(s.write_latency), "sim_us"},
      {"sim.energy_nj_per_page",
       per((s.ecc_energy.value() + s.nand_energy.value()) * 1e9, pages),
       "nJ"},
  };
}

ProbeInput FtlWorkload::probe_input(Tracer&) {
  ProbeInput in;
  in.die = shape_.ssd.die;
  in.wear = ssd_->ftl().max_wear();
  in.t = stats_.max_t_used;
  in.host = shape_.sim.host;
  in.queue_depth = shape_.sim.queue_depth;
  in.gc_policy = shape_.ssd.ftl.gc_policy;
  in.ssd = ssd_.get();
  in.ages = log_space(1.0, std::max(10.0, in.wear), 3);
  in.seed = seed_;
  return in;
}

// --- paper_space_mc ---------------------------------------------------

constexpr double kEndOfLife = 1e6;

bool same_metrics(const core::Metrics& a, const core::Metrics& b) {
  // Bit-for-bit: the sweep and the serial reference run the same
  // deterministic model, so any difference is a defect.
  return a.pe_cycles == b.pe_cycles && a.algo == b.algo && a.t == b.t &&
         a.rber == b.rber && a.uber == b.uber &&
         a.log10_uber == b.log10_uber &&
         a.read_latency.value() == b.read_latency.value() &&
         a.write_latency.value() == b.write_latency.value() &&
         a.read_throughput.value() == b.read_throughput.value() &&
         a.write_throughput.value() == b.write_throughput.value() &&
         a.nand_program_power.value() == b.nand_program_power.value() &&
         a.ecc_decode_power.value() == b.ecc_decode_power.value();
}

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        ages_(smoke ? 3 : 13),
        replicas_(smoke ? 1 : 4),
        requests_(smoke ? 8 : 48),
        smoke_(smoke) {}

  RepResult run_rep(Tracer* tracer, int rep) override;
  ProbeInput probe_input(Tracer& tracer) override;

 private:
  std::uint64_t seed_;
  std::size_t ages_;
  std::size_t replicas_;
  std::size_t requests_;
  bool smoke_;
  ThreadPool pool_{1};
  core::SubsystemConfig subsystem_;
  unsigned end_t_ = 3;
  std::unique_ptr<FtlWorkload> rig_;
};

RepResult PaperWorkload::run_rep(Tracer* tracer, int rep) {
  Rng root(seed_);
  RepResult r;
  const Clock::time_point start = Clock::now();

  explore::SweepSpec sweep;
  const sim::MixedWorkload mixed(0.7);
  const sim::RandomReadWorkload random_read;
  std::vector<explore::MonteCarloSpec> mc_specs;
  std::vector<std::vector<core::Metrics>> reference;
  {
    // Set-up: the per-die configuration, the grid and the Monte-Carlo
    // inputs, and the serial reference framework every sweep cell is
    // checked against (framework construction and its ISPP
    // characterisation at every grid age).
    const Scope setup(tracer, "setup", rep);
    subsystem_ = core::SubsystemConfig::defaults();
    subsystem_.device.array.seed = root.next();
    sweep.framework = explore::FrameworkSpec::from(subsystem_);
    sweep.ages = log_space(1.0, kEndOfLife, ages_);
    for (const sim::Workload* workload :
         {static_cast<const sim::Workload*>(&mixed),
          static_cast<const sim::Workload*>(&random_read)}) {
      explore::MonteCarloSpec mc;
      mc.subsystem = subsystem_;
      mc.pe_cycles = kEndOfLife;
      mc.workload = workload;
      mc.requests_per_replica = requests_;
      mc.replicas = replicas_;
      mc.seed = root.next();
      mc_specs.push_back(mc);
    }
    const Scope span(tracer, "core.reference", rep);
    const nand::NandTiming timing = sweep.framework.make_timing();
    const core::CrossLayerFramework framework(
        sweep.framework.cross_layer, sweep.framework.aging, timing,
        sweep.framework.hv);
    for (const double age : sweep.ages) {
      reference.push_back(framework.enumerate(age));
    }
    end_t_ = framework.resolve_t(core::OperatingPoint::baseline(), kEndOfLife);
  }
  r.setup_s = seconds_since(start);

  const Clock::time_point run_start = Clock::now();
  explore::SweepResult space;
  std::vector<explore::MonteCarloResult> mc_results;
  {
    const Scope span(tracer, "explore.sweep_space", rep);
    space = explore::sweep_space(sweep, pool_);
  }
  {
    const Scope span(tracer, "explore.monte_carlo", rep);
    for (const explore::MonteCarloSpec& mc : mc_specs) {
      mc_results.push_back(explore::run_monte_carlo(mc, pool_));
    }
  }
  r.run_s = seconds_since(run_start);
  r.commands = static_cast<double>(mc_specs.size() * replicas_ * requests_);

  ModelText m;
  unsigned min_t = ~0u;
  unsigned max_t = 0;
  {
    const Scope span(tracer, "checks", rep);
    const std::size_t per_age = space.cells_per_age;
    r.check(space.cells.size() == sweep.ages.size() * per_age,
            "sweep grid has the wrong shape");
    for (std::size_t a = 0; a < reference.size(); ++a) {
      const std::vector<bool> efficient =
          core::CrossLayerFramework::pareto_mask(reference[a]);
      r.check(reference[a].size() == per_age, "reference grid shape");
      for (std::size_t i = 0; i < reference[a].size() && i < per_age; ++i) {
        const explore::SweepCell& cell = space.cells.at(a * per_age + i);
        r.check(same_metrics(cell.metrics, reference[a][i]) &&
                    cell.pareto == efficient[i],
                "sweep cell " + std::to_string(a * per_age + i) +
                    " differs from the serial reference");
        if (cell.pareto) {
          min_t = std::min(min_t, cell.metrics.t);
          max_t = std::max(max_t, cell.metrics.t);
        }
        m.add("cell.rber", cell.metrics.rber);
        m.add("cell.log10_uber", cell.metrics.log10_uber);
        m.add("cell.read_latency", cell.metrics.read_latency.value());
        m.add("cell.write_latency", cell.metrics.write_latency.value());
        m.add("cell.power", cell.metrics.total_power().value());
        m.add("cell.pareto", cell.pareto ? 1.0 : 0.0);
      }
    }
    for (std::size_t w = 0; w < mc_results.size(); ++w) {
      const sim::SimStats& s = mc_results[w].merged;
      const std::string name = mc_specs[w].workload->name();
      r.check(s.reads + s.writes == replicas_ * requests_,
              name + ": not every request was serviced");
      r.attempted += s.reads;
      r.failed += s.uncorrectable + s.data_mismatches;
      if (s.uncorrectable + s.data_mismatches > 0) {
        r.failures.push_back(name + ": " + std::to_string(s.uncorrectable) +
                             " uncorrectable and " +
                             std::to_string(s.data_mismatches) +
                             " mismatching page reads");
      }
    }
  }
  r.wall_s = seconds_since(start);

  sim::SimStats merged;
  for (const explore::MonteCarloResult& mc : mc_results) {
    merged.merge(mc.merged);
    m.add("mc.reads", static_cast<double>(mc.merged.reads));
    m.add("mc.writes", static_cast<double>(mc.merged.writes));
    m.add("mc.erases", static_cast<double>(mc.merged.erases));
    m.add("mc.uncorrectable", static_cast<double>(mc.merged.uncorrectable));
    m.add("mc.corrected_bits", static_cast<double>(mc.merged.corrected_bits));
    m.add("mc.qos_misses", static_cast<double>(mc.merged.qos_misses));
    m.add("mc.elapsed_s", mc.merged.elapsed.value());
    m.add("mc.read_busy_s", mc.merged.read_busy.value());
    m.add("mc.write_busy_s", mc.merged.write_busy.value());
    m.add("mc.ecc_energy_j", mc.merged.ecc_energy.value());
    m.add("mc.nand_energy_j", mc.merged.nand_energy.value());
    m.add_stats("mc.read_latency", mc.merged.read_latency);
    m.add_stats("mc.write_latency", mc.merged.write_latency);
  }
  r.model = m.str();
  const double pages = static_cast<double>(merged.reads + merged.writes);
  // The FTL is bypassed on this workload, so its counts are zero.
  r.counts = {
      {"sim.commands", r.commands, "count"},
      {"sim.page_reads", static_cast<double>(merged.reads), "count"},
      {"sim.page_writes", static_cast<double>(merged.writes), "count"},
      {"sim.trimmed_pages", 0.0, "count"},
      {"ftl.gc_relocations", 0.0, "count"},
      {"ftl.erases", 0.0, "count"},
      {"ftl.wl_swaps", 0.0, "count"},
      {"ftl.write_amplification", 0.0, "ratio"},
      {"ftl.relocations_per_erase", 0.0, "ratio"},
      {"controller.min_t", min_t == ~0u ? 0.0 : static_cast<double>(min_t),
       "bits"},
      {"controller.max_t", static_cast<double>(max_t), "bits"},
      {"bch.corrected_bits", static_cast<double>(merged.corrected_bits),
       "count"},
      {"bch.uncorrectable", static_cast<double>(merged.uncorrectable),
       "count"},
      {"sim.simulated_s", merged.elapsed.value(), "sim_s"},
      {"sim.read_latency_mean_us", mean_us(merged.read_latency), "sim_us"},
      {"sim.write_latency_mean_us", mean_us(merged.write_latency), "sim_us"},
      {"sim.energy_nj_per_page",
       per((merged.ecc_energy.value() + merged.nand_energy.value()) * 1e9,
           pages),
       "nJ"},
  };
  return r;
}

ProbeInput PaperWorkload::probe_input(Tracer& tracer) {
  // The sweep and Monte-Carlo never touch the FTL, host or SSD
  // simulator; their probes run on a small FTL rig built from this
  // workload's end-of-life die, which records the sim/ftl spans.
  FtlShape rig;
  rig.ssd.topology = {1, 1};
  rig.ssd.die = subsystem_;
  rig.ssd.die.device.array.geometry.blocks = smoke_ ? 8 : 16;
  rig.ssd.initial_pe_cycles = kEndOfLife;
  rig.tenant.read_fraction = 0.7;
  rig.commands = smoke_ ? 32 : 256;
  rig_ = std::make_unique<FtlWorkload>(rig, seed_);
  const RepResult r = rig_->run_rep(&tracer, -1);
  if (r.failed != 0) {
    throw std::runtime_error("probe rig failed its checks: " +
                             r.failures.front());
  }
  ProbeInput in = rig_->probe_input(tracer);
  in.die = subsystem_;
  in.wear = kEndOfLife;
  in.t = end_t_;
  in.ages.clear();  // the workload's own spans give the explore metrics
  return in;
}

FtlShape meta_scale_shape(bool smoke, const std::string& variant) {
  FtlShape s;
  s.ssd.topology = {2, 2};
  // 8-page blocks at 8192 per die: the same capacity as 4096 x 16,
  // with twice the GC picks per write over twice the blocks, so the
  // victim pick is a measurable share of run_s.
  s.ssd.die.device.array.geometry.blocks = smoke ? 512 : 8192;
  s.ssd.die.device.array.geometry.pages_per_block = 8;
  s.ssd.die.device.data_plane = false;
  s.ssd.ftl.logical_fraction = 0.75;
  s.ssd.ftl.gc_policy = variant == "deindexed" ? kGreedyClone : "greedy";
  s.ssd.ftl.wear_policy = "dynamic";
  s.ssd.die.controller.tuning_policy = "model_based";
  s.sim.queue_depth = 16;
  s.sim.host.queues = 4;
  s.sim.host.arbitration = "weighted";
  s.sim.host.queue_weights = {8.0, 4.0, 2.0, 1.0};
  s.sim.generate_payloads = false;
  s.sim.verify_data = false;
  s.tenant.read_fraction = 0.3;
  s.tenant.trim_fraction = 0.1;
  s.tenants = 4;
  s.commands = smoke ? 40000 : 1000000;
  return s;
}

FtlShape bittrue_read_shape(bool smoke) {
  FtlShape s;
  s.ssd.topology = {2, 1};
  s.ssd.die.device.array.geometry.blocks = smoke ? 8 : 12;
  s.ssd.die.device.array.geometry.pages_per_block = 16;
  s.ssd.die.device.data_plane = true;
  s.ssd.initial_pe_cycles = 1e4;
  s.ssd.ftl.pe_cycles_per_erase = 3e4;
  s.sim.queue_depth = 4;
  s.sim.host.queues = 1;
  s.sim.verify_data = true;
  s.tenant.read_fraction = 0.7;
  // Uniform overwrites: on a device this small a hot/cold mix makes the
  // GC work differ by about 8% from seed to seed; uniform keeps it near 4%.
  s.tenant.hot_fraction = 0.5;
  s.tenant.hot_write_fraction = 0.5;
  s.tenants = 1;
  s.commands = smoke ? 64 : 1500;
  return s;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (!options.variant.empty() && (options.variant != "deindexed" ||
                                   options.workload != "ftl_meta_scale")) {
    throw std::invalid_argument(
        "--variant deindexed applies to ftl_meta_scale only");
  }
  if (options.variant == "deindexed") {
    policy::PolicyRegistry<policy::GcPolicy>::instance().add(
        kGreedyClone, [] { return std::make_unique<GreedyClone>(); });
  }
  if (options.workload == "ftl_meta_scale") {
    return std::make_unique<FtlWorkload>(
        meta_scale_shape(options.smoke, options.variant), options.seed);
  }
  if (options.workload == "ftl_bittrue_read") {
    return std::make_unique<FtlWorkload>(bittrue_read_shape(options.smoke),
                                         options.seed);
  }
  if (options.workload == "paper_space_mc") {
    return std::make_unique<PaperWorkload>(options.seed, options.smoke);
  }
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (ftl_meta_scale, ftl_bittrue_read, "
                              "paper_space_mc)");
}

}  // namespace perfbench
