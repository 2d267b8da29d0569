#include "src/explore/experiment.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "src/explore/monte_carlo.hpp"
#include "src/explore/options.hpp"
#include "src/explore/report.hpp"
#include "src/explore/sweep.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/workload.hpp"
#include "src/util/stats.hpp"

namespace xlf::explore {
namespace {

std::optional<core::OperatingPoint> make_point(const std::string& name) {
  if (name == "baseline") return core::OperatingPoint::baseline();
  if (name == "min-uber") return core::OperatingPoint::min_uber();
  if (name == "max-read") return core::OperatingPoint::max_read();
  return std::nullopt;
}

std::unique_ptr<sim::Workload> make_workload(const std::string& name) {
  if (name == "sequential-read") {
    return std::make_unique<sim::SequentialReadWorkload>();
  }
  if (name == "random-read") {
    return std::make_unique<sim::RandomReadWorkload>();
  }
  if (name == "write-burst") {
    return std::make_unique<sim::WriteBurstWorkload>();
  }
  if (name == "mixed") {
    return std::make_unique<sim::MixedWorkload>(0.7);
  }
  if (name == "streaming") {
    return std::make_unique<sim::MultimediaStreamingWorkload>(
        BytesPerSecond::mib(8.0));
  }
  return nullptr;
}

[[noreturn]] void invalid(const char* flag, const std::string& what) {
  const Option* o = find_flag(flag);
  std::string names = flag;
  if (o->key != nullptr) names += " / spec key '" + std::string(o->key) + "'";
  throw std::invalid_argument(names + ": " + what);
}

// Each name must resolve in the interface's registry, whose error
// lists the registered alternatives.
template <class Interface>
void check_policies(const char* flag, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    try {
      (void)policy::PolicyRegistry<Interface>::instance().make(name);
    } catch (const std::invalid_argument& e) {
      invalid(flag, e.what());
    }
  }
}

}  // namespace

ExperimentSpec ExperimentSpec::defaults() {
  ExperimentSpec spec;
  spec.ftl.base.die.device.array.geometry.blocks = 8;
  spec.ftl.base.die.device.array.geometry.pages_per_block = 4;
  spec.ftl.base.initial_pe_cycles = 1e4;
  spec.ftl.base.ftl.pe_cycles_per_erase = 3e4;
  spec.ftl.base.ftl.logical_fraction = 0.6;
  return spec;
}

void validate(const ExperimentSpec& spec, const std::string& format) {
  if (format != "csv" && format != "json") {
    throw std::invalid_argument("--format expects csv or json, got '" +
                                format + "'");
  }
  if (!(spec.age_lo > 0.0 && spec.age_hi > spec.age_lo &&
        spec.age_points >= 2)) {
    std::ostringstream msg;
    msg << "invalid ages grid lo=" << spec.age_lo << " hi=" << spec.age_hi
        << " points=" << spec.age_points
        << " (need lo > 0, hi > lo, points >= 2)";
    invalid("--ages", msg.str());
  }
  if (!make_point(spec.point).has_value()) {
    invalid("--point", "unknown operating point '" + spec.point +
                           "'; available: baseline min-uber max-read");
  }
  for (const std::string& name : spec.mc_workloads) {
    if (make_workload(name) == nullptr) {
      invalid("--workloads", "unknown workload '" + name +
                                 "'; available: sequential-read random-read "
                                 "write-burst mixed streaming");
    }
  }
  check_policies<policy::GcPolicy>("--ftl-gc", spec.ftl.gc_policies);
  check_policies<policy::WearPolicy>("--ftl-wear", spec.ftl.wear_policies);
  check_policies<policy::TuningPolicy>("--ftl-tuning",
                                       spec.ftl.tuning_policies);
  check_policies<policy::RefreshPolicy>("--ftl-refresh",
                                        spec.ftl.refresh_policies);
  check_policies<policy::ArbitrationPolicy>("--ftl-arbitration",
                                            spec.ftl.arbitration_policies);
  // nand::Geometry counts a die's pages in 32 bits.
  const nand::Geometry& geometry = spec.ftl.base.die.device.array.geometry;
  if (static_cast<std::uint64_t>(geometry.blocks) * geometry.pages_per_block >
      std::numeric_limits<std::uint32_t>::max()) {
    invalid("--ftl-pages", "blocks x pages_per_block must fit in 32 bits");
  }
  if (spec.ftl.shard_dies && !spec.ftl.data_plane) {
    invalid("--ftl-shard-dies",
            "needs the bit-true data plane (metadata-only devices have no "
            "cell work to shard)");
  }
  if (spec.ftl.measure_throughput && format != "json") {
    invalid("--ftl-perf",
            "throughput is reported in the JSON output only; add --format "
            "json");
  }
}

ExperimentSpec parse_experiment_text(const std::string& text) {
  return parse_experiment(JsonValue::parse(text));
}

ExperimentSpec load_experiment(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("cannot open experiment spec " + path);
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return parse_experiment_text(contents.str());
}

std::string run_experiment(const ExperimentSpec& spec, ThreadPool& pool,
                           const std::string& format) {
  validate(spec, format);

  if (spec.mode == ExperimentSpec::Mode::kFtlSweep) {
    // The experiment-level knobs (seed, UBER target, operating point)
    // override the sweep template's own copies, whichever path built
    // the spec.
    FtlSweepSpec ftl = spec.ftl;
    ftl.seed = spec.seed;
    ftl.base.die.cross_layer.uber_target = spec.uber_target;
    ftl.base.die.controller.reliability.uber_target = spec.uber_target;
    ftl.base.point = *make_point(spec.point);
    const FtlSweepResult result = ftl_sweep(ftl, pool);
    if (format == "csv") return ftl_csv(result);
    std::string report = "{\"ftl\":";
    report += ftl_json(result);
    report += "}";
    return report;
  }

  // Configuration-space sweep (+ optional Monte-Carlo validation).
  core::SubsystemConfig subsystem = core::SubsystemConfig::defaults();
  subsystem.cross_layer.uber_target = spec.uber_target;

  SweepSpec sweep_spec;
  sweep_spec.framework = FrameworkSpec::from(subsystem);
  sweep_spec.ages = log_space(spec.age_lo, spec.age_hi, spec.age_points);

  SweepResult space = sweep_space(sweep_spec, pool);
  if (spec.pareto_only) {
    SweepResult front;
    // Front sizes vary per age, so the filtered rows are no longer an
    // ages x cells_per_age grid; 0 signals the irregular layout.
    front.cells_per_age = 0;
    for (const SweepCell& cell : space.cells) {
      if (cell.pareto) front.cells.push_back(cell);
    }
    space = std::move(front);
  }

  std::vector<WorkloadValidation> validations;
  if (spec.mc_replicas > 0) {
    const double mc_age =
        spec.mc_age >= 0.0 ? spec.mc_age : sweep_spec.ages.back();
    // One root stream per workload, derived serially from the seed so
    // adding a workload never reshuffles the others' replicas.
    Rng workload_seeder(spec.seed);
    for (const std::string& name : spec.mc_workloads) {
      const std::uint64_t workload_seed = workload_seeder.next();
      const std::unique_ptr<sim::Workload> workload = make_workload(name);
      MonteCarloSpec mc;
      mc.subsystem = subsystem;
      mc.point = *make_point(spec.point);
      mc.pe_cycles = mc_age;
      mc.workload = workload.get();
      mc.requests_per_replica = spec.mc_requests;
      mc.replicas = spec.mc_replicas;
      mc.seed = workload_seed;
      validations.push_back(WorkloadValidation{workload->name(), mc_age,
                                               run_monte_carlo(mc, pool)});
    }
  }

  std::string report;
  if (format == "csv") {
    report = sweep_csv(space);
    if (!validations.empty()) {
      report += "\n";
      report += qos_csv(validations);
    }
  } else {
    report = "{\"sweep\":" + sweep_json(space);
    report += ",\"qos\":" + qos_json(validations);
    report += "}";
  }
  return report;
}

}  // namespace xlf::explore
