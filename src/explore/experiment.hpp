// Declarative experiment specs: one JSON document describes a whole
// exploration run (engine, device/FTL configuration, sweep axes
// including policy-name combinations, Monte-Carlo validation) and
// reproduces the same bytes on any machine at any thread count. A spec
// is the required "mode" ("space" or "ftl-sweep") plus any keys of the
// option table (src/explore/options.hpp), some grouped in sections:
//
//   {"mode": "ftl-sweep", "seed": 123,
//    "geometry": {"blocks": 16}, "workload": {"requests": 64},
//    "sweep": {"topologies": ["1x1", "2x1"], "gc_policies": ["greedy"]}}
//
// `xlf_explore --help` lists every key with its flag, accepted range
// and default; examples/specs/ holds complete specs. Parsing is strict:
// unknown keys, malformed or out-of-range values and unknown names
// throw std::invalid_argument naming the key.
#pragma once

#include <string>
#include <vector>

#include "src/explore/ftl_sweep.hpp"
#include "src/util/json.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::explore {

struct ExperimentSpec {
  enum class Mode { kSpace, kFtlSweep };

  // The starting point both the JSON parser and the flag path refine:
  // simulation-affordable FTL geometry, mid-life pre-conditioning and
  // compressed aging on top of the member defaults below.
  static ExperimentSpec defaults();

  Mode mode = Mode::kSpace;
  std::uint64_t seed = 0x5EEDCA5E;
  double uber_target = 1e-11;
  std::string point = "baseline";

  // --- space mode -----------------------------------------------------
  double age_lo = 1.0;
  double age_hi = 1e6;
  std::size_t age_points = 13;
  bool pareto_only = false;
  // Monte-Carlo validation (replicas == 0 skips it).
  std::size_t mc_replicas = 0;
  std::size_t mc_requests = 32;
  double mc_age = -1.0;  // < 0 = last grid age
  std::vector<std::string> mc_workloads{"sequential-read", "random-read",
                                        "write-burst", "mixed", "streaming"};

  // --- ftl-sweep mode -------------------------------------------------
  FtlSweepSpec ftl;
};

// The cross-field and name checks both front ends run before anything
// executes (the option table range-checks single values): ages grid,
// point, workload and policy names, the die's page count, shard-dies
// vs. data plane, and `format` ("csv" or "json", which --ftl-perf
// needs). Throws std::invalid_argument naming the flag and spec key.
void validate(const ExperimentSpec& spec, const std::string& format = "csv");

// Builds a spec from parsed JSON / raw text / a file on disk, then
// runs validate(). Validation is strict (see file comment).
ExperimentSpec parse_experiment(const JsonValue& root);
ExperimentSpec parse_experiment_text(const std::string& text);
ExperimentSpec load_experiment(const std::string& path);

// Validates, executes the spec and renders the report — the same
// bytes for a spec read from flags or from JSON. `format` must be
// "csv" or "json".
std::string run_experiment(const ExperimentSpec& spec, ThreadPool& pool,
                           const std::string& format);

}  // namespace xlf::explore
