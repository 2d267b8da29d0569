// Workload and probe interfaces of xlf_bench.
//
// A workload builds its inputs from the seed, runs one repetition at
// a time (set-up -> measured calls -> post-run checks) and keeps the
// last repetition's end state for the layer probes of a traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "timing.hpp"
#include "src/core/subsystem.hpp"
#include "src/ftl/ssd.hpp"
#include "src/host/queues.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Reduced sizes: every workload finishes in about a second.
  bool smoke = false;
  // "deindexed": ftl_meta_scale under a renamed clone of the greedy GC
  // policy, which the FTL cannot index (sensitivity check only).
  std::string variant;
  // Where a traced run writes its spans (none when empty).
  std::string trace_out;
};

// One reported metric with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// One repetition's host times, operation tally and model read-out.
struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_s = 0.0;
  // Host commands (FTL workloads) or Monte-Carlo requests over all
  // replicas (paper_space_mc) executed by the measured calls.
  double commands = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Canonical text of every simulated statistic; identical for every
  // repetition of one seed and for any speed-only change.
  std::string model;
  // Deterministic per-layer counts (covered by `model`).
  std::vector<Metric> counts;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};


// What the layer probes take from a workload's end state.
struct ProbeInput {
  // Per-die stack configuration the workload ran with.
  xlf::core::SubsystemConfig die;
  // Highest block wear (P/E cycles) and correction capability in use
  // at the end of the run.
  double wear = 0.0;
  unsigned t = 3;
  xlf::host::HostConfig host;
  std::size_t queue_depth = 1;
  std::string gc_policy = "greedy";
  // The FTL end state the ftl probes continue from.
  xlf::ftl::Ssd* ssd = nullptr;
  // Ages the explore probes sweep when the workload itself does not.
  std::vector<double> ages;
  std::uint64_t seed = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One repetition; spans go to `tracer` when it is not null.
  virtual RepResult run_rep(Tracer* tracer, int rep) = 0;
  // Probe input from the last repetition's end state. A workload that
  // bypasses the FTL builds a small FTL rig here, on its own device
  // configuration, recording the same spans its repetitions would.
  virtual ProbeInput probe_input(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_workload(const Options& options);

// Every per-layer metric: medians of the recorded phase spans, then
// the layer probes on `input` for the metrics no span gave.
std::vector<Metric> layer_metrics(const ProbeInput& input, bool smoke,
                                  Tracer& tracer);

}  // namespace perfbench
