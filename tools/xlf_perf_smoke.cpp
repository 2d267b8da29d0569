// Performance smoke for the hot-path trajectory file (BENCH_8.json):
// wall-clock ops/s of GC victim selection at production block counts
// (incremental index vs the linear oracle, both built-in policies),
// the multi-queue host submission path, and one 65536-block FTL-sweep
// cell on the metadata-only data plane. Numbers are machine-dependent
// by nature — the checked-in JSON records the reference container;
// CI regenerates the file as a build artifact and (--check) gates
// only the machine-independent claim, the indexed-vs-linear speedup.
//
// Usage: xlf_perf_smoke [--check] [OUT.json]   (default: stdout)
//        xlf_perf_smoke --help                  (exit 0)
// Any other flag is rejected with the usage text and exit code 2,
// before anything is measured or written.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/explore/ftl_sweep.hpp"
#include "src/ftl/allocator.hpp"
#include "src/host/command.hpp"
#include "src/host/queues.hpp"
#include "src/policy/registry.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace xlf;

using Clock = std::chrono::steady_clock;

// Time `op` in batches until ~0.15 s has elapsed; returns ops/s.
// `batch` sizes the granularity so slow ops (a multi-ms linear scan
// over 64k blocks) still get a faithful reading without a long run.
template <class Op>
double ops_per_second(Op&& op, std::size_t batch) {
  for (std::size_t i = 0; i < batch; ++i) op();  // warm-up
  std::size_t total = 0;
  const Clock::time_point begin = Clock::now();
  Clock::time_point end = begin;
  do {
    for (std::size_t i = 0; i < batch; ++i) op();
    total += batch;
    end = Clock::now();
  } while (end - begin < std::chrono::milliseconds(150));
  const std::chrono::duration<double> wall = end - begin;
  return static_cast<double>(total) / wall.count();
}

constexpr std::uint32_t kBlocks = 65536;
constexpr std::uint32_t kPages = 16;

// Same steady-state shape as bench_ftl's BM_VictimIndex: closed
// blocks with a random valid profile; each op is a pick plus an
// invalidate/remap churn pair (net-zero, so the population holds).
struct VictimFixture {
  ftl::DieAllocator alloc;
  std::vector<std::uint32_t> churn;
  std::uint64_t now = 1u << 20;
  std::size_t i = 0;

  explicit VictimFixture(ftl::GcIndexKind kind)
      : alloc(ftl::AllocatorConfig{
            kBlocks, kPages,
            policy::PolicyRegistry<policy::WearPolicy>::instance()
                .make_shared("dynamic"),
            kind}) {
    Rng rng(11);
    for (std::uint32_t b = 0; b + 4 < kBlocks; ++b) {
      std::uint32_t block = 0;
      for (std::uint32_t p = 0; p < kPages; ++p) {
        block = alloc.take_page(ftl::DieAllocator::Stream::kHost).first;
      }
      const auto valid = static_cast<std::uint32_t>(rng.below(kPages + 1));
      for (std::uint32_t v = 0; v < valid; ++v) alloc.on_page_mapped(block);
      alloc.stamp_write(block, rng.below(1u << 20));
      if (valid >= 1) churn.push_back(block);
    }
  }

  double measure(const std::string& policy_name, std::size_t batch) {
    const auto policy =
        policy::PolicyRegistry<policy::GcPolicy>::instance().make(policy_name);
    const auto valid_count = [this](std::uint32_t b) {
      return alloc.cached_valid(b);
    };
    return ops_per_second(
        [&] {
          const auto victim = alloc.pick_victim(*policy, valid_count, now++);
          static_cast<void>(victim);
          const std::uint32_t target = churn[i++ % churn.size()];
          alloc.on_page_invalidated(target);
          alloc.on_page_mapped(target);
        },
        batch);
  }
};

double host_submission_ops(const char* arbitration) {
  host::HostConfig config;
  config.queues = 8;
  config.arbitration = arbitration;
  config.queue_weights = {32, 16, 8, 8, 4, 4, 2, 1};
  host::HostInterface iface(config);
  host::Command command;
  command.type = host::CmdType::kWrite;
  for (std::uint16_t q = 0; q < 8; ++q) {
    command.queue = q;
    for (int i = 0; i < 4; ++i) iface.submit(command, Seconds{0.0});
  }
  double clock = 0.0;
  return ops_per_second(
      [&] {
        const auto pick = iface.arbitrate();
        auto [head, arrival] = iface.pop(*pick);
        iface.submit(head, Seconds{clock});
        host::Completion done;
        done.type = head.type;
        done.queue = head.queue;
        done.submitted = arrival;
        done.completed = Seconds{clock += 1e-6};
        iface.complete(done);
      },
      4096);
}

// One production-geometry sweep cell on the metadata-only data plane:
// 65536 blocks x 16 pages, QD 8, greedy GC under static tuning.
double sweep_cell_commands_per_second() {
  explore::FtlSweepSpec spec;
  spec.base.die.device.array.geometry.blocks = kBlocks;
  spec.base.die.device.array.geometry.pages_per_block = kPages;
  spec.topologies = {{1, 1}};
  spec.queue_depths = {8};
  spec.gc_policies = {"greedy"};
  spec.tuning_policies = {"static"};
  spec.requests = 100000;
  spec.data_plane = false;
  spec.measure_throughput = true;
  ThreadPool pool(1);
  const explore::FtlSweepResult result = explore::ftl_sweep(spec, pool);
  return result.throughput_commands_per_second.at(0);
}

std::string num(double v) {
  std::ostringstream out;
  out.precision(9);
  out << v;
  return out.str();
}

constexpr const char* kUsage =
    "usage: xlf_perf_smoke [--check] [OUT.json]\n"
    "  Measures the hot-path rows and writes them as JSON to OUT.json\n"
    "  (default: stdout).\n"
    "  --check  exit 1 unless the indexed victim pick beats the linear\n"
    "           scan by >= 10x\n"
    "  --help   print this text and exit\n";

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "xlf_perf_smoke: unknown flag '" << arg << "'\n" << kUsage;
      return 2;
    } else if (!out_path.empty()) {
      std::cerr << "xlf_perf_smoke: more than one output path ('" << out_path
                << "', '" << arg << "')\n"
                << kUsage;
      return 2;
    } else {
      out_path = arg;
    }
  }

  VictimFixture greedy_indexed(ftl::GcIndexKind::kGreedy);
  VictimFixture cb_indexed(ftl::GcIndexKind::kCostBenefit);
  VictimFixture linear(ftl::GcIndexKind::kNone);

  const double greedy_idx = greedy_indexed.measure("greedy", 4096);
  const double cb_idx = cb_indexed.measure("cost-benefit", 4096);
  const double greedy_lin = linear.measure("greedy", 16);
  const double cb_lin = linear.measure("cost-benefit", 16);
  const double rr = host_submission_ops("round-robin");
  const double weighted = host_submission_ops("weighted");
  const double cell = sweep_cell_commands_per_second();

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"hot-path perf smoke (PR 8)\",\n"
       << "  \"victim_pick_ops_per_s\": {\n"
       << "    \"blocks\": " << kBlocks << ",\n"
       << "    \"pages_per_block\": " << kPages << ",\n"
       << "    \"greedy_indexed\": " << num(greedy_idx) << ",\n"
       << "    \"greedy_linear\": " << num(greedy_lin) << ",\n"
       << "    \"greedy_speedup\": " << num(greedy_idx / greedy_lin) << ",\n"
       << "    \"cost_benefit_indexed\": " << num(cb_idx) << ",\n"
       << "    \"cost_benefit_linear\": " << num(cb_lin) << ",\n"
       << "    \"cost_benefit_speedup\": " << num(cb_idx / cb_lin) << "\n"
       << "  },\n"
       << "  \"host_submission_ops_per_s\": {\n"
       << "    \"round_robin\": " << num(rr) << ",\n"
       << "    \"weighted\": " << num(weighted) << "\n"
       << "  },\n"
       << "  \"ftl_sweep_cell\": {\n"
       << "    \"blocks\": " << kBlocks << ",\n"
       << "    \"pages_per_block\": " << kPages << ",\n"
       << "    \"topology\": \"1x1\",\n"
       << "    \"queue_depth\": 8,\n"
       << "    \"requests\": 100000,\n"
       << "    \"data_plane\": \"meta\",\n"
       << "    \"commands_per_s\": " << num(cell) << "\n"
       << "  }\n"
       << "}\n";

  if (out_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(out_path);
    out << json.str();
    if (!out) {
      std::cerr << "xlf_perf_smoke: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (check) {
    // The machine-independent gate: the incremental index must beat
    // the linear oracle by >= 10x at 64k blocks (the observed margin
    // is orders of magnitude larger, so this cannot flake on a noisy
    // runner without a real regression).
    const double floor = 10.0;
    if (greedy_idx / greedy_lin < floor || cb_idx / cb_lin < floor) {
      std::cerr << "xlf_perf_smoke: victim-index speedup below " << floor
                << "x (greedy " << num(greedy_idx / greedy_lin)
                << "x, cost-benefit " << num(cb_idx / cb_lin) << "x)\n";
      return 1;
    }
  }
  return 0;
}
