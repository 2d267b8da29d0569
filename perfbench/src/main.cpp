// xlf_bench: the self-timed benchmark program, one workload per run.
//
// Runs repetitions of the workload (set-up -> measured calls -> post-
// run checks) on one thread until --seconds have passed (half of them
// when traced; at least three repetitions untraced, two traced), and
// prints one JSON report line: end-to-end host times as medians over
// the untraced repetitions, the operation tally, the model digest and
// per-layer counts, and — with --trace 1 — the per-layer metrics of
// the traced repetitions and layer probes.
//
// Usage: xlf_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--smoke] [--variant deindexed] [--trace-out FILE]
#include <sys/resource.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: xlf_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
    "                 [--smoke] [--variant deindexed] [--trace-out FILE]\n"
    "workloads: ftl_meta_scale, ftl_bittrue_read, paper_space_mc\n";

struct UsageError {
  std::string message;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    throw UsageError{flag + " expects a non-negative integer, got '" + text +
                     "'"};
  }
  return v;
}

Options parse(int argc, char** argv, bool& help) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      help = true;
      return o;
    }
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--variant" && flag != "--trace-out") {
      throw UsageError{"unknown flag '" + flag + "'"};
    }
    if (i + 1 >= argc) throw UsageError{flag + " needs a value"};
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 600) throw UsageError{"--seconds must be 1..600"};
      o.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw UsageError{"--trace must be 0 or 1"};
      }
      o.trace = value == "1";
    } else if (flag == "--variant") {
      o.variant = value;
    } else {
      o.trace_out = value;
    }
  }
  if (o.workload.empty()) throw UsageError{"--workload is required"};
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void write_trace(const Options& o, const Tracer& tracer,
                 const std::vector<Metric>& per_layer) {
  std::ofstream out(o.trace_out);
  out << "{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
      << ",\"spans\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? "," : "") << "{\"id\":" << i
        << ",\"name\":" << json_string(s.name)
        << ",\"start_s\":" << json_number(s.start_s)
        << ",\"end_s\":" << json_number(s.end_s) << ",\"parent\":" << s.parent
        << ",\"rep\":" << s.rep << "}";
  }
  out << "],\"per_layer\":" << metrics_json(per_layer) << "}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + o.trace_out);
}

int run(const Options& o) {
  const std::unique_ptr<Workload> workload = make_workload(o);
  Tracer tracer;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  const std::size_t min_reps = o.trace ? 2 : 3;
  // A traced run leaves half its time to the layer probes.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const int rep = static_cast<int>(reps.size());
    // Traced runs alternate traced and untraced repetitions so the
    // tracing overhead is measured under the same conditions.
    const bool use_trace = o.trace && rep % 2 == 1;
    const Clock::time_point rep_start = Clock::now();
    reps.push_back(workload->run_rep(use_trace ? &tracer : nullptr, rep));
    traced.push_back(use_trace);
    const double rep_s = seconds_since(rep_start);
    if (reps.size() >= min_reps && seconds_since(start) + rep_s > budget) {
      break;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].attempted + 1;
    failed += reps[i].failed;
    for (const std::string& f : reps[i].failures) {
      failures.push_back("rep " + std::to_string(i) + ": " + f);
    }
    // Model identity: every repetition of one seed must simulate the
    // same thing.
    if (reps[i].model != reps[0].model) {
      ++failed;
      failures.push_back("rep " + std::to_string(i) +
                         ": simulated statistics differ from rep 0");
    }
  }

  std::vector<double> setup, run_s, wall, rate, wall_traced;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (traced[i]) {
      wall_traced.push_back(reps[i].wall_s);
      continue;
    }
    setup.push_back(reps[i].setup_s);
    run_s.push_back(reps[i].run_s);
    wall.push_back(reps[i].wall_s);
    rate.push_back(reps[i].commands / reps[i].run_s);
  }
  const std::size_t n = setup.size();
  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup), "s", n},
      {"run_s", median(run_s), "s", n},
      {"wall_s", median(wall), "s", n},
      {"cmds_per_s", median(rate), "1/s", n},
      {"peak_rss_mib", peak_rss_mib(), "MiB", 1},
  };

  std::vector<Metric> per_layer;
  double overhead_pct = 0.0;
  if (o.trace) {
    ProbeInput input;
    {
      const Scope s(&tracer, "probe.input", -1);
      input = workload->probe_input(tracer);
    }
    per_layer = layer_metrics(input, o.smoke, tracer);
    for (Metric count : reps[0].counts) {
      count.samples = reps.size();
      per_layer.push_back(count);
    }
    overhead_pct = (median(wall_traced) / median(wall) - 1.0) * 100.0;
    if (!o.trace_out.empty()) write_trace(o, tracer, per_layer);
  }

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(reps[0].model)));
  std::ostringstream out;
  out << "{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
      << ",\"seconds\":" << json_number(o.seconds)
      << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"smoke\":" << (o.smoke ? "true" : "false")
      << ",\"variant\":" << json_string(o.variant)
      << ",\"fingerprint\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << json_string(cpu_model())
      << ",\"compiler\":" << json_string(XLF_BENCH_COMPILER)
      << ",\"build_type\":" << json_string(XLF_BENCH_BUILD_TYPE) << "}"
      << ",\"reps\":" << reps.size()
      << ",\"traced_reps\":" << wall_traced.size()
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"repetitions\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out << (i > 0 ? "," : "")
        << "{\"traced\":" << (traced[i] ? "true" : "false")
        << ",\"setup_s\":" << json_number(reps[i].setup_s)
        << ",\"run_s\":" << json_number(reps[i].run_s)
        << ",\"wall_s\":" << json_number(reps[i].wall_s) << "}";
  }
  out << "],\"failures\":[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    out << (i > 0 ? "," : "") << json_string(failures[i]);
  }
  out << "],\"model_digest\":\"" << digest << "\",\"counts\":{";
  for (std::size_t i = 0; i < reps[0].counts.size(); ++i) {
    out << (i > 0 ? "," : "") << json_string(reps[0].counts[i].name) << ":"
        << json_number(reps[0].counts[i].value);
  }
  out << "},\"end_to_end\":" << metrics_json(end_to_end)
      << ",\"per_layer\":" << metrics_json(per_layer)
      << ",\"trace_overhead_pct\":" << json_number(overhead_pct) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool help = false;
  Options options;
  try {
    options = parse(argc, argv, help);
  } catch (const UsageError& e) {
    std::cerr << "xlf_bench: " << e.message << "\n" << kUsage;
    return 2;
  }
  if (help) {
    std::cout << kUsage;
    return 0;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "xlf_bench: " << e.what() << "\n";
    return 1;
  }
}
