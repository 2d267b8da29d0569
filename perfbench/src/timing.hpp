// Host-time measurement for xlf_bench: a monotonic clock,
// sample summaries (median / percentiles with their sample count) and
// an in-memory span recorder for the traced run.
//
// Spans are recorded only around xlf_bench's own calls into each
// layer; nothing inside the library is instrumented. The recorder is
// a plain vector appended to on the benchmark thread and written out
// once, after the last measurement.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

struct Span {
  std::string name;
  double start_s = 0.0;  // since the recorder's origin
  double end_s = 0.0;
  int parent = -1;       // index into the span list, -1 = root
  int rep = -1;          // repetition the span belongs to (-1 = probe)
};

// In-memory span list; a null recorder makes every Scope a no-op, so
// untraced repetitions pay one branch per phase.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int open(const std::string& name, int rep) {
    Span span;
    span.name = name;
    span.start_s = seconds_since(origin_);
    span.parent = current_;
    span.rep = rep;
    spans_.push_back(span);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_s = seconds_since(origin_);
    current_ = span.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations of every closed span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.end_s - span.start_s);
    }
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int rep)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, rep) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Per-call timings of one probe, in the probe's unit.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }
  double p50() const { return quantile(values, 0.5); }
  double p99() const { return quantile(values, 0.99); }
};

// Time `op` once, in microseconds.
template <class Op>
double time_us(Op&& op) {
  const Clock::time_point start = Clock::now();
  op();
  return seconds_since(start) * 1e6;
}

// Per-call nanoseconds of a cheap operation: `batches` timed batches
// of `batch` calls each, one sample per batch.
template <class Op>
Samples time_batched_ns(Op&& op, std::size_t batch, std::size_t batches) {
  for (std::size_t i = 0; i < batch; ++i) op();  // warm-up
  Samples samples;
  for (std::size_t b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    samples.add(seconds_since(start) * 1e9 / static_cast<double>(batch));
  }
  return samples;
}

}  // namespace perfbench
