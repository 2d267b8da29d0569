// NAND operation timing.
//
// Read and erase are datasheet constants (page read 75 us per the
// Micron part the paper cites [27]); program time *emerges* from the
// ISPP engine — a sampled cell population is programmed pulse by
// pulse and the trace duration is cached per (algorithm, age,
// pattern). This is where the paper's ~1.5 ms ISPP-SV program time
// and the growing ISPP-DV penalty (Fig. 9) come from.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "src/nand/aging.hpp"
#include "src/nand/ispp.hpp"
#include "src/nand/threshold.hpp"
#include "src/nand/variability.hpp"
#include "src/util/units.hpp"

namespace xlf::nand {

// Page-buffer data-load strategy (paper footnote 1 / Section 6.3.3):
// full-sequence loads both logical pages before programming starts;
// the two-round strategy overlaps half the load with programming,
// mitigating the write-throughput penalty.
enum class LoadStrategy { kFullSequence, kTwoRound };

struct TimingConfig {
  Seconds read_time = Seconds::micros(75.0);   // [27]
  Seconds erase_time = Seconds::millis(2.5);
  // Host-side I/O bandwidth for page transfers (legacy async NAND bus).
  BytesPerSecond io_bandwidth = BytesPerSecond::mib(40.0);
  // Cell population sampled when characterising program time.
  unsigned sample_cells = 8192;
  std::uint64_t sample_seed = 0xB10C5EED;
};

// Characterised ISPP traces keyed by (algorithm, pattern, quantised
// age). An entry is a pure function of its key and of the
// characterisation inputs (TimingConfig's sample fields and the
// array's ISPP, plan, variability and aging configs — never
// ArrayConfig::seed), so every NandTiming built from equal inputs may
// share one cache: an Ssd hands die 0's to dies 1..N-1, whose configs
// differ only in the array seed.
//
// Concurrency: find() and insert() take one mutex for a map search;
// on one thread, or on threads that seldom collide, that lock is
// uncontended and costs a few ns. insert() keeps the first entry for a
// key and returns it, so a duplicate characterisation race is
// harmless. Entries are never moved or erased: a returned reference
// stays valid for the lifetime of the cache.
class IsppTraceCache {
 public:
  struct Key {
    int algo = 0;
    int pattern = -1;  // level index, -1 = uniform random data
    long age = 0;      // lround(12 * log10(max(pe_cycles, 1)))
  };

  // nullptr on a miss.
  const IsppTrace* find(const Key& key) const;
  const IsppTrace& insert(const Key& key, IsppTrace trace);

 private:
  // A pure memo, never held across a call out of this class, so no
  // lock ordering can form around it.
  mutable std::mutex mutex_;  // xlf-lint: allow(lock-order)
  std::map<std::tuple<int, int, long>, IsppTrace> entries_;
};

class NandTiming {
 public:
  // `traces` shares another NandTiming's characterisation cache; it
  // must come from a NandTiming with equal characterisation inputs
  // (see IsppTraceCache). nullptr starts a private cache.
  NandTiming(const TimingConfig& config, const IsppConfig& ispp,
             const VoltagePlan& plan, const VariabilityConfig& variability,
             const AgingLaw& aging,
             std::shared_ptr<IsppTraceCache> traces = nullptr);

  Seconds read_time() const { return config_.read_time; }
  Seconds erase_time() const { return config_.erase_time; }
  Seconds io_transfer_time(std::size_t bytes) const;

  // Characteristic ISPP trace for one page program at the given age.
  // `pattern` restricts every programmed cell to one target level
  // (the Fig. 6 L1/L2/L3 patterns); nullopt = uniform random data.
  // Results are cached on a log-spaced age grid (12 keys per decade)
  // and characterised at the key's canonical age, so an entry is a
  // pure function of (algo, pattern, quantised age) and concurrent
  // callers observe the same bits whichever thread filled it. A hit
  // is one locked map search; a miss characterises outside the lock,
  // so cold keys fill in parallel. The reference stays valid while any
  // NandTiming sharing the cache lives.
  const IsppTrace& sample_trace(ProgramAlgorithm algo, double pe_cycles,
                                std::optional<Level> pattern = std::nullopt) const;

  Seconds program_time(ProgramAlgorithm algo, double pe_cycles) const;

  // Full page-write busy time including the data load under the given
  // strategy (the ECC encode latency is the controller's concern).
  Seconds page_write_time(ProgramAlgorithm algo, double pe_cycles,
                          std::size_t page_bytes, LoadStrategy strategy) const;

  const TimingConfig& config() const { return config_; }
  const std::shared_ptr<IsppTraceCache>& trace_cache() const {
    return traces_;
  }

 private:
  IsppTrace characterize(ProgramAlgorithm algo, double pe_cycles,
                         std::optional<Level> pattern) const;

  TimingConfig config_;
  IsppConfig ispp_config_;
  VoltagePlan plan_;
  AgingLaw aging_;
  VariabilitySampler variability_;
  IsppEngine engine_;
  std::shared_ptr<IsppTraceCache> traces_;
};

}  // namespace xlf::nand
