// Deterministic random number generation for Monte-Carlo simulation.
//
// Every stochastic component (cell variability, injection granularity,
// error injection, workload arrival) draws from an Rng seeded
// explicitly, so each experiment is reproducible bit-for-bit and each
// test can pin its expectations. The generator is xoshiro256**, seeded
// through SplitMix64 — small, fast and statistically solid, and, unlike
// std::mt19937, identical across standard library implementations.
#pragma once

#include <array>
#include <cstdint>

namespace xlf {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound);
  // Standard normal via Box-Muller (cached second draw).
  double gaussian();
  double gaussian(double mean, double sigma);
  // Bernoulli trial.
  bool chance(double p);
  // Poisson draw (Knuth for small lambda, normal approximation above).
  std::uint64_t poisson(double lambda);

  // Derive an independent stream, e.g. one per cell/page/worker.
  Rng fork();

  // Counter-based substream for the key (seed, a, b, c, tag), e.g.
  // (array seed, block, page, erase generation, purpose). The key is
  // folded through SplitMix64 one component at a time, so keys that
  // differ in any single component seed different streams, and a
  // stream never depends on which other keys were drawn before it.
  static Rng keyed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c, std::uint64_t tag);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace xlf
