#include "src/explore/monte_carlo.hpp"

#include "src/explore/fits_in_memory.hpp"
#include "src/util/expect.hpp"

namespace xlf::explore {

double MonteCarloResult::uncorrectable_page_rate() const {
  if (merged.reads == 0) return 0.0;
  return static_cast<double>(merged.uncorrectable) /
         static_cast<double>(merged.reads);
}

MonteCarloResult run_monte_carlo(const MonteCarloSpec& spec,
                                 ThreadPool& pool) {
  XLF_EXPECT(spec.workload != nullptr);
  XLF_EXPECT(spec.replicas > 0);
  XLF_EXPECT(spec.requests_per_replica > 0);
  XLF_EXPECT(spec.pe_cycles >= 0.0);

  // Per-replica state is allocated whole, so the replica count is
  // bounded by memory.
  std::vector<Rng> streams;
  std::vector<sim::SimStats> slots;
  fits_in_memory("--mc-replicas / monte_carlo.replicas", spec.replicas, [&] {
    streams.reserve(spec.replicas);
    slots.resize(spec.replicas);
  });
  // Fork all replica streams serially up front: fork() advances the
  // root generator, so doing it inside workers would order-depend.
  Rng root(spec.seed);
  for (std::size_t r = 0; r < spec.replicas; ++r) {
    streams.push_back(root.fork());
  }

  pool.parallel_for(spec.replicas, [&](std::size_t r) {
    Rng stream = streams[r];
    core::SubsystemConfig config = spec.subsystem;
    config.device.array.seed = stream.next();  // independent device noise
    core::MemorySubsystem subsystem(config);
    subsystem.device().set_uniform_wear(spec.pe_cycles);
    subsystem.apply(spec.point);

    const std::vector<sim::Request> requests = fits_in_memory(
        "--mc-requests / monte_carlo.requests", spec.requests_per_replica,
        [&] {
          return spec.workload->generate(subsystem.device().geometry(),
                                         spec.requests_per_replica, stream);
        });

    sim::SimConfig sim_config;
    sim_config.data_seed = stream.next();
    sim::SubsystemSimulator simulator(subsystem.controller(), sim_config);
    if (spec.prepopulate) simulator.prepopulate();
    slots[r] = simulator.run(requests);
  });

  MonteCarloResult result;
  result.replicas = spec.replicas;
  // Deterministic reduction: replica order, on this thread.
  for (const sim::SimStats& stats : slots) result.merged.merge(stats);
  return result;
}

}  // namespace xlf::explore
