#include "src/nand/ispp.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/util/expect.hpp"

namespace xlf::nand {

Seconds IsppTrace::duration() const {
  // Pulses and verifies are strictly sequential in a NAND plane.
  return setup_time + program_pump_time + verify_pump_time;
}

Volts IsppTrace::average_vcg() const {
  if (program_pump_time.value() <= 0.0) return Volts{0.0};
  return Volts{vcg_time_integral / program_pump_time.value()};
}

IsppEngine::IsppEngine(const IsppConfig& config, const VoltagePlan& plan)
    : config_(config), plan_(plan) {
  XLF_EXPECT(config_.v_step.value() > 0.0);
  XLF_EXPECT(config_.v_end > config_.v_start);
  XLF_EXPECT(config_.max_pulses >= 1);
  XLF_EXPECT(plan_.consistent());
}

IsppTrace IsppEngine::program(std::span<FloatingGateCell> cells,
                              std::span<const Level> targets,
                              ProgramAlgorithm algo, Rng& rng,
                              double dv_zone_multiplier) const {
  XLF_EXPECT(cells.size() == targets.size());
  XLF_EXPECT(dv_zone_multiplier >= 1.0);
  IsppTrace trace;
  trace.algorithm = algo;
  trace.setup_time = config_.setup_time;

  const bool double_verify = algo == ProgramAlgorithm::kIsppDv;

  // Per-cell programming state.
  enum class State : std::uint8_t { kInhibited, kPulsing, kSlowZone };
  std::vector<State> state(cells.size(), State::kInhibited);
  std::array<std::size_t, 4> pending_per_level{0, 0, 0, 0};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (targets[i] != Level::kL0) {
      state[i] = State::kPulsing;
      ++pending_per_level[static_cast<std::size_t>(targets[i])];
    }
  }

  // Active sets, sized once and shrunk by count: `active` holds every
  // cell still being pulsed, in ascending index order — the order the
  // pulses draw from `rng` — and `lists` past it holds one ascending
  // list per level L1..L3 starting at level_begin[level], whose length
  // is that level's pending count, so a verify scan touches only its
  // level's pending cells.
  XLF_EXPECT(cells.size() <= UINT32_MAX);
  std::size_t active_count =
      pending_per_level[1] + pending_per_level[2] + pending_per_level[3];
  std::vector<std::uint32_t> lists(2 * active_count);
  const std::span<std::uint32_t> active(lists.data(), active_count);
  std::uint32_t* const by_level = lists.data() + active_count;
  const std::array<std::size_t, 4> level_begin{
      0, 0, pending_per_level[1], pending_per_level[1] + pending_per_level[2]};
  {
    std::array<std::size_t, 4> fill = level_begin;
    std::size_t next_active = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (state[i] == State::kInhibited) continue;
      const auto cell = static_cast<std::uint32_t>(i);
      active[next_active++] = cell;
      by_level[fill[static_cast<std::size_t>(targets[i])]++] = cell;
    }
  }

  Volts vcg = config_.v_start;
  for (unsigned pulse = 0; pulse < config_.max_pulses; ++pulse) {
    if (active_count == 0) break;

    // --- program pulse ------------------------------------------------
    for (std::size_t k = 0; k < active_count; ++k) {
      const std::uint32_t i = active[k];
      if (state[i] == State::kPulsing) {
        cells[i].apply_pulse(vcg, rng);
      } else {
        cells[i].apply_pulse(vcg, rng, config_.dv_bitline_bias);
      }
    }
    ++trace.pulses;
    trace.program_pump_time += config_.pulse_time;
    trace.inhibit_pump_time += config_.pulse_time;
    trace.vcg_time_integral += vcg.value() * config_.pulse_time.value();

    // --- verify phase ---------------------------------------------
    bool inhibited_any = false;
    for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
      const auto li = static_cast<std::size_t>(level);
      if (pending_per_level[li] == 0) continue;
      std::uint32_t* const pending = by_level + level_begin[li];

      // Smart scheduling: sense this level only when its fastest
      // pending cell is within lookahead of the sensing voltage — the
      // pre-verify level for DV, the verify level for SV.
      const Volts vfy = plan_.verify_for(level);
      const Volts pre =
          vfy - plan_.pre_verify_offset * dv_zone_multiplier;
      const Volts sense_from = double_verify ? pre : vfy;
      Volts fastest{-100.0};
      for (std::size_t k = 0; k < pending_per_level[li]; ++k) {
        fastest = std::max(fastest, cells[pending[k]].vth());
      }
      if (fastest < sense_from - config_.verify_lookahead) continue;

      if (double_verify) {
        // Pre-verify sense: move cells past VFYp into the slow zone.
        ++trace.verify_ops;
        trace.verify_pump_time += config_.verify_time;
        for (std::size_t k = 0; k < pending_per_level[li]; ++k) {
          const std::uint32_t i = pending[k];
          if (state[i] == State::kPulsing && cells[i].vth() >= pre) {
            state[i] = State::kSlowZone;
          }
        }
      }

      // Main verify sense: inhibit cells that reached the level, and
      // keep the rest in order at the front of the level's list.
      ++trace.verify_ops;
      trace.verify_pump_time += config_.verify_time;
      std::size_t kept = 0;
      for (std::size_t k = 0; k < pending_per_level[li]; ++k) {
        const std::uint32_t i = pending[k];
        if (cells[i].vth() >= vfy) {
          state[i] = State::kInhibited;
        } else {
          pending[kept++] = i;
        }
      }
      inhibited_any = inhibited_any || kept != pending_per_level[li];
      pending_per_level[li] = kept;
    }

    if (inhibited_any) {
      std::size_t kept = 0;
      for (std::size_t k = 0; k < active_count; ++k) {
        if (state[active[k]] != State::kInhibited) active[kept++] = active[k];
      }
      active_count = kept;
    }

    vcg = std::min(vcg + config_.v_step, config_.v_end);
  }

  trace.failed_cells = static_cast<unsigned>(
      pending_per_level[1] + pending_per_level[2] + pending_per_level[3]);
  trace.converged = trace.failed_cells == 0;
  return trace;
}

std::vector<Volts> IsppEngine::staircase_response(FloatingGateCell cell,
                                                  Volts v_start, Volts v_end,
                                                  Volts v_step,
                                                  Rng& rng) const {
  XLF_EXPECT(v_step.value() > 0.0);
  XLF_EXPECT(v_end > v_start);
  std::vector<Volts> response;
  for (Volts vcg = v_start; vcg <= v_end; vcg += v_step) {
    cell.apply_pulse(vcg, rng);
    response.push_back(cell.vth());
  }
  return response;
}

}  // namespace xlf::nand
