#include "src/ftl/ssd.hpp"

#include <memory>
#include <utility>

#include "src/util/expect.hpp"

namespace xlf::ftl {

Ssd::Ssd(const SsdConfig& config)
    : config_(config), active_point_(config.point) {
  const std::size_t die_count =
      static_cast<std::size_t>(config.topology.channels) *
      config.topology.dies_per_channel;
  XLF_EXPECT(die_count >= 1);
  XLF_EXPECT(config.initial_pe_cycles >= 0.0);

  subsystems_.reserve(die_count);
  std::vector<controller::MemoryController*> controllers;
  controllers.reserve(die_count);
  for (std::size_t d = 0; d < die_count; ++d) {
    core::SubsystemConfig die_config = config.die;
    // Distinct device noise per die, derived deterministically.
    die_config.device.array.seed =
        config.die.device.array.seed + static_cast<std::uint64_t>(d) + 1;
    // The seed is the only difference between dies, and ISPP
    // characterisation never reads it: every die shares die 0's
    // trace cache, so each key is characterised once per Ssd.
    std::shared_ptr<nand::IsppTraceCache> traces =
        d == 0 ? nullptr : subsystems_.front()->device().timing().trace_cache();
    subsystems_.push_back(std::make_unique<core::MemorySubsystem>(
        die_config, std::move(traces)));
    if (config.initial_pe_cycles > 0.0) {
      subsystems_.back()->device().set_uniform_wear(config.initial_pe_cycles);
    }
    controllers.push_back(&subsystems_.back()->controller());
  }
  apply(config.point);
  dispatcher_ = std::make_unique<controller::DieDispatcher>(config.topology);
  ftl_ = std::make_unique<Ftl>(config.ftl, std::move(controllers), &durable_);
}

void Ssd::set_fault_injector(FaultInjector* injector) {
  fault_ = injector;
  ftl_->set_fault_injector(injector);
}

void Ssd::remount() {
  std::vector<controller::MemoryController*> controllers;
  controllers.reserve(subsystems_.size());
  for (auto& subsystem : subsystems_) {
    controllers.push_back(&subsystem->controller());
  }
  ftl_.reset();  // DRAM gone first — nothing of the old mount survives
  ftl_ = std::make_unique<Ftl>(config_.ftl, std::move(controllers), &durable_);
  ftl_->set_fault_injector(fault_);
  ftl_->rebuild_from_oob();
}

void Ssd::apply(const core::OperatingPoint& point) {
  for (auto& subsystem : subsystems_) subsystem->apply(point);
  active_point_ = point;
}

core::Metrics Ssd::block_metrics(std::uint32_t die, std::uint32_t block) const {
  XLF_EXPECT(die < subsystems_.size());
  return subsystems_[die]->framework().evaluate(active_point_,
                                                ftl_->wear(die, block));
}

}  // namespace xlf::ftl
