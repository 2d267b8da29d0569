#include "src/core/subsystem.hpp"

#include <algorithm>
#include <utility>

#include "src/util/expect.hpp"

namespace xlf::core {

SubsystemConfig SubsystemConfig::defaults() {
  SubsystemConfig config;
  // Defaults across the member configs already encode the paper's
  // parameters (GF(2^16)/4KB/t=3..65, 14-19 V ISPP, 80 MHz codec).
  return config;
}

MemorySubsystem::MemorySubsystem(const SubsystemConfig& config,
                                 std::shared_ptr<nand::IsppTraceCache> traces)
    : config_(config),
      device_(std::make_unique<nand::NandDevice>(config.device,
                                                 std::move(traces))),
      controller_(std::make_unique<controller::MemoryController>(
          config.controller, *device_, config.hv)),
      framework_(std::make_unique<CrossLayerFramework>(
          config.cross_layer, config.device.array.aging, device_->timing(),
          config.hv)),
      active_point_(OperatingPoint::baseline()) {
  apply(active_point_);
}

double MemorySubsystem::representative_wear() const {
  // Uniform wear levelling assumption: use the maximum block wear.
  double wear = 0.0;
  for (std::uint32_t b = 0; b < device_->geometry().blocks; ++b) {
    wear = std::max(wear, device_->wear(b));
  }
  return wear;
}

void MemorySubsystem::apply(const OperatingPoint& point) {
  const double wear = representative_wear();
  controller_->set_program_algorithm(point.algorithm);
  controller_->set_correction_capability(framework_->resolve_t(point, wear));
  active_point_ = point;
}

void MemorySubsystem::refresh() { apply(active_point_); }

Metrics MemorySubsystem::current_metrics() const {
  return framework_->evaluate(active_point_, representative_wear());
}

const Segment* MemorySubsystem::segment_of(std::uint32_t block) const {
  for (const Segment& segment : segments_) {
    if (block >= segment.first_block && block <= segment.last_block) {
      return &segment;
    }
  }
  return nullptr;
}

void MemorySubsystem::define_segment(const Segment& segment) {
  XLF_EXPECT(segment.first_block <= segment.last_block);
  XLF_EXPECT(segment.last_block < device_->geometry().blocks);
  for (std::uint32_t b = segment.first_block; b <= segment.last_block; ++b) {
    XLF_EXPECT(segment_of(b) == nullptr && "overlapping segments");
  }
  segments_.push_back(segment);
}

controller::WriteResult MemorySubsystem::write_page(nand::PageAddress addr,
                                                    const BitVec& data) {
  const Segment* segment = segment_of(addr.block);
  if (segment != nullptr) {
    // Service switch: configure both layers for this segment's point.
    const double wear = device_->wear(addr.block);
    controller_->set_program_algorithm(segment->point.algorithm);
    controller_->set_correction_capability(
        framework_->resolve_t(segment->point, wear));
  } else {
    refresh();
  }
  return controller_->write_page(addr, data);
}

controller::ReadResult MemorySubsystem::read_page(nand::PageAddress addr) {
  // Reads honour per-page metadata inside the controller; no segment
  // reconfiguration needed.
  return controller_->read_page(addr);
}

}  // namespace xlf::core
