// MemorySubsystem: the one-stop facade a downstream user instantiates
// — NAND device + memory controller + cross-layer framework, wired
// consistently from a single configuration. Operating points are
// applied here: the facade programs both layers (device algorithm
// register and controller ECC capability) atomically, which is
// exactly the co-configuration the paper argues for.
//
// It also implements the paper's future-work extension: per-segment
// differentiated storage services, where block ranges carry their own
// operating point (e.g. an OTP/XIP segment on MinUber and a bulk
// segment on Baseline).
//
// Role in the trade-off loop: MemorySubsystem is the loop's actuator
// and its entry point for users. apply(point) asks the framework for
// the resolved (algo, t) at the current wear and commits it to both
// hardware layers; refresh() re-runs that resolution at epoch
// boundaries as the device ages; current_metrics() reports where on
// the trade-off surface the subsystem is now operating.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "src/controller/controller.hpp"
#include "src/core/cross_layer.hpp"
#include "src/core/operating_point.hpp"
#include "src/nand/device.hpp"

namespace xlf::core {

struct SubsystemConfig {
  nand::DeviceConfig device;
  controller::ControllerConfig controller;
  hv::HvConfig hv;
  CrossLayerConfig cross_layer;

  // A small default geometry keeps the bit-true array affordable;
  // enlarge for capacity experiments.
  static SubsystemConfig defaults();
};

// Named block range bound to an operating point (storage service).
struct Segment {
  std::string name;
  std::uint32_t first_block = 0;
  std::uint32_t last_block = 0;  // inclusive
  OperatingPoint point;
};

class MemorySubsystem {
 public:
  // `traces` shares the device's ISPP characterisation cache with
  // another subsystem whose config differs at most in the array seed
  // (an Ssd's dies); nullptr starts a private cache.
  explicit MemorySubsystem(
      const SubsystemConfig& config,
      std::shared_ptr<nand::IsppTraceCache> traces = nullptr);

  nand::NandDevice& device() { return *device_; }
  controller::MemoryController& controller() { return *controller_; }
  const CrossLayerFramework& framework() const { return *framework_; }

  // --- cross-layer configuration --------------------------------------
  // Apply an operating point for the current device wear: selects the
  // program algorithm on the device and the correction capability on
  // the controller in one step.
  void apply(const OperatingPoint& point);
  const OperatingPoint& active_point() const { return active_point_; }
  // Re-resolve the active point after wear changed (epoch boundary).
  void refresh();
  // Predicted metrics of the active point at the current wear.
  Metrics current_metrics() const;

  // --- differentiated storage services (Section 7 future work) -------
  // Declare a segment; ranges must not overlap existing segments.
  void define_segment(const Segment& segment);
  const std::vector<Segment>& segments() const { return segments_; }
  // Write/read honouring the segment service of the target block.
  controller::WriteResult write_page(nand::PageAddress addr,
                                     const BitVec& data);
  controller::ReadResult read_page(nand::PageAddress addr);

 private:
  double representative_wear() const;
  const Segment* segment_of(std::uint32_t block) const;

  SubsystemConfig config_;
  std::unique_ptr<nand::NandDevice> device_;
  std::unique_ptr<controller::MemoryController> controller_;
  std::unique_ptr<CrossLayerFramework> framework_;
  OperatingPoint active_point_;
  std::vector<Segment> segments_;
};

}  // namespace xlf::core
