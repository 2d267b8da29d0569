// Per-layer metrics of the traced run.
//
// Phase metrics are medians of the spans recorded around the
// benchmark's own calls (construction, prepopulate, generate, remount,
// consistency audit, read-back, sweep, Monte-Carlo). Layer probes then
// call each layer's public functions on inputs taken from the
// workload's end state — its die configuration, highest wear and
// correction capability, host queue shape and the FTL itself — so a
// layer's self time follows by subtraction, e.g.
// controller.read_page_us - nand.read_page_us - bch.decode_us.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "src/bch/code_params.hpp"
#include "src/bch/decoder.hpp"
#include "src/bch/encoder.hpp"
#include "src/bch/error_injection.hpp"
#include "src/bch/generator.hpp"
#include "src/controller/controller.hpp"
#include "src/core/cross_layer.hpp"
#include "src/explore/monte_carlo.hpp"
#include "src/explore/sweep.hpp"
#include "src/gf/gf2m.hpp"
#include "src/host/command.hpp"
#include "src/nand/device.hpp"
#include "src/policy/policy.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/workload.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace xlf;

BitVec random_bits(std::size_t bits, Rng& rng) {
  BitVec out(bits);
  for (std::size_t i = 0; i < bits / 8; ++i) {
    out.set_byte(i, static_cast<std::uint8_t>(rng.next()));
  }
  return out;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe check failed: " + what);
}

class Sink {
 public:
  explicit Sink(std::vector<Metric>& out) : out_(&out) {}
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    out_->push_back(Metric{name, value, unit, samples});
  }
  void p50(const std::string& name, const Samples& s, const char* unit) {
    add(name + ".p50", s.p50(), unit, s.count());
  }
  bool has(const std::string& name) const {
    return std::any_of(out_->begin(), out_->end(),
                       [&](const Metric& m) { return m.name == name; });
  }

 private:
  std::vector<Metric>* out_;
};

// A few-block copy of the workload's die: full-size pages, the
// workload's wear, bit-true or metadata-only cells.
nand::DeviceConfig probe_device(const ProbeInput& in, bool data_plane) {
  nand::DeviceConfig config = in.die.device;
  config.array.geometry.blocks = 4;
  config.data_plane = data_plane;
  return config;
}

unsigned clamp_t(const ProbeInput& in) {
  const bch::AdaptiveCodecConfig& codec = in.die.controller.codec;
  return std::clamp(in.t, codec.t_min, codec.t_max);
}

void probe_nand(const ProbeInput& in, bool smoke, Sink& sink) {
  Samples construct;
  for (int i = 0; i < (smoke ? 1 : 3); ++i) {
    const Clock::time_point start = Clock::now();
    const nand::NandDevice device(in.die.device);
    construct.add(seconds_since(start));
  }
  sink.add("nand.construct_s", construct.p50(), "s", construct.count());

  nand::NandDevice device(probe_device(in, true));
  device.set_uniform_wear(in.wear);
  const nand::Geometry& g = device.geometry();
  Rng rng(in.seed ^ 0x4E414E44u);
  Samples erase, program, read;
  for (int round = 0; round < (smoke ? 1 : 4); ++round) {
    for (std::uint32_t b = 0; b < g.blocks; ++b) {
      erase.add(time_us([&] { device.erase_block(b); }));
      for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
        const BitVec bits = random_bits(g.bits_per_page(), rng);
        program.add(time_us([&] { device.program_page({b, p}, bits); }));
      }
      for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
        read.add(time_us([&] { static_cast<void>(device.read_page({b, p})); }));
      }
    }
  }
  sink.p50("nand.program_page_us", program, "us");
  sink.p50("nand.read_page_us", read, "us");
  sink.p50("nand.erase_block_us", erase, "us");

  Rng gauss(in.seed);
  double acc = 0.0;
  const Samples ns = time_batched_ns([&] { acc += gauss.gaussian(); },
                                     smoke ? 1000 : 200000, smoke ? 3 : 11);
  require(std::isfinite(acc), "gaussian draws are finite");
  sink.add("util.rng_gaussian_ns", ns.p50(), "ns", ns.count());
}

void probe_bch(const ProbeInput& in, bool smoke, Sink& sink) {
  const bch::AdaptiveCodecConfig& codec = in.die.controller.codec;
  const unsigned t = clamp_t(in);
  const gf::Gf2m field(codec.m);
  const bch::CodeParams params{codec.m, codec.k, t};
  bch::GeneratorCache generators(field);
  const bch::Encoder encoder(params, generators.get(t));
  const bch::Decoder decoder(field, params);
  // Raw errors per codeword at the end-state wear, within t so every
  // decode must succeed.
  const double rber =
      in.die.device.array.aging.rber(nand::ProgramAlgorithm::kIsppSv, in.wear);
  const auto errors = static_cast<std::size_t>(std::clamp(
      std::round(rber * params.n()), 1.0, static_cast<double>(t)));

  Rng rng(in.seed ^ 0xBC4u);
  Samples encode, decode, syndromes, bm, chien;
  const std::size_t words = smoke ? 10 : 1000;
  for (std::size_t i = 0; i < words; ++i) {
    const BitVec message = random_bits(codec.k, rng);
    BitVec codeword;
    encode.add(time_us([&] { codeword = encoder.encode(message); }));
    BitVec received = codeword;
    bch::inject_exact(received, errors, rng);
    if (i % 5 == 0) {
      std::vector<gf::Element> syn;
      syndromes.add(time_us([&] { syn = decoder.syndromes(received); }));
      gf::GfpPoly lambda;
      bm.add(time_us([&] { lambda = decoder.berlekamp_massey(syn); }));
      std::vector<std::uint32_t> roots;
      chien.add(time_us([&] { roots = decoder.chien_search(lambda); }));
      require(roots.size() == errors, "Chien search finds every error");
    }
    // Decode the way the workload's controller does: against the
    // written codeword under simulation fast-decode, blind otherwise.
    bch::DecodeResult result;
    decode.add(time_us([&] {
      result = in.die.controller.simulation_fast_decode
                   ? decoder.decode_with_reference(received, codeword)
                   : decoder.decode(received);
    }));
    require(result.ok() && result.corrected == errors && received == codeword,
            "decode corrects every injected error");
  }
  sink.p50("bch.encode_us", encode, "us");
  sink.p50("bch.decode_us", decode, "us");
  sink.add("bch.decode_us.p99", decode.p99(), "us", decode.count());
  sink.p50("bch.syndromes_us", syndromes, "us");
  sink.p50("bch.berlekamp_massey_us", bm, "us");
  sink.p50("bch.chien_search_us", chien, "us");

  std::vector<gf::Element> a(4096), b(4096);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1 + static_cast<gf::Element>(rng.below(field.order()));
    b[i] = 1 + static_cast<gf::Element>(rng.below(field.order()));
  }
  gf::Element acc = 0;
  std::size_t i = 0;
  const Samples ns = time_batched_ns(
      [&] {
        acc ^= field.mul(a[i & 4095], b[i & 4095]);
        ++i;
      },
      smoke ? 1000 : 1 << 20, smoke ? 3 : 11);
  require(acc < field.size(), "products stay in the field");
  sink.add("gf.mul_ns", ns.p50(), "ns", ns.count());
}

// Erase -> program every page -> read every page back, per block,
// through the controller; returns {write, read} samples.
std::pair<Samples, Samples> controller_cycle(const ProbeInput& in,
                                             bool data_plane, int rounds) {
  nand::NandDevice device(probe_device(in, data_plane));
  device.set_uniform_wear(in.wear);
  controller::MemoryController ctrl(in.die.controller, device, in.die.hv);
  ctrl.set_correction_capability(clamp_t(in));
  const nand::Geometry& g = device.geometry();
  const std::size_t k = in.die.controller.codec.k;
  Rng rng(in.seed ^ (data_plane ? 0xC7u : 0x3E7Au));
  Samples write, read;
  std::vector<BitVec> pages(g.pages_per_block);
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t b = 0; b < g.blocks; ++b) {
      ctrl.erase_block(b);
      for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
        pages[p] = data_plane ? random_bits(k, rng) : BitVec(0);
        controller::WriteResult w;
        write.add(time_us([&] { w = ctrl.write_page({b, p}, pages[p]); }));
        require(w.ok, "controller write");
      }
      for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
        controller::ReadResult r;
        read.add(time_us([&] { r = ctrl.read_page({b, p}); }));
        require(r.ok && (!data_plane || r.data == pages[p]),
                "controller read returns the written page");
      }
    }
  }
  return {write, read};
}

void probe_controller(const ProbeInput& in, bool smoke, Sink& sink) {
  const auto [write, read] = controller_cycle(in, true, smoke ? 1 : 4);
  sink.p50("controller.read_page_us", read, "us");
  sink.p50("controller.write_page_us", write, "us");
  const auto [meta_write, meta_read] =
      controller_cycle(in, false, smoke ? 1 : 50);
  sink.p50("controller.read_page_meta_us", meta_read, "us");
  sink.p50("controller.write_page_meta_us", meta_write, "us");

  nand::NandDevice device(probe_device(in, false));
  controller::MemoryController ctrl(in.die.controller, device, in.die.hv);
  const std::vector<double> wear = log_space(1.0, std::max(10.0, in.wear), 8);
  std::size_t i = 0;
  unsigned acc = 0;
  const Samples ns =
      time_batched_ns([&] { acc += ctrl.adapt_ecc(wear[i++ % 8]); },
                      smoke ? 100 : 20000, smoke ? 3 : 11);
  require(acc > 0, "adapt_ecc selects a capability");
  sink.add("controller.adapt_ecc_ns", ns.p50(), "ns", ns.count());
}

void probe_core(const ProbeInput& in, bool smoke, Sink& sink) {
  const explore::FrameworkSpec spec = explore::FrameworkSpec::from(in.die);
  const nand::NandTiming timing = spec.make_timing();
  const core::CrossLayerFramework framework(spec.cross_layer, spec.aging,
                                            timing, spec.hv);
  static_cast<void>(framework.enumerate(in.wear));  // characterise first
  const auto& hw = spec.cross_layer.ecc_hw;
  Samples evaluate;
  for (int round = 0; round < (smoke ? 1 : 10); ++round) {
    for (const auto algo :
         {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
      for (unsigned t = hw.t_min; t <= hw.t_max; ++t) {
        core::Metrics m;
        evaluate.add(
            time_us([&] { m = framework.evaluate(algo, t, in.wear); }));
        require(m.t == t, "evaluate keeps the configuration");
      }
    }
  }
  sink.p50("core.evaluate_us", evaluate, "us");
}

void probe_explore(const ProbeInput& in, bool smoke, Sink& sink) {
  ThreadPool pool(1);
  if (!sink.has("explore.sweep_space_s")) {
    explore::SweepSpec spec;
    spec.framework = explore::FrameworkSpec::from(in.die);
    spec.ages = in.ages;
    Samples s;
    for (int i = 0; i < (smoke ? 1 : 3); ++i) {
      explore::SweepResult result;
      s.add(time_us([&] { result = explore::sweep_space(spec, pool); }) *
            1e-6);
      require(result.cells.size() == spec.ages.size() * result.cells_per_age,
              "sweep grid shape");
    }
    sink.add("explore.sweep_space_s", s.p50(), "s", s.count());
  }
  if (!sink.has("explore.monte_carlo_s")) {
    const sim::MixedWorkload mixed(0.7);
    explore::MonteCarloSpec mc;
    mc.subsystem = in.die;
    mc.subsystem.device.array.geometry.blocks = 2;
    mc.subsystem.device.data_plane = true;
    mc.pe_cycles = in.wear;
    mc.workload = &mixed;
    mc.requests_per_replica = smoke ? 4 : 16;
    mc.replicas = 1;
    mc.seed = in.seed;
    Samples s;
    for (int i = 0; i < (smoke ? 1 : 3); ++i) {
      explore::MonteCarloResult result;
      s.add(time_us([&] { result = explore::run_monte_carlo(mc, pool); }) *
            1e-6);
      require(result.merged.uncorrectable == 0 &&
                  result.merged.data_mismatches == 0,
              "Monte-Carlo reads decode");
    }
    sink.add("explore.monte_carlo_s", s.p50(), "s", s.count());
  }
}

void probe_ftl(const ProbeInput& in, bool smoke, Sink& sink) {
  ftl::Ftl& ftl = in.ssd->ftl();
  const bool data_plane = in.ssd->config().die.device.data_plane;
  const std::size_t k = in.ssd->config().die.controller.codec.k;
  const std::uint32_t logical = ftl.logical_pages();
  Rng rng(in.seed ^ 0xF71u);
  // 1000 writes leave ten beyond the p99; reads report only a p50.
  const std::size_t writes = smoke ? 20 : 1000;
  const std::size_t reads = smoke ? 20 : 300;
  Samples write, read;
  for (std::size_t i = 0; i < writes; ++i) {
    const auto lpa = static_cast<ftl::Lpa>(rng.below(logical));
    const BitVec data = data_plane ? random_bits(k, rng) : BitVec(0);
    ftl::FtlOpResult res;
    write.add(time_us([&] { res = ftl.write(lpa, data); }));
    require(res.ok, "ftl write");
  }
  for (std::size_t i = 0; i < reads; ++i) {
    const auto lpa = static_cast<ftl::Lpa>(rng.below(logical));
    ftl::FtlOpResult res;
    read.add(time_us([&] { res = ftl.read(lpa); }));
    require(!res.uncorrectable, "ftl read decodes");
  }
  sink.p50("ftl.write_us", write, "us");
  sink.add("ftl.write_us.p99", write.p99(), "us", write.count());
  sink.p50("ftl.read_us", read, "us");

  const ftl::DieAllocator& alloc = ftl.allocator(0);
  const auto policy =
      policy::PolicyRegistry<policy::GcPolicy>::instance().make(in.gc_policy);
  const std::uint64_t now = ftl.logical_clock();
  const auto valid = [&](std::uint32_t b) { return alloc.cached_valid(b); };
  std::size_t picked = 0;
  const Samples ns = time_batched_ns(
      [&] { picked += alloc.pick_victim(*policy, valid, now).has_value(); },
      smoke ? 10 : 500, smoke ? 3 : 11);
  require(picked > 0, "the end state has a GC victim");
  sink.add("ftl.pick_victim_ns", ns.p50(), "ns", ns.count());
}

void probe_host_sim(const ProbeInput& in, bool smoke, Sink& sink) {
  host::HostInterface iface(in.host);
  host::Command command;
  command.type = host::CmdType::kWrite;
  for (std::size_t i = 0; i < in.queue_depth; ++i) {
    command.queue = static_cast<std::uint16_t>(i % iface.queues());
    iface.submit(command, Seconds{0.0});
  }
  double clock = 0.0;
  const Samples cycle = time_batched_ns(
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
      smoke ? 1000 : 100000, smoke ? 3 : 11);
  sink.add("host.cycle_ns", cycle.p50(), "ns", cycle.count());

  // Schedule-then-drain of a pre-scheduled arrival population, the
  // shape SsdSimulator::run gives the event queue.
  const std::size_t events = smoke ? 10000 : 200000;
  Rng rng(in.seed ^ 0xE7u);
  std::vector<double> when(events);
  for (double& w : when) w = rng.uniform();
  Samples per_event;
  for (int i = 0; i < (smoke ? 1 : 7); ++i) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    const double us = time_us([&] {
      for (const double w : when) {
        queue.schedule_at(Seconds{w}, [&fired] { ++fired; });
      }
      queue.run();
    });
    require(fired == events, "every event fires");
    per_event.add(us * 1e3 / static_cast<double>(events));
  }
  sink.add("sim.event_ns", per_event.p50(), "ns", per_event.count());
}

}  // namespace

std::vector<Metric> layer_metrics(const ProbeInput& input, bool smoke,
                                  Tracer& tracer) {
  static const std::pair<const char*, const char*> kSpanMetrics[] = {
      {"sim.generate_s", "sim.generate"},
      {"sim.prepopulate_s", "sim.prepopulate"},
      {"sim.verify_stored_s", "sim.verify_stored"},
      {"ftl.remount_s", "ftl.remount"},
      {"ftl.check_consistency_s", "ftl.check_consistency"},
      {"explore.sweep_space_s", "explore.sweep_space"},
      {"explore.monte_carlo_s", "explore.monte_carlo"},
  };
  std::vector<Metric> out;
  for (const auto& [name, span] : kSpanMetrics) {
    const std::vector<double> d = tracer.durations(span);
    if (!d.empty()) out.push_back(Metric{name, median(d), "s", d.size()});
  }
  Sink sink(out);
  {
    const Scope s(&tracer, "probe.nand", -1);
    probe_nand(input, smoke, sink);
  }
  {
    const Scope s(&tracer, "probe.bch", -1);
    probe_bch(input, smoke, sink);
  }
  {
    const Scope s(&tracer, "probe.controller", -1);
    probe_controller(input, smoke, sink);
  }
  {
    const Scope s(&tracer, "probe.core", -1);
    probe_core(input, smoke, sink);
  }
  {
    const Scope s(&tracer, "probe.explore", -1);
    probe_explore(input, smoke, sink);
  }
  {
    const Scope s(&tracer, "probe.host_sim", -1);
    probe_host_sim(input, smoke, sink);
  }
  {
    // Last: it keeps writing to the workload's FTL end state.
    const Scope s(&tracer, "probe.ftl", -1);
    probe_ftl(input, smoke, sink);
  }
  return out;
}

}  // namespace perfbench
