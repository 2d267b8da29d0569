#include "src/explore/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace xlf::explore {
namespace {

using Type = Option::Type;

constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

std::string format_double(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string join(const std::vector<std::string>& words, const char* sep) {
  std::string out;
  for (const std::string& word : words) {
    out += (out.empty() ? "" : sep) + word;
  }
  return out;
}

// Splits on `sep`, keeping empty parts (a converter rejects them).
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string_view::npos) return parts;
    start = end + 1;
  }
}

[[noreturn]] void reject(const Option& o, const OptionInput& in) {
  std::string got = "'" + std::string(in.text) + "'";
  if (in.json != nullptr) {
    const JsonValue::Type type = in.json->type();
    got = type == JsonValue::Type::kNumber ? format_double(in.json->as_number())
          : type == JsonValue::Type::kString
              ? "\"" + in.json->as_string() + "\""
              : std::string("a JSON ") + JsonValue::to_string(type);
  }
  throw std::invalid_argument(in.name + " expects " +
                              o.accepts(in.json != nullptr) + ", got " + got);
}

// The text of a word-typed input: command-line text or a JSON string.
std::string_view text_of(const Option& o, const OptionInput& in) {
  if (in.json == nullptr) return in.text;
  if (in.json->type() != JsonValue::Type::kString) reject(o, in);
  return in.json->as_string();
}

// Whole-text unsigned parse; false on junk, a sign, or overflow.
template <class U>
bool parse_whole(std::string_view text, U& value, int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  return !text.empty() && ec == std::errc() && ptr == end;
}

// --- one converter per type -------------------------------------------

std::uint64_t to_integer(const Option& o, const OptionInput& in) {
  std::uint64_t value = 0;
  if (in.json != nullptr) {
    const double n = in.json->type() == JsonValue::Type::kNumber
                         ? in.json->as_number()
                         : -1.0;
    if (n < 0.0 || n != std::floor(n) || n > kMaxExactInteger) reject(o, in);
    value = static_cast<std::uint64_t>(n);
  } else {
    std::string_view digits = in.text;
    int base = 10;
    // The C integer-literal prefixes --seed has always taken.
    if (o.type == Type::kU64 && digits.size() > 1 && digits[0] == '0') {
      const bool hex = digits[1] == 'x' || digits[1] == 'X';
      base = hex ? 16 : 8;
      digits.remove_prefix(hex ? 2 : 1);
    }
    if (!parse_whole(digits, value, base)) reject(o, in);
  }
  if (value < o.min || value > o.max) reject(o, in);
  return value;
}

double to_double(const Option& o, const OptionInput& in) {
  double value = 0.0;
  if (in.json != nullptr) {
    if (in.json->type() != JsonValue::Type::kNumber) reject(o, in);
    value = in.json->as_number();
  } else {
    const char* end = in.text.data() + in.text.size();
    const auto [ptr, ec] = std::from_chars(in.text.data(), end, value);
    if (ec != std::errc() || ptr != end) reject(o, in);
  }
  if (!std::isfinite(value) || value < o.lo || value > o.hi ||
      (o.lo_open && value == o.lo) || (o.hi_open && value == o.hi)) {
    reject(o, in);
  }
  return value;
}

bool to_bool(const Option& o, const OptionInput& in) {
  if (in.json == nullptr) {
    if (in.text != "true" && in.text != "false") reject(o, in);
    return in.text == "true";
  }
  if (in.json->type() != JsonValue::Type::kBool) reject(o, in);
  return in.json->as_bool();
}

// A word; with `choices`, its index there.
std::string to_name(const Option& o, const OptionInput& in,
                    std::size_t* index = nullptr) {
  const std::string name(text_of(o, in));
  const auto it = std::find(o.choices.begin(), o.choices.end(), name);
  if (!o.choices.empty() && it == o.choices.end()) reject(o, in);
  if (index != nullptr) {
    *index = static_cast<std::size_t>(it - o.choices.begin());
  }
  return name;
}

controller::DispatchConfig to_topology(const Option& o,
                                       const OptionInput& in) {
  const std::vector<std::string_view> parts = split(text_of(o, in), 'x');
  std::uint32_t dims[2] = {0, 0};
  for (std::size_t i = 0; i < 2; ++i) {
    if (parts.size() != 2 || !parse_whole(parts[i], dims[i]) ||
        dims[i] < o.min || dims[i] > o.max) {
      reject(o, in);
    }
  }
  return controller::DispatchConfig{dims[0], dims[1]};
}

// The entries of a list: comma-separated text, or a non-empty array.
std::vector<OptionInput> elements(const Option& o, const OptionInput& in) {
  std::vector<OptionInput> out;
  if (in.json == nullptr) {
    for (const std::string_view part : split(in.text, ',')) {
      out.push_back(OptionInput{part, nullptr, in.name});
    }
    return out;
  }
  if (!in.json->is_array() || in.json->items().empty()) reject(o, in);
  for (const JsonValue& item : in.json->items()) {
    out.push_back(OptionInput{{}, &item, in.name});
  }
  return out;
}

// --- binding the converters to a field --------------------------------

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

template <class T>
T convert(const Option& o, const OptionInput& in) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    if (o.type == Type::kBool) return static_cast<T>(to_bool(o, in));
    std::size_t index = 0;
    to_name(o, in, &index);
    return static_cast<T>(index);
  } else if constexpr (std::is_unsigned_v<T>) {
    return static_cast<T>(to_integer(o, in));  // o.max fits T
  } else if constexpr (std::is_same_v<T, double>) {
    return to_double(o, in);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return to_name(o, in);
  } else {
    return to_topology(o, in);
  }
}

template <class T>
std::string show_value(const Option& o, const T& value) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    const auto index = static_cast<std::size_t>(value);
    if (o.type == Type::kBool) return index != 0 ? "true" : "false";
    return o.choices[index];
  } else if constexpr (std::is_unsigned_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_same_v<T, double>) {
    return format_double(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (IsVector<T>::value) {
    std::vector<std::string> parts;
    for (const auto& item : value) parts.push_back(show_value(o, item));
    return join(parts, ",");
  } else {
    return std::to_string(value.channels) + "x" +
           std::to_string(value.dies_per_channel);
  }
}

// Completes `o` for the ExperimentSpec member that `field` (a generic
// lambda, serving const and mutable specs) returns: the type follows
// from the member's, and an integer maximum is clipped to its width.
template <class F>
Option bind(F field, Option o) {
  using T = std::remove_cvref_t<std::invoke_result_t<F, ExperimentSpec&>>;
  using E = typename std::conditional_t<IsVector<T>::value, T,
                                        std::vector<T>>::value_type;
  o.list = IsVector<T>::value;
  if constexpr (std::is_same_v<E, bool>) {
    o.type = o.choices.empty() ? Type::kBool : Type::kName;
  } else if constexpr (std::is_enum_v<E> || std::is_same_v<E, std::string>) {
    o.type = Type::kName;
  } else if constexpr (std::is_same_v<E, double>) {
    o.type = Type::kDouble;
  } else if constexpr (std::is_unsigned_v<E>) {
    if (o.type != Type::kU64) {
      o.type = sizeof(E) == sizeof(std::uint32_t) ? Type::kUnsigned
                                                  : Type::kSize;
    }
    o.max = std::min<std::uint64_t>(o.max, std::numeric_limits<E>::max());
  } else {
    o.type = Type::kTopology;
  }
  o.read = [field](const Option& self, ExperimentSpec& spec,
                   const OptionInput& in) {
    if constexpr (IsVector<T>::value) {
      T values;
      for (const OptionInput& item : elements(self, in)) {
        values.push_back(convert<E>(self, item));
      }
      field(spec) = std::move(values);
    } else {
      field(spec) = convert<T>(self, in);
    }
  };
  o.show = [field](const Option& self, const ExperimentSpec& spec) {
    return show_value(self, field(spec));
  };
  return o;
}

// The age grid sets three fields: "LO:HI:POINTS" on the command line,
// an object whose members each override one of them in a spec. Only
// the parts are checked here; validate() checks the grid.
Option age_grid(Option o) {
  o.type = Type::kAgeGrid;
  o.read = [](const Option& self, ExperimentSpec& spec,
              const OptionInput& in) {
    const auto part = [&](std::string_view text, const JsonValue* json) {
      return OptionInput{text, json, in.name};
    };
    if (in.json == nullptr) {
      const std::vector<std::string_view> parts = split(in.text, ':');
      if (parts.size() != 3) reject(self, in);
      spec.age_lo = to_double(self, part(parts[0], nullptr));
      spec.age_hi = to_double(self, part(parts[1], nullptr));
      spec.age_points =
          static_cast<std::size_t>(to_integer(self, part(parts[2], nullptr)));
      return;
    }
    if (!in.json->is_object()) reject(self, in);
    for (const auto& [key, value] : in.json->members()) {
      const OptionInput member = part({}, &value);
      if (key == "lo") {
        spec.age_lo = to_double(self, member);
      } else if (key == "hi") {
        spec.age_hi = to_double(self, member);
      } else if (key == "points") {
        spec.age_points = static_cast<std::size_t>(to_integer(self, member));
      } else {
        throw std::invalid_argument("experiment spec: unknown key 'ages." +
                                    key + "'; known keys: lo hi points");
      }
    }
  };
  o.show = [](const Option&, const ExperimentSpec& spec) {
    return format_double(spec.age_lo) + ":" + format_double(spec.age_hi) +
           ":" + std::to_string(spec.age_points);
  };
  o.max = std::numeric_limits<std::size_t>::max();
  return o;
}

std::vector<Option> make_table() {
#define FIELD(member) [](auto& s) -> auto& { return s.member; }
  return {
      // choices in ExperimentSpec::Mode order.
      bind(FIELD(mode), {.flag = "--ftl-sweep", .key = "mode",
                         .choices = {"space", "ftl-sweep"},
                         .switch_text = "ftl-sweep",
                         .help = "run the FTL sweep, not the config space"}),
      bind(FIELD(seed), {.flag = "--seed", .key = "seed", .type = Type::kU64,
                         .help = "root seed of every replica/combo stream"}),
      bind(FIELD(uber_target),
           {.flag = "--uber-target", .key = "uber_target", .lo = 0, .hi = 1,
            .lo_open = true, .hi_open = true, .help = "UBER target"}),
      bind(FIELD(point), {.flag = "--point", .key = "point",
                          .help = "baseline, min-uber or max-read"}),
      age_grid({.flag = "--ages", .key = "ages",
                .help = "log-spaced P/E grid (lo > 0, hi > lo, points >= 2)"}),
      bind(FIELD(pareto_only),
           {.flag = "--pareto-only", .key = "pareto_only",
            .switch_text = "true", .help = "emit only Pareto-front rows"}),
      bind(FIELD(mc_replicas),
           {.flag = "--mc-replicas", .key = "monte_carlo.replicas",
            .help = "Monte-Carlo replicas per workload (0 = off)"}),
      bind(FIELD(mc_requests),
           {.flag = "--mc-requests", .key = "monte_carlo.requests", .min = 1,
            .help = "requests per Monte-Carlo replica"}),
      bind(FIELD(mc_age),
           {.flag = "--mc-age", .key = "monte_carlo.age",
            .help = "P/E age of the validation (negative = last grid age)"}),
      bind(FIELD(mc_workloads),
           {.flag = "--workloads", .key = "monte_carlo.workloads",
            .help = "Monte-Carlo validation workloads"}),
      bind(FIELD(ftl.base.die.device.array.geometry.blocks),
           {.flag = "--ftl-blocks", .key = "geometry.blocks", .min = 3,
            .help = "blocks per die"}),
      bind(FIELD(ftl.base.die.device.array.geometry.pages_per_block),
           {.flag = "--ftl-pages", .key = "geometry.pages_per_block",
            .min = 1, .help = "pages per block"}),
      bind(FIELD(ftl.base.initial_pe_cycles),
           {.flag = "--ftl-initial-wear", .key = "initial_pe_cycles", .lo = 0,
            .help = "uniform starting P/E cycles"}),
      bind(FIELD(ftl.base.ftl.pe_cycles_per_erase),
           {.flag = "--ftl-wear-per-erase", .key = "ftl.pe_cycles_per_erase",
            .lo = 1, .help = "lifetime compression: P/E cycles per erase"}),
      bind(FIELD(ftl.base.ftl.logical_fraction),
           {.flag = "--ftl-logical-fraction", .key = "ftl.logical_fraction",
            .lo = 0, .hi = 1, .lo_open = true, .hi_open = true,
            .help = "logical share of the physical pages"}),
      bind(FIELD(ftl.base.ftl.gc_free_blocks),
           {.key = "ftl.gc_free_blocks", .min = 1,
            .help = "free-block floor GC keeps per die"}),
      bind(FIELD(ftl.base.ftl.static_wl_spread),
           {.key = "ftl.static_wl_spread",
            .help = "erase spread that triggers static wear leveling"}),
      bind(FIELD(ftl.base.ftl.scrub_retention_hours),
           {.key = "ftl.scrub_retention_hours", .lo = 0,
            .help = "retention horizon (hours) a scrub guards against"}),
      bind(FIELD(ftl.data_plane),  // choices: false, true
           {.flag = "--ftl-data-plane", .choices = {"meta", "bit-true"},
            .help = "cell arrays, or metadata-only devices (no payload)"}),
      bind(FIELD(ftl.requests),
           {.flag = "--ftl-requests", .key = "workload.requests", .min = 1,
            .help = "host requests per combo"}),
      bind(FIELD(ftl.read_fraction),
           {.flag = "--ftl-read-fraction", .key = "workload.read_fraction",
            .lo = 0, .hi = 1, .hi_open = true, .help = "read share"}),
      bind(FIELD(ftl.hot_fraction),
           {.flag = "--ftl-hot-fraction", .key = "workload.hot_fraction",
            .lo = 0, .hi = 1, .lo_open = true, .help = "hot share of LPAs"}),
      bind(FIELD(ftl.hot_write_fraction),
           {.flag = "--ftl-hot-writes", .key = "workload.hot_write_fraction",
            .lo = 0, .hi = 1, .help = "write share hitting the hot LPAs"}),
      bind(FIELD(ftl.trim_fraction),
           {.flag = "--ftl-trim-fraction", .key = "workload.trim_fraction",
            .lo = 0, .hi = 1, .hi_open = true, .help = "trim share of writes"}),
      bind(FIELD(ftl.queue_weights),
           {.flag = "--ftl-queue-weights", .key = "workload.queue_weights",
            .lo = 0, .lo_open = true,
            .help = "arbitration weight per queue, queue 0 first (1 pads)"}),
      bind(FIELD(ftl.prepopulate),
           {.key = "workload.prepopulate",
            .help = "write every logical page once before the run"}),
      bind(FIELD(ftl.topologies),
           {.flag = "--ftl-topologies", .key = "sweep.topologies", .min = 1,
            .max = 65535, .help = "SSD topologies"}),
      bind(FIELD(ftl.queue_depths),
           {.flag = "--ftl-qd", .key = "sweep.queue_depths", .min = 1,
            .help = "host queue depths"}),
      bind(FIELD(ftl.queue_counts),  // queue ids are 16-bit
           {.flag = "--ftl-queues", .key = "sweep.queues", .min = 1,
            .max = 65536, .help = "submission queues (one tenant each)"}),
      bind(FIELD(ftl.arbitration_policies),
           {.flag = "--ftl-arbitration", .key = "sweep.arbitrations",
            .help = "arbitration policies by registry name"}),
      bind(FIELD(ftl.gc_policies), {.flag = "--ftl-gc",
                                    .key = "sweep.gc_policies",
                                    .help = "GC policies by registry name"}),
      bind(FIELD(ftl.wear_policies),
           {.flag = "--ftl-wear", .key = "sweep.wear_policies",
            .help = "wear policies by registry name"}),
      bind(FIELD(ftl.tuning_policies),
           {.flag = "--ftl-tuning", .key = "sweep.tuning_policies",
            .help = "tuning policies by registry name"}),
      bind(FIELD(ftl.refresh_policies),
           {.flag = "--ftl-refresh", .key = "sweep.refresh_policies",
            .help = "refresh policies by registry name"}),
      bind(FIELD(ftl.fail_blocks),
           {.flag = "--ftl-fail-blocks", .key = "sweep.fail_blocks",
            .help = "grown-bad blocks per die (lowest ids fail first)"}),
      bind(FIELD(ftl.shard_dies),
           {.flag = "--ftl-shard-dies", .switch_text = "true",
            .help = "per-die cell queues on the pool (bit-true plane)"}),
      bind(FIELD(ftl.measure_throughput),
           {.flag = "--ftl-perf", .switch_text = "true",
            .help = "wall-clock commands/s per combo (JSON output)"}),
  };
#undef FIELD
}

// Reads `value` into the entry whose key is `path` ("section.key").
void read_key(ExperimentSpec& spec, const std::string& path,
              const JsonValue& value) {
  for (const Option& o : options()) {
    if (o.key != nullptr && path == o.key) {
      o.read(o, spec,
             OptionInput{{}, &value, "experiment spec: '" + path + "'"});
      return;
    }
  }
  // Unknown: list the known keys of the same section.
  const std::size_t dot = path.rfind('.');
  const std::string section =
      dot == std::string::npos ? "" : path.substr(0, dot + 1);
  std::vector<std::string> known;
  for (const Option& o : options()) {
    if (o.key != nullptr && std::string_view(o.key).starts_with(section)) {
      known.push_back(o.key);
    }
  }
  throw std::invalid_argument(
      "experiment spec: unknown key '" + path + "'; known keys: " +
      join(known, " "));
}

}  // namespace

std::string Option::accepts(bool json) const {
  const std::string each = !list ? ""
                           : json ? "a non-empty array; each "
                                  : "a comma list; each ";
  const auto top = static_cast<std::uint64_t>(kMaxExactInteger);
  switch (type) {
    case Type::kUnsigned:
    case Type::kSize:
    case Type::kU64:
      return each + "an integer in [" + std::to_string(min) + ", " +
             std::to_string(json ? std::min(max, top) : max) + "]";
    case Type::kDouble:
      return each + "a finite number in " +
             (lo_open || std::isinf(lo) ? "(" : "[") +
             format_double(lo) + ", " + format_double(hi) +
             (hi_open || std::isinf(hi) ? ")" : "]");
    case Type::kBool:
      return each + "true or false";
    case Type::kName:
      return each +
             (choices.empty() ? "a name" : "one of " + join(choices, " "));
    case Type::kTopology:
      return each + "CxD, channels x dies per channel, each in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    case Type::kAgeGrid:
      break;
  }
  return std::string(json ? R"(an object {"lo": X, "hi": X, "points": N})"
                          : "LO:HI:POINTS") +
         " (finite numbers X, an integer N)";
}

const std::vector<Option>& options() {
  static const std::vector<Option> table = make_table();
  return table;
}

const Option* find_flag(std::string_view flag) {
  for (const Option& o : options()) {
    if (o.flag != nullptr && flag == o.flag) return &o;
  }
  return nullptr;
}

bool apply_flag(ExperimentSpec& spec, const std::vector<std::string>& args,
                std::size_t& i) {
  const Option* o = find_flag(args[i]);
  if (o == nullptr) return false;
  if (o->switch_text == nullptr && i + 1 >= args.size()) {
    throw std::invalid_argument("missing value for " + args[i]);
  }
  const std::string_view text = o->switch_text != nullptr
                                    ? std::string_view(o->switch_text)
                                    : std::string_view(args[++i]);
  o->read(*o, spec, OptionInput{text, nullptr, o->flag});
  return true;
}

ExperimentSpec parse_flags(const std::vector<std::string>& args) {
  ExperimentSpec spec = ExperimentSpec::defaults();
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!apply_flag(spec, args, i)) {
      throw std::invalid_argument("unknown flag '" + args[i] +
                                  "' (try --help)");
    }
  }
  return spec;
}

ExperimentSpec parse_experiment(const JsonValue& root) {
  if (!root.is_object() || !root.has("mode")) {
    throw std::invalid_argument(
        "experiment spec: missing required key 'mode' (\"space\" or "
        "\"ftl-sweep\")");
  }
  ExperimentSpec spec = ExperimentSpec::defaults();
  for (const auto& [name, value] : root.members()) {
    const std::string section = name + ".";
    if (std::none_of(options().begin(), options().end(), [&](const Option& o) {
          return o.key != nullptr &&
                 std::string_view(o.key).starts_with(section);
        })) {
      read_key(spec, name, value);
    } else if (!value.is_object()) {
      throw std::invalid_argument("experiment spec: '" + name +
                                  "' must be an object");
    } else {
      for (const auto& [member, item] : value.members()) {
        read_key(spec, section + member, item);
      }
    }
  }
  validate(spec);
  return spec;
}

std::uint64_t parse_integer(std::string_view text, const std::string& name,
                            std::uint64_t min, std::uint64_t max) {
  Option o;
  o.type = Type::kSize;
  o.min = min;
  o.max = max;
  return to_integer(o, OptionInput{text, nullptr, name});
}

std::string flag_help() {
  const ExperimentSpec defaults = ExperimentSpec::defaults();
  const std::string pad(30, ' ');
  std::string out;
  for (const Option& o : options()) {
    std::string head = "  " + std::string(o.flag != nullptr ? o.flag : o.key);
    if (o.flag != nullptr && o.switch_text == nullptr) {
      head += o.type == Type::kDouble     ? " X"
              : o.type == Type::kName     ? " NAME"
              : o.type == Type::kTopology ? " CxD"
              : o.type == Type::kAgeGrid  ? " LO:HI:POINTS"
                                          : " N";
      if (o.list) head += ",...";
    }
    head.resize(std::max(head.size() + 1, pad.size()), ' ');
    const std::string value = o.show(o, defaults);
    out += head + o.help + "\n" + pad +
           (o.switch_text != nullptr ? "switch" : o.accepts(false)) + "\n" +
           pad + "default " + (value.empty() ? "(empty)" : value);
    if (o.flag == nullptr) {
      out += "; spec key only";
    } else if (o.key != nullptr) {
      out += "; spec key " + std::string(o.key);
      if (o.switch_text != nullptr && o.type == Type::kName) {
        out += ", " + o.accepts(true);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace xlf::explore
