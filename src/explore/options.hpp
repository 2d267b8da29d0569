// The experiment's input boundary: one entry per value an xlf_explore
// run can set, holding its flag, its JSON spec key, its type, its
// accepted range, its help text and the ExperimentSpec field it writes.
// The flag reader, the spec reader and --help all walk this table
// through one strict converter per type: command-line text is parsed
// whole with std::from_chars (no trailing junk, spaces or sign on an
// unsigned value), JSON integers must be exact and at most 2^53, and
// each value is range-checked against its entry, whose integer maximum
// is clipped to the field's width, before it is narrowed. Rejections
// throw std::invalid_argument naming the flag or key and what it
// accepts. Cross-field and name checks are validate()'s
// (experiment.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/explore/experiment.hpp"
#include "src/util/json.hpp"

namespace xlf::explore {

// One value as the user wrote it, with the name errors quote.
struct OptionInput {
  std::string_view text;            // command line
  const JsonValue* json = nullptr;  // spec; nullptr on the command line
  std::string name;                 // "--flag" or "experiment spec: 'key'"
};

struct Option {
  enum class Type {
    kUnsigned,  // std::uint32_t
    kSize,      // std::size_t
    kU64,       // std::uint64_t; flags also take 0x hex and 0 octal
    kDouble,    // a finite double
    kBool,      // JSON true/false; the flag is a switch
    kName,      // a word: one of `choices`, or any (validate checks it)
    kTopology,  // "CxD", channels x dies per channel
    kAgeGrid,   // "LO:HI:POINTS" / {"lo": .., "hi": .., "points": ..}
  };

  const char* flag = nullptr;  // nullptr: spec key only
  const char* key = nullptr;   // "section.key" or "key"; nullptr: flag only
  Type type = Type::kDouble;   // bind() derives it from the field
  bool list = false;  // comma list / non-empty JSON array of `type`
  // Integer range (also of topology sides and age points).
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  // Double range; an open end excludes its bound. Values are finite.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  // kName words; a non-string field stores the index (enum, bool).
  std::vector<std::string> choices{};
  const char* switch_text = nullptr;  // the value a switch flag sets
  const char* help = "";

  // Converts an input into the field; shows the field as a flag value.
  std::function<void(const Option&, ExperimentSpec&, const OptionInput&)>
      read{};
  std::function<std::string(const Option&, const ExperimentSpec&)> show{};

  // What the entry accepts, e.g. "an integer in [1, 65536]".
  std::string accepts(bool json) const;
};

// The table, in --help order.
const std::vector<Option>& options();

// The entry behind `flag`, or nullptr.
const Option* find_flag(std::string_view flag);

// Converts the table flag args[i] (and its value, unless a switch)
// into `spec`, leaving `i` on the last argument used; false when
// args[i] is no table flag.
bool apply_flag(ExperimentSpec& spec, const std::vector<std::string>& args,
                std::size_t& i);

// ExperimentSpec::defaults() with a list of table flags applied (no
// program name; anything else throws). validate() is the caller's.
ExperimentSpec parse_flags(const std::vector<std::string>& args);

// Strict decimal integer in [min, max], for flags outside the table
// (--threads).
std::uint64_t parse_integer(std::string_view text, const std::string& name,
                            std::uint64_t min, std::uint64_t max);

// --help lines for the table, defaults from ExperimentSpec::defaults().
std::string flag_help();

}  // namespace xlf::explore
