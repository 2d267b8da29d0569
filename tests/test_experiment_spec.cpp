// Declarative experiment specs and the option table behind both of
// xlf_explore's front ends: strict parsing (unknown keys, unknown
// policies and malformed values fail with messages naming the key or
// flag), the table-driven rejection of every malformed value in both
// spellings, the flag/key round trip over the whole table, and the
// shipped examples/specs/ftl_smoke.json reproducing the flag line
// `--ftl-sweep --ftl-requests 64` byte for byte.
#include "src/explore/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "src/explore/options.hpp"
#include "src/explore/report.hpp"
#include "src/explore/sweep.hpp"
#include "src/util/stats.hpp"

#ifndef XLF_SPEC_DIR
#define XLF_SPEC_DIR "examples/specs"
#endif

namespace xlf::explore {
namespace {

std::string error_of(const std::string& text) {
  try {
    parse_experiment_text(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentSpec, MinimalFtlSweepUsesCliDefaults) {
  const ExperimentSpec spec = parse_experiment_text(R"({"mode": "ftl-sweep"})");
  EXPECT_EQ(spec.mode, ExperimentSpec::Mode::kFtlSweep);
  EXPECT_EQ(spec.ftl.base.die.device.array.geometry.blocks, 8u);
  EXPECT_EQ(spec.ftl.base.die.device.array.geometry.pages_per_block, 4u);
  EXPECT_DOUBLE_EQ(spec.ftl.base.initial_pe_cycles, 1e4);
  EXPECT_DOUBLE_EQ(spec.ftl.base.ftl.pe_cycles_per_erase, 3e4);
  EXPECT_EQ(spec.ftl.gc_policies,
            (std::vector<std::string>{"greedy", "cost-benefit"}));
  EXPECT_EQ(spec.ftl.wear_policies, std::vector<std::string>{"dynamic"});
  EXPECT_EQ(spec.ftl.tuning_policies,
            std::vector<std::string>{"model_based"});
  EXPECT_EQ(spec.ftl.refresh_policies, std::vector<std::string>{"none"});
}

TEST(ExperimentSpec, ModeIsRequiredAndValidated) {
  EXPECT_NE(error_of("{}").find("missing required key 'mode'"),
            std::string::npos);
  const std::string mode = error_of(R"({"mode": "warp"})");
  EXPECT_NE(mode.find("'mode' expects one of space ftl-sweep, got \"warp\""),
            std::string::npos)
      << mode;
}

TEST(ExperimentSpec, UnknownKeysRejectedWithKnownList) {
  const std::string top =
      error_of(R"({"mode": "ftl-sweep", "sweeps": {}})");
  EXPECT_NE(top.find("unknown key 'sweeps'"), std::string::npos) << top;
  EXPECT_NE(top.find("sweep"), std::string::npos) << top;

  const std::string nested = error_of(
      R"({"mode": "ftl-sweep", "sweep": {"qeue_depths": [1]}})");
  EXPECT_NE(nested.find("unknown key 'sweep.qeue_depths'"), std::string::npos)
      << nested;
  EXPECT_NE(nested.find("sweep.queue_depths"), std::string::npos) << nested;
  EXPECT_EQ(nested.find("workload.requests"), std::string::npos) << nested;
}

TEST(ExperimentSpec, MultiQueueKnobsParseAndValidate) {
  const ExperimentSpec spec = parse_experiment_text(R"({
    "mode": "ftl-sweep",
    "workload": {"trim_fraction": 0.2, "queue_weights": [8, 4, 2, 1]},
    "sweep": {"queues": [1, 4], "arbitrations": ["round-robin", "weighted"]}
  })");
  EXPECT_EQ(spec.ftl.queue_counts, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(spec.ftl.arbitration_policies,
            (std::vector<std::string>{"round-robin", "weighted"}));
  EXPECT_DOUBLE_EQ(spec.ftl.trim_fraction, 0.2);
  EXPECT_EQ(spec.ftl.queue_weights, (std::vector<double>{8, 4, 2, 1}));

  // Defaults: the pre-redesign single-stream shape.
  const ExperimentSpec defaults =
      parse_experiment_text(R"({"mode": "ftl-sweep"})");
  EXPECT_EQ(defaults.ftl.queue_counts, std::vector<std::size_t>{1});
  EXPECT_EQ(defaults.ftl.arbitration_policies,
            std::vector<std::string>{"round-robin"});
  EXPECT_DOUBLE_EQ(defaults.ftl.trim_fraction, 0.0);

  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "sweep": {"queues": [0]}})")
                .find("'sweep.queues' expects a non-empty array; each an "
                      "integer in [1, 65536], got 0"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "workload": {"trim_fraction": 1.5}})")
                .find("'workload.trim_fraction' expects a finite number in "
                      "[0, 1), got 1.5"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "workload": {"queue_weights": [0]}})")
                .find("'workload.queue_weights' expects a non-empty array; "
                      "each a finite number in (0, inf), got 0"),
            std::string::npos);
  const std::string what = error_of(R"({"mode": "ftl-sweep",
                                        "sweep": {"arbitrations": ["fifo"]}})");
  EXPECT_NE(what.find("unknown arbitration policy 'fifo'"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("round-robin"), std::string::npos) << what;
}

TEST(ExperimentSpec, UnknownPolicyNamesFailListingRegistered) {
  const std::string what = error_of(
      R"({"mode": "ftl-sweep", "sweep": {"gc_policies": ["fifo"]}})");
  EXPECT_NE(what.find("unknown gc policy 'fifo'"), std::string::npos) << what;
  EXPECT_NE(what.find("greedy"), std::string::npos) << what;
  EXPECT_NE(what.find("cost-benefit"), std::string::npos) << what;
}

TEST(ExperimentSpec, MalformedValuesRejected) {
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "sweep": {"topologies": ["2by1"]}})")
                .find("'sweep.topologies' expects a non-empty array; each "
                      "CxD, channels x dies per channel, each in [1, 65535], "
                      "got \"2by1\""),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space",
                         "ages": {"lo": 10, "hi": 1, "points": 5}})")
                .find("invalid ages grid"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space", "uber_target": 2})")
                .find("uber_target"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space", "point": "fastest"})")
                .find("unknown operating point 'fastest'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "space",
                         "monte_carlo": {"workloads": ["disk-thrash"]}})")
                .find("unknown workload 'disk-thrash'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"mode": "ftl-sweep",
                         "workload": {"requests": 1.5}})")
                .find("'workload.requests' expects an integer in [1, "
                      "9007199254740992], got 1.5"),
            std::string::npos);
}

// The acceptance property: the shipped example spec is the CI smoke
// grid. A spec authored in JSON and the same experiment parsed from
// its real flag line must render byte-identical reports in both
// formats.
TEST(ExperimentSpec, FtlSmokeExampleReproducesCliSmokeGrid) {
  const ExperimentSpec from_json =
      load_experiment(std::string(XLF_SPEC_DIR) + "/ftl_smoke.json");
  const ExperimentSpec from_flags =
      parse_flags({"--ftl-sweep", "--ftl-requests", "64"});

  ThreadPool pool(2);
  EXPECT_EQ(run_experiment(from_json, pool, "csv"),
            run_experiment(from_flags, pool, "csv"));
  EXPECT_EQ(run_experiment(from_json, pool, "json"),
            run_experiment(from_flags, pool, "json"));
}

TEST(ExperimentSpec, SpaceModeMatchesDirectSweep) {
  const ExperimentSpec spec = parse_experiment_text(
      R"({"mode": "space", "ages": {"lo": 1, "hi": 1e4, "points": 3}})");
  ThreadPool pool(2);
  const std::string report = run_experiment(spec, pool, "csv");

  core::SubsystemConfig subsystem = core::SubsystemConfig::defaults();
  SweepSpec sweep_spec;
  sweep_spec.framework = FrameworkSpec::from(subsystem);
  sweep_spec.ages = log_space(1.0, 1e4, 3);
  const SweepResult space = sweep_space(sweep_spec, pool);
  EXPECT_EQ(report, sweep_csv(space));
}

TEST(ExperimentSpec, PolicyAxesMultiplyTheGrid) {
  ExperimentSpec spec = parse_experiment_text(R"({
    "mode": "ftl-sweep",
    "workload": {"requests": 8},
    "sweep": {"topologies": ["1x1"], "queue_depths": [2],
              "gc_policies": ["greedy"],
              "wear_policies": ["none", "dynamic"],
              "tuning_policies": ["static", "model_based"]}
  })");
  ThreadPool pool(2);
  const FtlSweepResult result = [&] {
    FtlSweepSpec ftl = spec.ftl;
    ftl.seed = spec.seed;
    return ftl_sweep(ftl, pool);
  }();
  ASSERT_EQ(result.rows.size(), 4u);
  // wear outer, tuning inner.
  EXPECT_EQ(result.rows[0].wear_policy, "none");
  EXPECT_EQ(result.rows[0].tuning_policy, "static");
  EXPECT_EQ(result.rows[1].tuning_policy, "model_based");
  EXPECT_EQ(result.rows[2].wear_policy, "dynamic");
  for (const FtlSweepRow& row : result.rows) {
    EXPECT_EQ(row.gc_policy, "greedy");
    EXPECT_EQ(row.refresh_policy, "none");
    EXPECT_GT(row.stats.writes, 0u);
  }
}

TEST(ExperimentSpec, RunRejectsUnknownFormat) {
  const ExperimentSpec spec = parse_experiment_text(R"({"mode": "space"})");
  ThreadPool pool(1);
  EXPECT_THROW(run_experiment(spec, pool, "xml"), std::invalid_argument);
}

TEST(ExperimentSpec, LoadRejectsMissingFile) {
  try {
    load_experiment("/nonexistent/spec.json");
    FAIL() << "missing file must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// --- the option table ---------------------------------------------------

// The message the flag path gives for `args` (parse, then validate),
// or "" when they are accepted.
std::string flag_error(const std::vector<std::string>& args) {
  try {
    validate(parse_flags(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A space-mode spec setting the entry's key ("section.key" or "key")
// to the JSON text `value`; the mode entry is the spec's only member.
std::string spec_with(const Option& o, const std::string& value) {
  const std::string key = o.key;
  const std::size_t dot = key.find('.');
  if (key == "mode") return "{\"mode\": " + value + "}";
  if (dot == std::string::npos) {
    return R"({"mode": "space", ")" + key + "\": " + value + "}";
  }
  return R"({"mode": "space", ")" + key.substr(0, dot) + "\": {\"" +
         key.substr(dot + 1) + "\": " + value + "}}";
}

std::string number_text(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

// Every row of the malformed-input table that motivated the option
// table, in both spellings: each must be rejected with a message that
// names the flag or the key (and so never reaches a library
// precondition).
TEST(OptionTable, MotivatingInputsRejectedInBothSpellings) {
  struct Case {
    std::vector<std::string> args;
    const char* spec;
    const char* key;
  };
  const Case cases[] = {
      {{"--ftl-requests", "-5"},
       R"({"mode": "ftl-sweep", "workload": {"requests": -5}})",
       "'workload.requests'"},
      {{"--ftl-requests", "abc"},
       R"({"mode": "ftl-sweep", "workload": {"requests": "abc"}})",
       "'workload.requests'"},
      {{"--ftl-requests", "10x"},
       R"({"mode": "ftl-sweep", "workload": {"requests": "10x"}})",
       "'workload.requests'"},
      {{"--ftl-qd", "4x"},
       R"({"mode": "ftl-sweep", "sweep": {"queue_depths": ["4x"]}})",
       "'sweep.queue_depths'"},
      {{"--ftl-read-fraction", "0.3q"},
       R"({"mode": "ftl-sweep", "workload": {"read_fraction": "0.3q"}})",
       "'workload.read_fraction'"},
      {{"--ages", "1:1e6:3z"},
       R"({"mode": "space", "ages": {"points": "3z"}})", "'ages'"},
      {{"--seed", "12abc"}, R"({"mode": "space", "seed": "12abc"})",
       "'seed'"},
      {{"--ftl-topologies", "2x1z"},
       R"({"mode": "ftl-sweep", "sweep": {"topologies": ["2x1z"]}})",
       "'sweep.topologies'"},
      {{"--ftl-topologies", "-1x1"},
       R"({"mode": "ftl-sweep", "sweep": {"topologies": ["-1x1"]}})",
       "'sweep.topologies'"},
      {{"--uber-target", "5"}, R"({"mode": "space", "uber_target": 5})",
       "'uber_target'"},
      {{"--point", "nope"}, R"({"mode": "space", "point": "nope"})",
       "'point'"},
      {{"--ftl-read-fraction", "1.5"},
       R"({"mode": "ftl-sweep", "workload": {"read_fraction": 1.5}})",
       "'workload.read_fraction'"},
      {{"--ftl-hot-fraction", "0"},
       R"({"mode": "ftl-sweep", "workload": {"hot_fraction": 0}})",
       "'workload.hot_fraction'"},
      {{"--ftl-pages", "0"},
       R"({"mode": "ftl-sweep", "geometry": {"pages_per_block": 0}})",
       "'geometry.pages_per_block'"},
      {{"--ftl-blocks", "4294967297"},
       R"({"mode": "ftl-sweep", "geometry": {"blocks": 4294967304}})",
       "'geometry.blocks'"},
  };
  for (const Case& c : cases) {
    const std::string by_flag = flag_error(c.args);
    EXPECT_NE(by_flag.find(c.args[0]), std::string::npos)
        << c.args[0] << " " << c.args[1] << " -> '" << by_flag << "'";
    const std::string by_key = error_of(c.spec);
    EXPECT_NE(by_key.find(c.key), std::string::npos)
        << c.spec << " -> '" << by_key << "'";
  }
  // --threads sits outside the table; it is range-checked at parse time.
  EXPECT_THROW(parse_integer("abc", "--threads", 0, 4096),
               std::invalid_argument);
  EXPECT_THROW(parse_integer("4097", "--threads", 0, 4096),
               std::invalid_argument);
  EXPECT_EQ(parse_integer("4096", "--threads", 0, 4096), 4096u);
}

// Malformed values of one entry, as (command-line text, JSON text):
// non-numeric, trailing junk, negative for an unsigned type, one past
// the type's maximum, and just outside the entry's own range.
std::vector<std::pair<std::string, std::string>> malformed(const Option& o) {
  using Type = Option::Type;
  std::vector<std::pair<std::string, std::string>> out = {
      {"abc", "\"abc\""}, {"7x", "\"7x\""}};
  if (o.type == Type::kDouble) {
    out.push_back({"1e999", "1e999"});
    if (std::isfinite(o.lo)) {
      const std::string below = number_text(o.lo_open ? o.lo : o.lo - 1.0);
      out.push_back({below, below});
    }
    if (std::isfinite(o.hi)) {
      const std::string above = number_text(o.hi_open ? o.hi : o.hi + 1.0);
      out.push_back({above, above});
    }
    return out;
  }
  if (o.type == Type::kTopology) {
    return {{"abc", "\"abc\""},
            {"2x1z", "\"2x1z\""},
            {"-1x1", "\"-1x1\""},
            {"4294967296x1", "\"4294967296x1\""},
            {"0x1", "\"0x1\""},
            {"1x" + std::to_string(o.max + 1),
             "\"1x" + std::to_string(o.max + 1) + "\""}};
  }
  const bool narrow = o.type == Type::kUnsigned;
  const std::uint64_t width =
      narrow ? std::numeric_limits<std::uint32_t>::max()
             : std::numeric_limits<std::uint64_t>::max();
  out.push_back({"-1", "-1"});
  // JSON integers stop at 2^53, so one past the maximum is 2^53 + 2
  // (the next double) for the 64-bit types.
  out.push_back({narrow ? "4294967296" : "18446744073709551616",
                 narrow ? "4294967296" : "9007199254740994"});
  if (o.min > 0) {
    out.push_back({std::to_string(o.min - 1), std::to_string(o.min - 1)});
  }
  if (o.max < width) {
    out.push_back({std::to_string(o.max + 1), std::to_string(o.max + 1)});
  }
  return out;
}

TEST(OptionTable, EveryNumericEntryRejectsMalformedValuesInBothSpellings) {
  using Type = Option::Type;
  std::size_t checked = 0;
  for (const Option& o : options()) {
    if (o.type != Type::kUnsigned && o.type != Type::kSize &&
        o.type != Type::kU64 && o.type != Type::kDouble &&
        o.type != Type::kTopology) {
      continue;
    }
    for (const auto& [text, json] : malformed(o)) {
      ++checked;
      if (o.flag != nullptr) {
        const std::string what = flag_error({o.flag, text});
        EXPECT_NE(what.find(o.flag), std::string::npos)
            << o.flag << " " << text << " -> '" << what << "'";
      }
      if (o.key != nullptr) {
        const std::string spec =
            spec_with(o, o.list ? "[" + json + "]" : json);
        const std::string what = error_of(spec);
        const std::string quoted_key =
            std::string("'").append(o.key).append("'");
        EXPECT_NE(what.find(quoted_key), std::string::npos)
            << spec << " -> '" << what << "'";
      }
    }
  }
  EXPECT_GT(checked, 100u);

  // The age grid: malformed parts and an invalid grid.
  for (const char* text :
       {"abc", "1:1e6", "1:1e6:3z", "1:1e6:-3", "1:1e6:18446744073709551616",
        "1e999:1e6:3", "0:1e6:13", "10:1:5", "1:1e6:1"}) {
    const std::string what = flag_error({"--ages", text});
    EXPECT_NE(what.find("--ages"), std::string::npos) << text << " -> " << what;
  }
  for (const char* grid :
       {R"("1:1e6:13")", R"({"points": "3z"})", R"({"points": -3})",
        R"({"points": 9007199254740994})", R"({"lo": 1e999})",
        R"({"lo": 0})", R"({"lo": 10, "hi": 1})", R"({"points": 1})",
        R"({"step": 2})"}) {
    const std::string what =
        error_of(std::string(R"({"mode": "space", "ages": )") + grid + "}");
    EXPECT_NE(what.find("ages"), std::string::npos) << grid << " -> " << what;
  }
}

// One in-range, non-default value per entry that has both spellings.
// Setting it by flag and by key must give equal values in every table
// field: the guard against the two spellings drifting apart.
TEST(OptionTable, FlagAndSpecKeySetTheSameFields) {
  const std::map<std::string, std::pair<std::string, std::string>> samples = {
      {"--ftl-sweep", {"", R"("ftl-sweep")"}},
      {"--seed", {"77", "77"}},
      {"--uber-target", {"1e-12", "1e-12"}},
      {"--point", {"max-read", R"("max-read")"}},
      {"--ages", {"10:1e5:5", R"({"lo": 10, "hi": 1e5, "points": 5})"}},
      {"--pareto-only", {"", "true"}},
      {"--mc-replicas", {"3", "3"}},
      {"--mc-requests", {"9", "9"}},
      {"--mc-age", {"2500.5", "2500.5"}},
      {"--workloads", {"mixed,streaming", R"(["mixed", "streaming"])"}},
      {"--ftl-blocks", {"12", "12"}},
      {"--ftl-pages", {"8", "8"}},
      {"--ftl-initial-wear", {"2e4", "2e4"}},
      {"--ftl-wear-per-erase", {"1.5", "1.5"}},
      {"--ftl-logical-fraction", {"0.45", "0.45"}},
      {"--ftl-requests", {"64", "64"}},
      {"--ftl-read-fraction", {"0.125", "0.125"}},
      {"--ftl-hot-fraction", {"1", "1"}},
      {"--ftl-hot-writes", {"0.5", "0.5"}},
      {"--ftl-trim-fraction", {"0.2", "0.2"}},
      {"--ftl-queue-weights", {"8,1", "[8, 1]"}},
      {"--ftl-topologies", {"2x2,1x4", R"(["2x2", "1x4"])"}},
      {"--ftl-qd", {"2,8", "[2, 8]"}},
      {"--ftl-queues", {"1,4", "[1, 4]"}},
      {"--ftl-arbitration", {"weighted", R"(["weighted"])"}},
      {"--ftl-gc", {"cost-benefit", R"(["cost-benefit"])"}},
      {"--ftl-wear", {"none", R"(["none"])"}},
      {"--ftl-tuning", {"static", R"(["static"])"}},
      {"--ftl-refresh", {"retention_aware", R"(["retention_aware"])"}},
      {"--ftl-fail-blocks", {"0,2", "[0, 2]"}},
  };
  const ExperimentSpec defaults = ExperimentSpec::defaults();
  std::size_t both = 0;
  for (const Option& o : options()) {
    if (o.flag == nullptr || o.key == nullptr) continue;
    ++both;
    const auto sample = samples.find(o.flag);
    ASSERT_NE(sample, samples.end()) << o.flag << " has no sample value";
    std::vector<std::string> args{o.flag};
    if (o.switch_text == nullptr) args.push_back(sample->second.first);
    const ExperimentSpec by_flag = parse_flags(args);
    const ExperimentSpec by_key =
        parse_experiment_text(spec_with(o, sample->second.second));
    EXPECT_NE(o.show(o, by_flag), o.show(o, defaults))
        << o.flag << "'s sample is its default";
    for (const Option& field : options()) {
      EXPECT_EQ(field.show(field, by_flag), field.show(field, by_key))
          << o.flag << " and '" << o.key << "' disagree on "
          << (field.flag != nullptr ? field.flag : field.key);
    }
  }
  EXPECT_EQ(both, samples.size());
}

// --help prints every flag and key, and each printed default is an
// accepted value of its flag.
TEST(OptionTable, HelpCoversTheTableAndItsDefaultsParse) {
  const std::string help = flag_help();
  const ExperimentSpec defaults = ExperimentSpec::defaults();
  for (const Option& o : options()) {
    if (o.flag != nullptr) {
      EXPECT_NE(help.find(o.flag), std::string::npos) << o.flag;
    }
    if (o.key != nullptr) {
      EXPECT_NE(help.find(o.key), std::string::npos) << o.key;
    }
    const std::string shown = o.show(o, defaults);
    if (o.flag == nullptr || o.switch_text != nullptr || shown.empty()) {
      continue;
    }
    const ExperimentSpec parsed = parse_flags({o.flag, shown});
    EXPECT_EQ(o.show(o, parsed), shown) << o.flag;
  }
}

// --seed keeps the C literal prefixes it always took (hex, octal).
TEST(OptionTable, SeedTakesDecimalHexAndOctal) {
  EXPECT_EQ(parse_flags({"--seed", "15"}).seed, 15u);
  EXPECT_EQ(parse_flags({"--seed", "0x1F"}).seed, 31u);
  EXPECT_EQ(parse_flags({"--seed", "017"}).seed, 15u);
  EXPECT_EQ(parse_flags({"--seed", "0"}).seed, 0u);
  EXPECT_EQ(parse_flags({"--seed", "18446744073709551615"}).seed,
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"0x", "08", "+1", " 1", "1 ", "0x1g"}) {
    EXPECT_FALSE(flag_error({"--seed", bad}).empty()) << bad;
  }
  EXPECT_NE(flag_error({"--ftl-gc"}).find("missing value for --ftl-gc"),
            std::string::npos);
  EXPECT_NE(flag_error({"--bogus"}).find("unknown flag '--bogus'"),
            std::string::npos);
}

}  // namespace
}  // namespace xlf::explore
