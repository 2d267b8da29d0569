// xlf_explore — parallel trade-off exploration CLI: the configuration
// space (program algorithm x ECC capability over a lifetime grid, with
// Pareto fronts and optional Monte-Carlo validation) or the multi-die
// FTL sweep, as CSV (default) or JSON on stdout or --out.
//
// The experiment comes from flags or from --spec file.json; both are
// read through one option table (src/explore/options.hpp), checked by
// explore::validate and run by explore::run_experiment, so a spec that
// mirrors a flag line prints the same bytes. For a fixed experiment the
// output is byte-identical for every --threads value.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/explore/experiment.hpp"
#include "src/explore/options.hpp"
#include "src/policy/policy.hpp"
#include "src/policy/registry.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace xlf;

// Build provenance (--version/--build-info): with sweeps feeding CSV
// artifacts into papers, the binary must be able to say exactly what
// produced the bytes — compiler, build type, sanitizer runtimes. The
// macros are injected per-configure from tools/CMakeLists.txt.
void print_build_info() {
  std::cout << "xlf_explore " << XLF_VERSION << "\n"
            << "compiler: " << XLF_COMPILER << "\n"
            << "build type: " << XLF_BUILD_TYPE << "\n"
            << "sanitizers: " << XLF_SANITIZERS << "\n";
}

void usage() {
  std::cerr <<
      "usage: xlf_explore [options]\n"
      "  --spec FILE           run a JSON experiment spec (exclusive with the\n"
      "                        experiment flags; --threads/--format/--out apply)\n"
      "  --list-policies       print the registered policy names per kind, exit\n"
      "  --version             print build provenance (compiler, build type,\n"
      "  --build-info          sanitizers) and exit; exclusive with --spec\n"
      "  --threads N           threads in [0, 4096], 1 = serial, 0 = hardware\n"
      "                        concurrency (default 0)\n"
      "  --format csv|json     output format (default csv)\n"
      "  --out PATH            write to PATH instead of stdout\n"
      "experiment flags and spec keys:\n"
            << explore::flag_help();
}

// The discovery companion of the registry's unknown-name errors: the
// same sorted name lists, one line per policy kind.
void list_policies() {
  const auto line = [](const char* kind, const std::vector<std::string>& names) {
    std::cout << kind << ":";
    for (const std::string& name : names) std::cout << " " << name;
    std::cout << "\n";
  };
  using policy::PolicyRegistry;
  line("tuning", PolicyRegistry<policy::TuningPolicy>::instance().names());
  line("gc", PolicyRegistry<policy::GcPolicy>::instance().names());
  line("wear", PolicyRegistry<policy::WearPolicy>::instance().names());
  line("refresh", PolicyRegistry<policy::RefreshPolicy>::instance().names());
  line("arbitration",
       PolicyRegistry<policy::ArbitrationPolicy>::instance().names());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    explore::ExperimentSpec experiment = explore::ExperimentSpec::defaults();
    std::string spec_path;
    std::string format = "csv";
    std::string out_path;          // empty = stdout
    bool shaped_by_flags = false;  // any experiment flag seen
    bool show_version = false;
    unsigned threads = 0;          // 0 = hardware concurrency

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto value = [&]() -> const std::string& {
        if (i + 1 == args.size()) {
          throw std::invalid_argument("missing value for " + arg);
        }
        return args[++i];
      };
      if (arg == "--help" || arg == "-h" || arg == "--list-policies") {
        arg == "--list-policies" ? list_policies() : usage();
        return 0;
      } else if (arg == "--version" || arg == "--build-info") {
        show_version = true;  // exits after the --spec conflict check
      } else if (arg == "--spec") {
        spec_path = value();
      } else if (arg == "--threads") {
        threads = static_cast<unsigned>(
            explore::parse_integer(value(), "--threads", 0, 4096));
      } else if (arg == "--format") {
        format = value();
      } else if (arg == "--out") {
        out_path = value();
      } else if (explore::apply_flag(experiment, args, i)) {
        shaped_by_flags = true;
      } else {
        throw std::invalid_argument("unknown flag '" + arg + "' (try --help)");
      }
    }
    if (!spec_path.empty() && shaped_by_flags) {
      throw std::invalid_argument(
          "--spec is exclusive with the sweep-shaping flags; put the "
          "experiment in the spec file (--threads/--format/--out still "
          "apply)");
    }
    if (show_version && !spec_path.empty()) {
      throw std::invalid_argument(
          "--version/--build-info is exclusive with --spec; query "
          "provenance and run the experiment as two invocations");
    }
    if (!spec_path.empty()) experiment = explore::load_experiment(spec_path);
    explore::validate(experiment, format);
    if (show_version) {
      print_build_info();
      return 0;
    }

    ThreadPool pool(threads);
    const std::string report =
        explore::run_experiment(experiment, pool, format);
    if (out_path.empty()) {
      std::cout << report;
    } else {
      std::ofstream file(out_path);
      if (!file) {
        std::cerr << "xlf_explore: cannot open " << out_path << "\n";
        return 1;
      }
      file << report;
    }
  } catch (const std::exception& e) {
    std::cerr << "xlf_explore: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
