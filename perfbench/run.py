#!/usr/bin/env python3
"""Benchmark entry point: build xlf_bench from source, run one workload,
print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. xlf_bench (perfbench/src) and the library
layers it links are built with CMake into .bench_build/ on first use. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Lines before it give
the machine fingerprint, the model digest, the per-layer counts and, for a
traced run, every per-layer metric with its sample count and the tracing
overhead. Traced runs also write their spans to .bench_build/traces/.

`--smoke` runs every workload at reduced size, traced and untraced, and
checks that each metric BENCHMARK.json names is printed with its unit and
that no operation failed; it also checks the argument parsers.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "xlf_bench")
WORKLOADS = ("ftl_meta_scale", "ftl_bittrue_read", "paper_space_mc")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

USAGE = ("usage: python3 perfbench/run.py --workload NAME --seed N "
         "--seconds S --trace 0|1\n"
         "       python3 perfbench/run.py --smoke\n"
         "workloads: " + ", ".join(WORKLOADS) + "\n")


class UsageError(Exception):
    pass


def parse_args(argv):
    opts = {"workload": None, "seed": None, "seconds": None, "trace": None,
            "smoke": False}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("--help", "-h"):
            return None
        if flag == "--smoke":
            opts["smoke"] = True
            i += 1
            continue
        key = flag[2:] if flag.startswith("--") else None
        if key not in ("workload", "seed", "seconds", "trace"):
            raise UsageError("unknown flag '%s'" % flag)
        if i + 1 >= len(argv):
            raise UsageError("%s needs a value" % flag)
        value = argv[i + 1]
        if key == "workload":
            if value not in WORKLOADS:
                raise UsageError("unknown workload '%s'" % value)
            opts[key] = value
        elif key == "trace":
            if value not in ("0", "1"):
                raise UsageError("--trace must be 0 or 1")
            opts[key] = value
        else:
            if not value.isdigit():
                raise UsageError("%s expects a non-negative integer" % flag)
            opts[key] = value
        i += 2
    if not opts["smoke"]:
        missing = [k for k in ("workload", "seed", "seconds", "trace")
                   if opts[k] is None]
        if missing:
            raise UsageError("missing --" + ", --".join(missing))
    return opts


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "xlf_bench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def run_bench(args):
    """Run xlf_bench; return its report (the last stdout line)."""
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                          universal_newlines=True)
    if done.returncode != 0:
        raise RuntimeError("xlf_bench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("xlf_bench printed no report")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, smoke=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        args.append("--smoke")
    if trace:
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%s.json" % (workload, seed))]
    return run_bench(args)


def result_line(report, trace):
    section = report["per_layer"] if trace else report["end_to_end"]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in section.items()}
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics}


def describe(report, trace):
    fp = dict(report["fingerprint"])
    fp["commit"] = commit()
    fp["seed"] = report["seed"]
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print("workload %s: %d repetitions (%d traced), %d attempted, %d failed"
          % (report["workload"], report["reps"], report["traced_reps"],
             report["attempted"], report["failed"]))
    for failure in report["failures"]:
        print("  failure: " + failure)
    print("model digest: " + report["model_digest"])
    print("counts: " + json.dumps(report["counts"], sort_keys=True))
    if trace:
        print("per-layer metrics (value, unit, samples):")
        for name, m in report["per_layer"].items():
            print("  %-34s %16.6g %-6s n=%d"
                  % (name, m["value"], m["unit"], m["samples"]))
        print("tracing overhead on wall_s: %+.2f%%"
              % report["trace_overhead_pct"])
    else:
        print("run_s per repetition: " + " ".join(
            "%.4f" % r["run_s"] for r in report["repetitions"]))
        for name, m in report["end_to_end"].items():
            print("  %-14s %16.6g %-4s median of %d"
                  % (name, m["value"], m["unit"], m["samples"]))


def smoke():
    """Reduced-size run of every workload against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for args, code in ((["--help"], 0), (["--bogus"], 2),
                       (["--workload"], 2), (["--seed", "x"], 2)):
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=60,
                              universal_newlines=True)
        if done.returncode != code or "usage" not in done.stdout + done.stderr:
            problems.append("xlf_bench %s: exit %d" % (" ".join(args),
                                                       done.returncode))
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            report = measure(workload, 1, 1, trace, smoke=True)
            line = result_line(report, trace)
            if line["failed"] != 0 or not line["correct"]:
                problems.append("%s: %d operations failed: %s"
                                % (workload, line["failed"],
                                   report["failures"][:3]))
            for metric in spec[section]:
                got = line["metrics"].get(metric["name"])
                if got is None:
                    problems.append("%s: %s not printed"
                                    % (workload, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s in %s, not %s"
                                    % (workload, metric["name"], got["unit"],
                                       metric["unit"]))
            print("smoke %-16s trace=%d: %d metrics, %d failed"
                  % (workload, trace, len(line["metrics"]), line["failed"]))
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv):
    try:
        opts = parse_args(argv)
    except UsageError as e:
        sys.stderr.write("run.py: %s\n%s" % (e, USAGE))
        return 2
    if opts is None:
        sys.stdout.write(USAGE)
        return 0
    try:
        build()
        if opts["smoke"]:
            return smoke()
        trace = opts["trace"] == "1"
        report = measure(opts["workload"], int(opts["seed"]),
                         int(opts["seconds"]), trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 1
    describe(report, trace)
    print(json.dumps(result_line(report, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
