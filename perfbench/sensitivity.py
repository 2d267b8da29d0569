#!/usr/bin/env python3
"""Sensitivity check: does the benchmark see a de-indexed GC victim pick?

    python3 perfbench/sensitivity.py [--runs N] [--seconds S]

Runs ftl_meta_scale N times clean, N times under `--variant deindexed` and
N more times clean, interleaved, on seeds 1..N. The variant registers a
renamed clone of the greedy GC policy; the FTL indexes victims only for
built-in policy names, so the clone falls back to the linear scan and picks
the same victims. It passes when
  * all three runs of a seed print the same model digest and counts,
  * the variant is flagged (run_s worse than the clean median by more than
    the bound in BENCHMARK.json), and
  * the clean rerun is not flagged on any end-to-end metric.
Run from the repository root; builds like run.py.
"""
import json
import sys

import compare
import run


def measure(seed, seconds, variant):
    args = ["--workload", "ftl_meta_scale", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if variant:
        args += ["--variant", "deindexed"]
    report = run.run_bench(args)
    return report, run.result_line(report, False)


def main(argv):
    runs, seconds = 5, 30
    i = 0
    try:
        while i < len(argv):
            if argv[i] in ("-h", "--help"):
                sys.stdout.write(__doc__)
                return 0
            if argv[i] not in ("--runs", "--seconds") or i + 1 >= len(argv):
                raise ValueError("unknown or incomplete flag '%s'" % argv[i])
            value = int(argv[i + 1])
            if value < 1:
                raise ValueError("%s must be positive" % argv[i])
            if argv[i] == "--runs":
                runs = value
            else:
                seconds = value
            i += 2
    except ValueError as e:
        sys.stderr.write("sensitivity.py: %s\n" % e)
        return 2

    run.build()
    spec = compare.load_spec()
    clean, variant, rerun = [], [], []
    problems = []
    for seed in range(1, runs + 1):
        # Alternate which side runs first so drift cannot favour one.
        order = [(clean, False), (variant, True), (rerun, False)]
        if seed % 2 == 0:
            order.reverse()
        models = set()
        for lines, deindexed in order:
            report, line = measure(seed, seconds, deindexed)
            lines.append(line)
            models.add((report["model_digest"],
                        json.dumps(report["counts"], sort_keys=True)))
            print("seed %d %-9s run_s %.4f model %s"
                  % (seed, "deindexed" if deindexed else "clean",
                     line["metrics"]["run_s"]["value"],
                     report["model_digest"]), flush=True)
        if len(models) != 1:
            problems.append("seed %d: the three runs simulated different "
                            "things" % seed)

    print("\nde-indexed variant vs clean:")
    rows, flagged = compare.compare(clean, variant, spec)
    compare.print_rows(rows)
    if "run_s" not in flagged:
        problems.append("the de-indexed variant is not flagged on run_s")
    print("\nclean rerun vs clean:")
    rows, flagged = compare.compare(clean, rerun, spec)
    compare.print_rows(rows)
    if flagged:
        problems.append("the clean rerun is flagged on " + ", ".join(flagged))
    failed = sum(line["failed"] for line in clean + variant + rerun)
    if failed:
        problems.append("%d operations failed" % failed)
    for problem in problems:
        print("FAIL " + problem)
    print("sensitivity: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
