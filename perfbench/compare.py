#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines of one workload, one per run, as the last line
run.py prints (`python3 perfbench/run.py ... | tail -n 1 >> BASE.jsonl`).
For every end-to-end metric it prints both medians, each side's spread (the
distance between the first and third quartile as a share of the median) and
the change, and flags a metric whose median got worse than the base median
by more than the metric's bound. Exits 1 when any metric is flagged or any
run failed an operation.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base_lines, new_lines, spec):
    """Return (rows, flagged): one row per end-to-end metric."""
    rows = []
    flagged = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [line["metrics"][name]["value"] for line in base_lines]
        new = [line["metrics"][name]["value"] for line in new_lines]
        b, n = statistics.median(base), statistics.median(new)
        change = (n - b) / b
        worse = change if metric["better"] == "lower" else -change
        is_flagged = worse > metric["bound"]
        if is_flagged:
            flagged.append(name)
        rows.append({"metric": name, "unit": metric["unit"], "base": b,
                     "new": n, "base_spread": spread(base),
                     "new_spread": spread(new), "change": change,
                     "bound": metric["bound"], "flagged": is_flagged})
    return rows, flagged


def print_rows(rows):
    print("%-14s %13s %13s %8s %8s %8s %6s  %s"
          % ("metric", "base", "new", "b.iqr", "n.iqr", "change", "bound",
             "verdict"))
    for r in rows:
        print("%-14s %13.6g %13.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s"
              % (r["metric"], r["base"], r["new"], 100 * r["base_spread"],
                 100 * r["new_spread"], 100 * r["change"], 100 * r["bound"],
                 "WORSE BEYOND BOUND" if r["flagged"] else "ok"))


def read_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv):
    if len(argv) != 2 or argv[0] in ("-h", "--help"):
        sys.stderr.write(__doc__)
        return 0 if argv[:1] in (["-h"], ["--help"]) else 2
    base, new = read_lines(argv[0]), read_lines(argv[1])
    if not base or not new:
        sys.stderr.write("compare.py: both files need at least one result\n")
        return 2
    rows, flagged = compare(base, new, load_spec())
    print_rows(rows)
    failed = sum(line["failed"] for line in base + new)
    if failed:
        print("%d operations failed across the runs" % failed)
    return 1 if flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
