#!/usr/bin/env python3
"""Compare two run sets: ``compare.py A.json B.json``.

A run set is what ``run.py --out`` writes: several runs of every
workload (``--runs``).  One row per workload x bounded metric, from the
untraced runs: both medians with their quartiles and run counts, the
ratio B/A (A, the first file, is the base), the metric's bound, the
run-to-run spread (quartile distance over the median, the larger of the
two sets), and a verdict --

- ``ok``: B's median is no worse than A's by more than the bound;
- ``regressed``: it is worse by more than the bound;
- ``unresolved``: the spread exceeds the bound, so the medians cannot
  settle it -- unless every run of B reads better than every run of A;
- ``same`` / ``differs``: for metrics that must repeat exactly (bound
  0), and for every exact per-layer count of the traced runs, compared
  seed by seed.

Two sets of the same code must show no ``regressed``, no ``differs``.
Exit status 1 if any row regressed or differs, else 0.
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402  (after the path line above)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them -- the contract's spread uses exactly this."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load(path):
    """``{(workload, trace): {seed: values}}`` of a run set."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    out = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        out.setdefault(key, {})[run["seed"]] = run["values"]
    return out


def worsening(better, base, new):
    """By what share of ``base`` is ``new`` worse (negative: better)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def compare_metric(name, better, bound, a_runs, b_runs):
    a = [values[name] for values in a_runs.values() if name in values]
    b = [values[name] for values in b_runs.values() if name in values]
    if not a or not b:
        return None
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    row = {
        "metric": name, "bound": bound,
        "a": (a_med, a_q1, a_q3, len(a)), "b": (b_med, b_q1, b_q3, len(b)),
        "ratio": b_med / a_med if a_med else 0.0, "spread": 0.0,
    }
    if bound == 0:
        shared = set(a_runs) & set(b_runs)
        same = all(a_runs[seed].get(name) == b_runs[seed].get(name)
                   for seed in shared)
        row["verdict"] = "same" if same else "differs"
        return row
    spread = row["spread"] = max(
        (a_q3 - a_q1) / a_med if a_med else 0.0,
        (b_q3 - b_q1) / b_med if b_med else 0.0,
    )
    all_better = (
        min(b) > max(a) if better == "higher" else max(b) < min(a)
    )
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worsening(better, a_med, b_med) > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "ok"
    return row


def exact_differences(a_runs, b_runs):
    """Exact per-layer counts that differ, seed by seed."""
    out = []
    for seed in sorted(set(a_runs) & set(b_runs)):
        for name in metrics.EXACT:
            left, right = a_runs[seed].get(name), b_runs[seed].get(name)
            if left != right:
                out.append((seed, name, left, right))
    return out


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    a_set, b_set = load(argv[0]), load(argv[1])
    print("%-15s %-18s %34s %34s %7s %6s %6s  %s" % (
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n",
        "B/A", "spread", "bound", "verdict"))
    bad = 0
    for workload, trace in sorted(set(a_set) & set(b_set)):
        a_runs, b_runs = a_set[(workload, trace)], b_set[(workload, trace)]
        if trace:
            for seed, name, left, right in exact_differences(a_runs, b_runs):
                print("%-15s %-18s seed %d: A %r, B %r  differs"
                      % (workload, name, seed, left, right))
                bad += 1
            continue
        for name, (better, bound) in metrics.bounds(workload).items():
            row = compare_metric(name, better, bound, a_runs, b_runs)
            if row is None:
                continue
            print("%-15s %-18s %34s %34s %7.3f %6.3f %6.2f  %s" % (
                workload, name,
                "%.5g [%.5g, %.5g] %d" % row["a"],
                "%.5g [%.5g, %.5g] %d" % row["b"],
                row["ratio"], row["spread"], bound, row["verdict"]))
            bad += row["verdict"] in ("regressed", "differs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
