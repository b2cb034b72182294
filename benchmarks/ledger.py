#!/usr/bin/env python3
"""The perf ledger: one committed row of ``benchmarks/perf`` numbers per
commit, in ``benchmarks/ledger.jsonl``.

``ledger.py run [REV]``
    Measure REV (default HEAD) and append its row.  The commit's own
    files are exported with ``git archive`` into a scratch directory and
    its unmodified ``benchmarks/perf/run.py --workload W --seed N
    --trace 0|1`` runs there as a subprocess: seeds 0-2 untraced and
    seed 0 traced, one run at a time, each at ``BENCHMARK.json``'s
    ``run_seconds`` (``run.py``'s default).  REV's ``benchmarks/perf`` must
    equal HEAD's, so every row is read by one instrument.

``ledger.py check``
    Validate every row's schema and that each sha names a commit; the
    newest row's sha must be an ancestor of HEAD.  Runs nothing.

``ledger.py compare A B``
    Write the trimmed runs of the rows for A and B as two run sets and
    run ``benchmarks/perf/compare.py`` on them (A is the base).

``ledger.py show [REV]``
    Print the row for REV (default: the newest row) as a Markdown
    table, as the docs quote it.

A row holds the host (``cpus``, ``python``, ``calibration_ms``: the
calibration loop's median over the traced runs); per workload the
median and quartiles over the seeds of the seven end-to-end metrics,
``attempted`` and ``failed`` over every run, and the traced seed-0
run's layer shares, JIT and shard numbers; and the trimmed runs: each
run's bounded metrics (untraced) or exact counts (traced), which is
all ``compare.py`` reads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PERF = os.path.join(HERE, "perf")
LEDGER = os.path.join(HERE, "ledger.jsonl")
sys.path.insert(0, PERF)

import compare  # noqa: E402  (after the path line above)
import layers  # noqa: E402
import metrics  # noqa: E402

SEEDS = (0, 1, 2)
TRACED_SEED = 0
END_TO_END = tuple(name for name, _unit, _better, _bound in metrics.END_TO_END)
#: What a row keeps of each workload's traced run.
TRACED = tuple(layer + ".self_share" for layer in layers.REPLAY_LAYERS) + (
    "artc.codegen.cold_s",
    "artc.codegen.breakeven_replays",
    "artc.shardcore.aps",
    "artc.shardcore.mismatch_share",
)
JIT_RATIO = "replay_jit_aps/replay_aps"


def git(*args):
    return subprocess.run(
        ("git",) + args, cwd=REPO, check=True, stdout=subprocess.PIPE,
        universal_newlines=True,
    ).stdout.strip()


def workloads():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return [row["name"] for row in json.load(handle)["workloads"]]


def export(sha, into):
    """The commit's files, as ``git archive`` writes them, under ``into``."""
    archive = subprocess.Popen(("git", "archive", sha), cwd=REPO,
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", into), stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit("ledger: git archive %s failed" % sha)


def measure(checkout, workload, seed, trace):
    """One ``run.py`` of the checkout; its ``result.json``."""
    command = [sys.executable, "benchmarks/perf/run.py", "--workload",
               workload, "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(command, cwd=checkout, check=True,
                   stdout=subprocess.DEVNULL)
    path = os.path.join(checkout, "benchmarks", "perf", "out",
                        "%s-seed%d-trace%d" % (workload, seed, trace),
                        "result.json")
    with open(path) as handle:
        return json.load(handle)


def trimmed(result):
    """A run as ``compare.py`` reads it, keeping only what it compares."""
    if result["trace"]:
        keep = metrics.EXACT
    else:
        keep = tuple(metrics.bounds(result["workload"]))
    values = result["values"]
    return {
        "workload": result["workload"], "trace": result["trace"],
        "seed": result["seed"],
        "values": {name: values[name] for name in keep if name in values},
    }


def summary(values):
    q1, median, q3 = compare.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3}


def make_row(sha, results):
    row = {"sha": sha, "subject": git("log", "-1", "--format=%s", sha)}
    host = results[0]["host"]
    row.update(cpus=host["cpus"], python=host["python"])
    loops = []
    row["workloads"] = {}
    for name in workloads():
        runs = [r for r in results if r["workload"] == name]
        plain = [r["values"] for r in runs if not r["trace"]]
        traced = [r["values"] for r in runs if r["trace"]][0]
        loops.append(traced["host.calibration_ms"])
        auto = traced.get("replay_aps")
        row["workloads"][name] = {
            "metrics": {
                metric: summary([values[metric] for values in plain])
                for metric in END_TO_END
            },
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": dict(
                {metric: traced.get(metric) for metric in TRACED},
                **{JIT_RATIO: traced.get("replay_jit_aps", 0.0) / auto
                   if auto else None}
            ),
        }
    row["calibration_ms"] = statistics.median(loops)
    row["runs"] = [trimmed(r) for r in results]
    return row


def read_rows(path=LEDGER):
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def cmd_run(args):
    sha = git("rev-parse", "--verify", args.rev + "^{commit}")
    if subprocess.call(("git", "diff", "--quiet", sha, "HEAD", "--",
                        "benchmarks/perf"), cwd=REPO) != 0:
        raise SystemExit("ledger: benchmarks/perf at %s differs from HEAD's;"
                         " its numbers would not be comparable" % sha[:7])
    checkout = tempfile.mkdtemp(prefix="ledger-%s-" % sha[:7],
                                dir=args.workdir)
    try:
        export(sha, checkout)
        results = []
        for name in workloads():
            for seed in SEEDS:
                results.append(measure(checkout, name, seed, 0))
            results.append(measure(checkout, name, TRACED_SEED, 1))
            print("%s %s: %d runs" % (sha[:7], name, SEEDS[-1] + 2),
                  flush=True)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    row = make_row(sha, results)
    with open(args.ledger, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def row_problems(row, names):
    """What is wrong with one row's shape, as strings."""
    out = []
    for key in ("sha", "cpus", "python", "calibration_ms", "runs"):
        if key not in row:
            out.append("no %r" % key)
    if "sha" in row and subprocess.call(
            ("git", "cat-file", "-e", row["sha"] + "^{commit}"), cwd=REPO,
            stderr=subprocess.DEVNULL) != 0:
        out.append("sha %s names no commit here" % row["sha"])
    got = row.get("workloads", {})
    if sorted(got) != sorted(names):
        out.append("workloads %s, expected %s" % (sorted(got), sorted(names)))
    for name in names:
        entry = got.get(name, {})
        for metric in END_TO_END:
            cell = entry.get("metrics", {}).get(metric, {})
            if not all(isinstance(cell.get(k), (int, float))
                       for k in ("median", "q1", "q3")):
                out.append("%s %s lacks a median and quartiles" % (name, metric))
        for key in ("attempted", "failed", "traced"):
            if key not in entry:
                out.append("%s has no %r" % (name, key))
    return out


def cmd_check(args):
    rows = read_rows(args.ledger)
    if not rows:
        raise SystemExit("ledger: %s holds no rows" % args.ledger)
    names = workloads()
    bad = 0
    for number, row in enumerate(rows, 1):
        for problem in row_problems(row, names):
            print("row %d (%s): %s" % (number, row.get("sha", "?")[:7], problem))
            bad += 1
    newest = rows[-1].get("sha", "")
    if subprocess.call(("git", "merge-base", "--is-ancestor", newest, "HEAD"),
                       cwd=REPO, stderr=subprocess.DEVNULL) != 0:
        print("newest row %s is not an ancestor of HEAD" % newest[:7])
        bad += 1
    print("%d rows, %d problems" % (len(rows), bad))
    return 1 if bad else 0


def find_row(rows, rev):
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    matches = [row for row in rows if row["sha"] == sha]
    if not matches:
        raise SystemExit("ledger: no row for %s" % rev)
    return matches[-1]


def cmd_compare(args):
    rows = read_rows(args.ledger)
    scratch = tempfile.mkdtemp(prefix="ledger-compare-")
    try:
        paths = []
        for rev in (args.a, args.b):
            path = os.path.join(scratch, "%s.json" % rev.replace("/", "_"))
            with open(path, "w") as handle:
                json.dump({"runs": find_row(rows, rev)["runs"]}, handle)
            paths.append(path)
        return subprocess.call(
            [sys.executable, os.path.join(PERF, "compare.py")] + paths
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def number(value):
    return "%.1fk" % (value / 1000.0) if abs(value) >= 1000 else "%.3g" % value


def cmd_show(args):
    rows = read_rows(args.ledger)
    row = find_row(rows, args.rev) if args.rev else rows[-1]
    print("`%s` %s; %d CPUs, Python %s, calibration loop %.2f ms.\n"
          % (row["sha"][:7], row["subject"], row["cpus"], row["python"],
             row["calibration_ms"]))
    names = [name for name in workloads() if name in row["workloads"]]
    print("| metric | " + " | ".join("`%s`" % name for name in names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for metric in END_TO_END:
        cells = []
        for name in names:
            cell = row["workloads"][name]["metrics"][metric]
            cells.append("%s [%s, %s]" % tuple(
                number(cell[key]) for key in ("median", "q1", "q3")))
        print("| `%s` | %s |" % (metric, " | ".join(cells)))
    print("| failed / attempted | %s |" % " | ".join(
        "%d / %d" % (row["workloads"][name]["failed"],
                     row["workloads"][name]["attempted"]) for name in names))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ledger", default=LEDGER)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure a commit and append its row")
    run.add_argument("rev", nargs="?", default="HEAD")
    run.add_argument("--workdir", default=None,
                     help="where the export goes (default: the system's"
                     " temporary directory)")
    sub.add_parser("check", help="validate the committed rows")
    comp = sub.add_parser("compare", help="compare.py on two commits' runs")
    comp.add_argument("a")
    comp.add_argument("b")
    show = sub.add_parser("show", help="one row as a Markdown table")
    show.add_argument("rev", nargs="?", default=None)
    args = parser.parse_args(argv)
    return {"run": cmd_run, "check": cmd_check, "compare": cmd_compare,
            "show": cmd_show}[args.command](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
