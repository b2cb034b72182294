#!/usr/bin/env python
"""Run every paper benchmark through the parallel harness.

Each ``bench_*.py`` file becomes one cell executed as a pytest
subprocess; independent files run on separate workers.  Inside the
heavy benches the matrix cells fan out again via
:mod:`repro.bench.parallel` -- nested pools are avoided automatically
(a daemonic worker falls back to serial).

Result files land in ``benchmarks/results/`` via atomic temp+rename
writes (the ``emit`` fixture), so an interrupted run never truncates
committed results.

Usage::

    python benchmarks/run_all.py [--workers N] [--only fig7 table3 ...]
"""

import argparse
import glob
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.parallel import Cell, run_cells  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_bench_file(path):
    """One cell: run a single bench file under pytest, benchmark-only."""
    env = dict(os.environ)
    src = os.path.join(BENCH_DIR, "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", path, "-q", "--benchmark-only"],
        cwd=BENCH_DIR,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    tail = proc.stdout.decode("utf-8", "replace").splitlines()[-25:]
    return {
        "path": os.path.basename(path),
        "returncode": proc.returncode,
        "tail": tail,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (default: one per core)",
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="substring filters, e.g. 'fig7 table3'",
    )
    args = parser.parse_args(argv)

    paths = sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))
    if args.only:
        paths = [
            p for p in paths
            if any(token in os.path.basename(p) for token in args.only)
        ]
    if not paths:
        print("no bench files matched", file=sys.stderr)
        return 2

    cells = [Cell(run_bench_file, {"path": path}) for path in paths]

    def progress(result):
        status = "ok" if result.value["returncode"] == 0 else (
            "FAILED (%d)" % result.value["returncode"]
        )
        print("%-32s %-12s %6.1fs" % (result.value["path"], status, result.seconds))
        sys.stdout.flush()

    results = run_cells(cells, workers=args.workers or None, progress=progress)
    failed = [r.value for r in results if r.value["returncode"] != 0]
    for failure in failed:
        print("\n--- %s (exit %d) ---" % (failure["path"], failure["returncode"]))
        print("\n".join(failure["tail"]))
    print(
        "\n%d/%d bench files ok in %.1fs of cell time; results in %s"
        % (len(results) - len(failed), len(results),
           sum(r.seconds for r in results), os.path.join(BENCH_DIR, "results"))
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
