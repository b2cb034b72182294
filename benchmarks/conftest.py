"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_*`` file regenerates one table or figure from the paper.
Results are printed to the terminal (bypassing capture) and saved under
``benchmarks/results/`` atomically (temp file + rename), so an
interrupted run never truncates committed results.

The heavy benches fan their independent cells across worker processes
via :mod:`repro.bench.parallel` and compute every cell on every run.
``ARTC_BENCH_WORKERS`` overrides the worker count (default: all cores).
Cells that share an (app, source, seed, ruleset) tuple reuse one
trace+compile, filed as an ``.artcb`` under ``benchmarks/.cache/artifacts``
(or ``ARTC_ARTIFACT_DIR``) and keyed on the program's own source, so a
run never loads a compile made by other code.
"""

import os

import pytest

from repro.bench.parallel import run_cells
from repro.tracing.atomicio import atomic_write

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Opt the whole bench suite (and the worker processes it forks) into
# the compiled-benchmark artifact cache (repro.bench.artifacts).
os.environ.setdefault(
    "ARTC_ARTIFACT_DIR",
    os.path.join(os.path.dirname(__file__), ".cache", "artifacts"),
)


def bench_workers():
    value = int(os.environ.get("ARTC_BENCH_WORKERS", "0"))
    return value if value > 0 else None


def run_bench_cells(cells):
    """Run cells through the parallel harness with the bench-suite
    worker count; returns values in submission order."""
    results = run_cells(cells, workers=bench_workers())
    return [r.value for r in results]


@pytest.fixture
def emit(capsys):
    """Print a result block to the real terminal and persist it."""

    def _emit(name, text):
        atomic_write(os.path.join(RESULTS_DIR, name + ".txt"), text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _emit


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
