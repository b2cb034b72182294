"""Parallel experiment harness.

The paper's evaluation replays many independent source/target cells
(Figure 7 alone is a 7x7 matrix; Table 3 and Figure 10 drive 34
Magritte traces).  Every cell is a pure function of its inputs -- the
simulator is deterministic for a given seed -- so cells can fan out
across worker processes.

Usage::

    cells = [Cell(fn, kwargs) for kwargs in ...]
    results = run_cells(cells, workers=4)
    values = [r.value for r in results]   # submission order

``fn`` must be a module-level callable (picklable by reference) whose
return value pickles.  Results always come back in submission order,
whatever order workers finish in.

Nothing is kept between runs: a cell's outcome depends on the code
that computes it, which its arguments cannot name, so every run
computes every cell.  The compiled benchmarks the cells share are
reused through :mod:`repro.bench.artifacts`, whose key hashes the
program.
"""

import os
import time

try:
    import multiprocessing
except ImportError:  # pragma: no cover - CPython always has it
    multiprocessing = None


class Cell(object):
    """One schedulable unit: ``fn(**kwargs)``."""

    __slots__ = ("fn", "kwargs")

    def __init__(self, fn, kwargs=None):
        self.fn = fn
        self.kwargs = dict(kwargs or {})


class CellResult(object):
    """A completed cell: ``value`` and the wall time it took."""

    __slots__ = ("index", "value", "seconds")

    def __init__(self, index, value, seconds):
        self.index = index
        self.value = value
        self.seconds = seconds

    def __repr__(self):
        return "<CellResult #%d %.2fs>" % (self.index, self.seconds)


def _invoke(payload):
    """Worker body: run one cell, timing it.  Module-level so it is
    picklable under every multiprocessing start method."""
    index, fn, kwargs = payload
    started = time.perf_counter()
    value = fn(**kwargs)
    return CellResult(index, value, time.perf_counter() - started)


def _fork_context():
    """The fork start method keeps bench-module callables picklable
    (children inherit the parent's modules); without it -- or inside a
    daemonic worker, which may not have children -- run serially."""
    if multiprocessing is None:
        return None
    try:
        if multiprocessing.current_process().daemon:
            return None
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return None


def run_cells(cells, workers=None, progress=None):
    """Run every cell, returning ``CellResult`` objects in submission
    order.

    - ``workers``: process count; defaults to ``os.cpu_count()``
      capped at the number of cells.  ``workers <= 1`` (or an
      unavailable fork context) runs in-process.
    - ``progress``: optional callable invoked with each
      :class:`CellResult` as it is collected (submission order).
    """
    payloads = [(index, cell.fn, cell.kwargs) for index, cell in enumerate(cells)]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(payloads)))
    context = _fork_context() if workers > 1 else None

    results = []

    def _finish(result):
        results.append(result)
        if progress is not None:
            progress(result)

    if context is None:
        for payload in payloads:
            _finish(_invoke(payload))
        return results
    pool = context.Pool(processes=workers)
    try:
        handles = [pool.apply_async(_invoke, (payload,)) for payload in payloads]
        for handle in handles:
            _finish(handle.get())
    finally:
        pool.close()
        pool.join()
    return results
