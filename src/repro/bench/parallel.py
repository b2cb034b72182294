"""Parallel experiment harness with an on-disk result cache.

The paper's evaluation replays many independent source/target cells
(Figure 7 alone is a 7x7 matrix; Table 3 and Figure 10 drive 34
Magritte traces).  Every cell is a pure function of its inputs -- the
simulator is deterministic for a given seed -- so cells can fan out
across worker processes and their results can be memoized on disk.

Usage::

    cells = [Cell(fn, kwargs) for kwargs in ...]
    results = run_cells(cells, workers=4, cache_dir=".cache")
    values = [r.value for r in results]   # submission order

``fn`` must be a module-level callable (picklable by reference) whose
keyword arguments and return value are JSON-serializable; that is also
what makes a cell hashable for the cache.  Results always come back in
submission order, whatever order workers finish in.

Caching: each completed cell is written to ``<cache_dir>/<key>.json``
via a temp file + ``os.replace`` (atomic on POSIX), keyed by a SHA-256
content hash of the callable's qualified name and its arguments --
which is why apps, platforms, modes, seeds, and rulesets must all be
*in* the arguments, not baked into closures.  A second run of the same
bench loads finished cells instead of recomputing them.  Clear the
cache by deleting the directory.
"""

import hashlib
import json
import os
import time

try:
    import multiprocessing
except ImportError:  # pragma: no cover - CPython always has it
    multiprocessing = None

from repro.tracing.atomicio import atomic_write


#: Salt folded into every cell key (and into artifact keys, see
#: :mod:`repro.bench.artifacts`).  Bump it whenever trace, compile, or
#: replay semantics change in a way that invalidates cached results --
#: otherwise a stale cache silently serves numbers the current code
#: would not produce.  2: scoreboard replay core + persistent
#: compiled-benchmark artifacts.
BENCH_FORMAT_VERSION = 2


def default_cache_dir():
    """``$ARTC_CACHE_DIR`` or ``~/.cache/artc-bench``."""
    env = os.environ.get("ARTC_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "artc-bench")


def _qualified_name(fn):
    return "%s:%s" % (getattr(fn, "__module__", "?"), fn.__qualname__)


def cell_key(fn, kwargs):
    """Content hash identifying one cell: format version + callable +
    arguments."""
    payload = json.dumps(
        [BENCH_FORMAT_VERSION, _qualified_name(fn), kwargs],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def derive_seed(key):
    """A deterministic 31-bit seed from a cell key (used when the
    caller asks for ``auto_seed``)."""
    return int(key[:8], 16) & 0x7FFFFFFF


class Cell(object):
    """One schedulable unit: ``fn(**kwargs)``.

    - ``auto_seed``: inject ``kwargs['seed'] = derive_seed(...)`` from
      the content hash of the *other* arguments, so every cell gets a
      distinct but reproducible seed.
    - ``cache=False``: always recompute (e.g. when the result depends
      on files the arguments do not capture).
    """

    __slots__ = ("fn", "kwargs", "cache", "key")

    def __init__(self, fn, kwargs=None, auto_seed=False, cache=True):
        self.fn = fn
        self.kwargs = dict(kwargs or {})
        self.cache = cache
        if auto_seed and "seed" not in self.kwargs:
            self.kwargs["seed"] = derive_seed(cell_key(fn, self.kwargs))
        self.key = cell_key(fn, self.kwargs)


class CellResult(object):
    """A completed cell: ``value`` plus provenance."""

    __slots__ = ("index", "key", "value", "cached", "seconds")

    def __init__(self, index, key, value, cached, seconds):
        self.index = index
        self.key = key
        self.value = value
        self.cached = cached
        self.seconds = seconds

    def __repr__(self):
        return "<CellResult #%d %s %.2fs%s>" % (
            self.index, self.key[:10], self.seconds,
            " (cached)" if self.cached else "",
        )


def _invoke(payload):
    """Worker body: run one cell, timing it.  Module-level so it is
    picklable under every multiprocessing start method."""
    index, fn, kwargs = payload
    started = time.perf_counter()
    value = fn(**kwargs)
    return index, value, time.perf_counter() - started


def _cache_path(cache_dir, key):
    return os.path.join(cache_dir, key + ".json")


def _cache_load(cache_dir, cell):
    if cache_dir is None or not cell.cache:
        return None
    path = _cache_path(cache_dir, cell.key)
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    if entry.get("key") != cell.key:
        return None
    # Count the hit in the entry itself, so the cache directory records
    # how much each memoized cell has been worth.  Best-effort: a
    # read-only cache still serves hits, it just stops counting.
    entry["hits"] = entry.get("hits", 0) + 1
    try:
        atomic_write(path, json.dumps(entry))
    except OSError:
        pass
    return entry


def _cache_store(cache_dir, cell, value, seconds):
    if cache_dir is None or not cell.cache:
        return
    entry = {
        "key": cell.key,
        "fn": _qualified_name(cell.fn),
        "kwargs": cell.kwargs,
        "value": value,
        "seconds": seconds,
        "hits": 0,
    }
    atomic_write(_cache_path(cache_dir, cell.key), json.dumps(entry))


def summarize(results):
    """Aggregate a ``run_cells`` result list for reporting.

    ``compute_seconds`` is wall time actually spent this run;
    ``saved_seconds`` is the recorded cost of the cells the cache
    answered instead (what a cold run would have added).
    """
    cached = [r for r in results if r.cached]
    computed = [r for r in results if not r.cached]
    return {
        "cells": len(results),
        "cached": len(cached),
        "computed": len(computed),
        "compute_seconds": sum(r.seconds for r in computed),
        "saved_seconds": sum(r.seconds for r in cached),
    }


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


def run_cells(cells, workers=None, cache_dir=None, progress=None):
    """Run every cell, returning ``CellResult`` objects in submission
    order.

    - ``workers``: process count; defaults to ``os.cpu_count()``
      capped at the number of uncached cells.  ``workers <= 1`` (or an
      unavailable fork context) runs in-process.
    - ``cache_dir``: directory for the result cache; ``None`` disables
      caching entirely (:func:`default_cache_dir` is the conventional
      location, but opting in is explicit).
    - ``progress``: optional callable invoked with each
      :class:`CellResult` as it is collected (submission order).
    """
    cells = list(cells)
    results = [None] * len(cells)
    pending = []
    for index, cell in enumerate(cells):
        entry = _cache_load(cache_dir, cell)
        if entry is not None:
            results[index] = CellResult(
                index, cell.key, entry["value"], True,
                entry.get("seconds", 0.0),
            )
            if progress is not None:
                progress(results[index])
        else:
            pending.append(index)

    if pending:
        if workers is None:
            workers = os.cpu_count() or 1
        workers = max(1, min(workers, len(pending)))
        context = _fork_context() if workers > 1 else None

        def _finish(index, value, seconds):
            cell = cells[index]
            _cache_store(cache_dir, cell, value, seconds)
            results[index] = CellResult(index, cell.key, value, False, seconds)
            if progress is not None:
                progress(results[index])

        if context is None or workers == 1:
            for index in pending:
                _finish(*_invoke((index, cells[index].fn, cells[index].kwargs)))
        else:
            pool = context.Pool(processes=workers)
            try:
                handles = [
                    pool.apply_async(
                        _invoke, ((index, cells[index].fn, cells[index].kwargs),)
                    )
                    for index in pending
                ]
                for handle in handles:
                    _finish(*handle.get())
            finally:
                pool.close()
                pool.join()
    return results
