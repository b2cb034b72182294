"""Tests for the parallel experiment harness (repro.bench.parallel)."""

import json
import os

from repro.bench.parallel import (
    Cell,
    cell_key,
    derive_seed,
    run_cells,
    summarize,
)
from repro.tracing.atomicio import atomic_write


def square(x):
    return x * x


def seeded(seed, base=0):
    return {"seed": seed, "value": base + seed}


def boom():
    raise RuntimeError("cell exploded")


class TestCellKey(object):
    def test_stable_across_calls(self):
        assert cell_key(square, {"x": 3}) == cell_key(square, {"x": 3})

    def test_argument_order_irrelevant(self):
        a = cell_key(seeded, {"seed": 1, "base": 2})
        b = cell_key(seeded, {"base": 2, "seed": 1})
        assert a == b

    def test_distinct_args_distinct_keys(self):
        assert cell_key(square, {"x": 3}) != cell_key(square, {"x": 4})

    def test_distinct_functions_distinct_keys(self):
        assert cell_key(square, {}) != cell_key(boom, {})

    def test_format_version_salts_the_key(self, monkeypatch):
        # A bumped BENCH_FORMAT_VERSION must invalidate every cached
        # cell: stale results from older trace/compile/replay
        # semantics can never be served to newer code.
        from repro.bench import parallel

        before = cell_key(square, {"x": 3})
        monkeypatch.setattr(
            parallel, "BENCH_FORMAT_VERSION", parallel.BENCH_FORMAT_VERSION + 1
        )
        assert cell_key(square, {"x": 3}) != before


class TestAutoSeed(object):
    def test_deterministic(self):
        a = Cell(seeded, {"base": 10}, auto_seed=True)
        b = Cell(seeded, {"base": 10}, auto_seed=True)
        assert a.kwargs["seed"] == b.kwargs["seed"]

    def test_distinct_cells_get_distinct_seeds(self):
        a = Cell(seeded, {"base": 10}, auto_seed=True)
        b = Cell(seeded, {"base": 11}, auto_seed=True)
        assert a.kwargs["seed"] != b.kwargs["seed"]

    def test_explicit_seed_wins(self):
        cell = Cell(seeded, {"base": 1, "seed": 42}, auto_seed=True)
        assert cell.kwargs["seed"] == 42

    def test_seed_fits_31_bits(self):
        assert 0 <= derive_seed("ffffffff" + "0" * 56) < 2 ** 31


class TestRunCells(object):
    def test_serial_submission_order(self):
        cells = [Cell(square, {"x": i}) for i in range(5)]
        results = run_cells(cells, workers=1)
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert [r.index for r in results] == list(range(5))
        assert not any(r.cached for r in results)

    def test_parallel_submission_order(self):
        cells = [Cell(square, {"x": i}) for i in range(6)]
        results = run_cells(cells, workers=2)
        assert [r.value for r in results] == [0, 1, 4, 9, 16, 25]

    def test_progress_callback_sees_every_result(self):
        seen = []
        cells = [Cell(square, {"x": i}) for i in range(3)]
        run_cells(cells, workers=1, progress=seen.append)
        assert sorted(r.value for r in seen) == [0, 1, 4]

    def test_cache_roundtrip(self, tmp_path):
        cache = str(tmp_path / "cache")
        cells = [Cell(square, {"x": i}) for i in range(3)]
        first = run_cells(cells, workers=1, cache_dir=cache)
        assert not any(r.cached for r in first)
        second = run_cells(
            [Cell(square, {"x": i}) for i in range(3)],
            workers=1,
            cache_dir=cache,
        )
        assert all(r.cached for r in second)
        assert [r.value for r in second] == [0, 1, 4]

    def test_cache_disabled_per_cell(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_cells([Cell(square, {"x": 2}, cache=False)], workers=1,
                  cache_dir=cache)
        results = run_cells([Cell(square, {"x": 2}, cache=False)], workers=1,
                            cache_dir=cache)
        assert not results[0].cached

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        cell = Cell(square, {"x": 5})
        (cache / (cell.key + ".json")).write_text("{not json")
        results = run_cells([cell], workers=1, cache_dir=str(cache))
        assert results[0].value == 25
        assert not results[0].cached
        # And the recompute repaired the entry.
        entry = json.loads((cache / (cell.key + ".json")).read_text())
        assert entry["value"] == 25
        assert entry["key"] == cell.key


class TestCacheAccounting(object):
    def entry(self, cache, cell):
        with open(os.path.join(cache, cell.key + ".json")) as handle:
            return json.load(handle)

    def test_fresh_entry_has_zero_hits_and_a_wall_time(self, tmp_path):
        cache = str(tmp_path / "cache")
        cell = Cell(square, {"x": 3})
        run_cells([cell], workers=1, cache_dir=cache)
        entry = self.entry(cache, cell)
        assert entry["hits"] == 0
        assert entry["seconds"] >= 0.0

    def test_each_cached_load_counts_a_hit(self, tmp_path):
        cache = str(tmp_path / "cache")
        cell = Cell(square, {"x": 3})
        run_cells([cell], workers=1, cache_dir=cache)
        for expected in (1, 2, 3):
            run_cells([Cell(square, {"x": 3})], workers=1, cache_dir=cache)
            assert self.entry(cache, cell)["hits"] == expected

    def test_cached_result_reports_original_wall_time(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_cells([Cell(square, {"x": 3})], workers=1, cache_dir=cache)
        cell = Cell(square, {"x": 3})
        recorded = self.entry(cache, cell)["seconds"]
        results = run_cells([cell], workers=1, cache_dir=cache)
        assert results[0].cached
        assert results[0].seconds == recorded

    def test_summarize_splits_cached_from_computed(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_cells([Cell(square, {"x": 1})], workers=1, cache_dir=cache)
        results = run_cells(
            [Cell(square, {"x": 1}), Cell(square, {"x": 2})],
            workers=1, cache_dir=cache,
        )
        stats = summarize(results)
        assert stats["cells"] == 2
        assert stats["cached"] == 1
        assert stats["computed"] == 1
        assert stats["compute_seconds"] >= 0.0
        assert stats["saved_seconds"] >= 0.0

    def test_summarize_empty(self):
        assert summarize([]) == {
            "cells": 0, "cached": 0, "computed": 0,
            "compute_seconds": 0.0, "saved_seconds": 0.0,
        }


class TestAtomicWrite(object):
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out" / "result.txt"
        atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_whole_file(self, tmp_path):
        target = tmp_path / "result.txt"
        atomic_write(str(target), "long old content\n")
        atomic_write(str(target), "new\n")
        assert target.read_text() == "new\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "result.txt"
        atomic_write(str(target), "x")
        assert os.listdir(str(tmp_path)) == ["result.txt"]
