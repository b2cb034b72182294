"""Tests for the parallel experiment harness (repro.bench.parallel)."""

import os

from repro.bench.parallel import Cell, run_cells
from repro.tracing.atomicio import atomic_write


def square(x):
    return x * x


class TestRunCells(object):
    def test_serial_submission_order(self):
        cells = [Cell(square, {"x": i}) for i in range(5)]
        results = run_cells(cells, workers=1)
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert [r.index for r in results] == list(range(5))

    def test_parallel_submission_order(self):
        cells = [Cell(square, {"x": i}) for i in range(6)]
        results = run_cells(cells, workers=2)
        assert [r.value for r in results] == [0, 1, 4, 9, 16, 25]

    def test_progress_callback_sees_every_result(self):
        seen = []
        cells = [Cell(square, {"x": i}) for i in range(3)]
        run_cells(cells, workers=1, progress=seen.append)
        assert sorted(r.value for r in seen) == [0, 1, 4]

    def test_every_run_computes_every_cell(self):
        # Nothing is kept between runs: a second run of the same cell
        # calls its function again.
        calls = []

        def counted(x):
            calls.append(x)
            return x

        for _ in range(2):
            run_cells([Cell(counted, {"x": 3})], workers=1)
        assert calls == [3, 3]


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
