"""Tests for replay warnings (paper section 5.1)."""

import pytest

from repro.artc import compile_trace, replay, ReplayConfig
from repro.artc.init import initialize
from repro.artc.report import ReplayWarning
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from tests.conftest import make_fs


def rec(idx, tid, name, args, ret=0, err=None):
    return TraceRecord(idx, tid, name, args, ret, err, float(idx), idx + 0.1)


def run(records, entries=(), **config):
    snap = Snapshot()
    for entry in entries:
        snap.add(*entry)
    bench = compile_trace(Trace(records), snap)
    fs = make_fs(seed=1)
    initialize(fs, snap)
    return replay(bench, fs, ReplayConfig(**config))


class TestWarningKinds(object):
    def test_clean_replay_warns_nothing(self):
        report = run([rec(0, 1, "stat", {"path": "/f"}, ret=0)], [("/f", "reg", 1)])
        assert report.warnings == []

    def test_unexpected_failure(self):
        report = run([rec(0, 1, "unlink", {"path": "/ghost"}, ret=0)])
        kinds = report.warnings_by_kind()
        assert len(kinds[ReplayWarning.UNEXPECTED_FAILURE]) == 1
        assert "ENOENT" in kinds[ReplayWarning.UNEXPECTED_FAILURE][0].message

    def test_unexpected_success(self):
        report = run(
            [rec(0, 1, "stat", {"path": "/f"}, ret=-1, err="ENOENT")],
            [("/f", "reg", 1)],
        )
        assert ReplayWarning.UNEXPECTED_SUCCESS in report.warnings_by_kind()

    def test_wrong_errno(self):
        # Trace says EACCES; replay gets ENOENT.
        report = run([rec(0, 1, "stat", {"path": "/nope"}, ret=-1, err="EACCES")])
        assert ReplayWarning.WRONG_ERRNO in report.warnings_by_kind()

    def test_short_read_warning(self):
        records = [
            rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3),
            # Trace claims 4096 bytes, but the file only has 100.
            rec(1, 1, "pread", {"fd": 3, "nbytes": 4096, "offset": 0}, ret=4096),
        ]
        report = run(records, [("/f", "reg", 100)])
        warning = report.warnings_by_kind()[ReplayWarning.SHORT_READ][0]
        assert warning.idx == 1

    def test_warning_count_tracks_failures(self):
        report = run([rec(0, 1, "unlink", {"path": "/ghost"}, ret=0)])
        assert len(report.warnings) == report.failures


class TestDeduplication(object):
    def test_repeats_collapse_onto_first_emission(self):
        records = [
            rec(0, 1, "unlink", {"path": "/ghost1"}, ret=0),
            rec(1, 1, "unlink", {"path": "/ghost2"}, ret=0),
            rec(2, 1, "unlink", {"path": "/ghost3"}, ret=0),
        ]
        report = run(records)
        assert len(report.warnings) == 1
        warning = report.warnings[0]
        assert warning.kind == ReplayWarning.UNEXPECTED_FAILURE
        assert warning.idx == 0  # first occurrence wins
        assert warning.count == 3
        assert warning.message.endswith("[x3]")
        assert report.warning_emissions() == 3

    def test_single_warning_keeps_plain_message(self):
        report = run([rec(0, 1, "unlink", {"path": "/ghost"}, ret=0)])
        assert report.warnings[0].count == 1
        assert "[x" not in report.warnings[0].message

    def test_distinct_calls_not_merged(self):
        # Same kind, different syscall names: two entries.
        records = [
            rec(0, 1, "unlink", {"path": "/ghost"}, ret=0),
            rec(1, 1, "rmdir", {"path": "/ghostdir"}, ret=0),
        ]
        report = run(records)
        assert len(report.warnings) == 2
        assert report.warning_emissions() == 2

    def test_distinct_kinds_not_merged(self):
        records = [
            rec(0, 1, "stat", {"path": "/missing"}, ret=0),
            rec(1, 1, "stat", {"path": "/f"}, ret=-1, err="ENOENT"),
        ]
        report = run(records, [("/f", "reg", 1)])
        kinds = {w.kind for w in report.warnings}
        assert ReplayWarning.UNEXPECTED_FAILURE in kinds
        assert ReplayWarning.UNEXPECTED_SUCCESS in kinds

    def test_failure_accounting_not_deduplicated(self):
        records = [
            rec(idx, 1, "unlink", {"path": "/ghost%d" % idx}, ret=0)
            for idx in range(4)
        ]
        report = run(records)
        assert report.failures == 4  # accuracy metric unaffected
        assert len(report.warnings) == 1


class TestLatencyComparison(object):
    def test_compare_latencies_rows(self):
        records = [
            rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3),
            rec(1, 1, "pread", {"fd": 3, "nbytes": 100, "offset": 0}, ret=100),
            rec(2, 1, "close", {"fd": 3}),
        ]
        snap = Snapshot()
        snap.add("/f", "reg", 4096)
        trace = Trace(records)
        bench = compile_trace(trace, snap)
        fs = make_fs(seed=1)
        initialize(fs, snap)
        report = replay(bench, fs, ReplayConfig())
        rows = {row["call"]: row for row in report.compare_latencies(trace)}
        assert rows["pread"]["count"] == 1
        assert rows["pread"]["orig_mean"] == pytest.approx(0.1)
        assert rows["pread"]["replay_mean"] >= 0
