"""Tests for the trace model and JSON format."""

import pytest

from repro.tracing.trace import Trace, TraceRecord


def rec(idx, tid=1, name="stat", args=None, ret=0, err=None, t=None):
    t = float(idx) if t is None else t
    return TraceRecord(idx, tid, name, args or {"path": "/x"}, ret, err, t, t + 0.5)


class TestTraceRecord(object):
    def test_ok_and_duration(self):
        record = rec(0)
        assert record.ok
        assert record.duration == 0.5

    def test_failed_record(self):
        record = rec(0, ret=-1, err="ENOENT")
        assert not record.ok

    def test_dict_round_trip(self):
        record = rec(3, tid="T2", name="open", args={"path": "/f", "flags": "O_RDONLY"}, ret=4)
        clone = TraceRecord.from_dict(record.to_dict())
        assert clone.idx == 3
        assert clone.tid == "T2"
        assert clone.args == record.args
        assert clone.ret == 4


class TestTrace(object):
    def test_threads_in_first_appearance_order(self):
        trace = Trace([rec(0, tid="B"), rec(1, tid="A"), rec(2, tid="B")])
        assert trace.threads == ["B", "A"]

    def test_duration_spans_all_records(self):
        trace = Trace([rec(0, t=1.0), rec(1, t=5.0)])
        assert trace.duration == pytest.approx(4.5)

    def test_empty_trace(self):
        trace = Trace()
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.threads == []

    def test_by_thread_partitions(self):
        trace = Trace([rec(0, tid=1), rec(1, tid=2), rec(2, tid=1)])
        groups = trace.by_thread()
        assert [r.idx for r in groups[1]] == [0, 2]
        assert [r.idx for r in groups[2]] == [1]

    def test_json_round_trip(self):
        trace = Trace(
            [rec(0, name="open", args={"path": "/a", "flags": "O_RDONLY"}, ret=3),
             rec(1, name="read", args={"fd": 3, "nbytes": 100}, ret=100),
             rec(2, name="stat", args={"path": "/nope"}, ret=-1, err="ENOENT")],
            platform="darwin",
            label="demo",
        )
        clone = Trace.loads(trace.dumps())
        assert clone.platform == "darwin"
        assert clone.label == "demo"
        assert len(clone) == 3
        assert clone[2].err == "ENOENT"
        assert clone[1].args == {"fd": 3, "nbytes": 100}

    def test_loads_rejects_garbage(self):
        with pytest.raises(ValueError):
            Trace.loads('{"format": "not-a-trace"}\n')

    def test_save_load_file(self, tmp_path):
        trace = Trace([rec(0)], label="file-test")
        path = tmp_path / "t.jsonl"
        trace.save(str(path))
        assert Trace.load(str(path)).label == "file-test"
