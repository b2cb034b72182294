"""Tests for the span recorder and its exports (repro.obs.spans)."""

import json

import pytest

from repro.obs.spans import SpanRecorder


def small_recording():
    rec = SpanRecorder()
    rec.record("pread", "syscall", "T1", 0.0, 0.002, args={"idx": 0})
    rec.record("R", "io", "hdd/s0", 0.001, 0.0035, args={"lba": 64})
    rec.record("pwrite", "syscall", "T2", 0.002, 0.004)
    rec.instant("short-read", "warning", "T1", 0.003, args={"idx": 7})
    return rec


class TestRecording(object):
    def test_span_duration(self):
        rec = SpanRecorder()
        span = rec.record("x", "c", "t", 1.0, 1.25)
        assert span.duration == pytest.approx(0.25)

    def test_len_counts_spans_and_instants(self):
        assert len(small_recording()) == 4

    def test_tracks_in_first_appearance_order(self):
        assert small_recording().tracks() == ["T1", "hdd/s0", "T2"]

    def test_by_category(self):
        cats = small_recording().by_category()
        assert len(cats["syscall"]) == 2
        assert len(cats["io"]) == 1


class TestChromeExport(object):
    def test_round_trips_through_json_loads(self):
        data = json.loads(small_recording().to_chrome_json())
        assert isinstance(data["traceEvents"], list)
        assert data["displayTimeUnit"] == "ms"

    def test_thread_name_metadata_per_track(self):
        data = small_recording().to_chrome()
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert [e["args"]["name"] for e in meta] == ["T1", "hdd/s0", "T2"]
        # Distinct synthetic tids per track.
        assert len({e["tid"] for e in meta}) == 3

    def test_complete_events_in_microseconds(self):
        data = small_recording().to_chrome()
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 3
        first = spans[0]
        assert first["name"] == "pread"
        assert first["cat"] == "syscall"
        assert first["ts"] == pytest.approx(0.0)
        assert first["dur"] == pytest.approx(2000.0)  # 2 ms in us
        assert first["args"] == {"idx": 0}

    def test_instants_are_thread_scoped(self):
        data = small_recording().to_chrome()
        marks = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert len(marks) == 1
        assert marks[0]["s"] == "t"
        assert marks[0]["name"] == "short-read"

    def test_empty_recorder_exports_valid_json(self):
        data = json.loads(SpanRecorder().to_chrome_json())
        assert data["traceEvents"] == []

    def test_save_chrome(self, tmp_path):
        path = str(tmp_path / "trace.json")
        small_recording().save_chrome(path)
        with open(path) as handle:
            assert len(json.load(handle)["traceEvents"]) == 3 + 1 + 3


class TestJsonlExport(object):
    def test_each_line_parses(self):
        text = small_recording().to_jsonl()
        lines = text.strip().split("\n")
        assert len(lines) == 4
        entries = [json.loads(line) for line in lines]
        assert entries[0]["name"] == "pread"
        assert entries[0]["start"] == 0.0
        assert entries[-1]["ts"] == 0.003  # instant uses ts, not start/end

    def test_empty_recorder_exports_empty_string(self):
        assert SpanRecorder().to_jsonl() == ""

    def test_save_jsonl(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        small_recording().save_jsonl(path)
        with open(path) as handle:
            assert sum(1 for _ in handle) == 4
