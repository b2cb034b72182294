"""Tests for the iBench dtrace trace format."""

import pytest

from repro.errors import TraceError, TraceParseError
from repro.syscalls.registry import REGISTRY
from repro.tracing import ibench
from repro.tracing.trace import Trace, TraceRecord

SAMPLE = "\n".join(
    [
        "# iBench dtrace capture",
        '1380000000123456\t85\t0x70000abc\topen\t"/Library/x.plist", 0x2, 0x1B6\t3',
        "1380000000123600\t12\t0x70000abc\tread\t0x3, 0x7fff5fbff000, 0x1000\t4096",
        "1380000000123700\t30\t0x70000abc\twrite_nocancel\t0x3, 0x10e43a000, 0x400\t1024",
        "1380000000123800\t5\t0x70000abc\tclose\t0x3\t0",
        '1380000000123900\t9\t0x70000def\tstat64\t"/missing"\t-1 ENOENT',
        '1380000000124000\t40\t0x70000def\tgetattrlist\t"/Library"\t0',
        '1380000000124100\t22\t0x70000abc\texchangedata\t"/a", "/b"\t0',
    ]
) + "\n"


class TestParsing(object):
    def test_parses_all_records(self):
        trace = ibench.loads(SAMPLE, label="sample")
        assert len(trace) == 7
        assert trace.platform == "darwin"
        assert trace.label == "sample"

    def test_timestamps_are_seconds(self):
        trace = ibench.loads(SAMPLE)
        record = trace[0]
        assert record.t_enter == pytest.approx(1380000000.123456)
        # Duration is a difference of two ~1.4e9 floats: allow float
        # resolution at that magnitude.
        assert record.duration == pytest.approx(85e-6, rel=0.01)

    def test_buffer_pointers_discarded(self):
        trace = ibench.loads(SAMPLE)
        read = trace[1]
        assert read.args == {"fd": 3, "nbytes": 4096}

    def test_flag_words_become_symbolic(self):
        trace = ibench.loads(SAMPLE)
        assert trace[0].args["flags"] == "O_RDWR"
        assert trace[0].args["mode"] == 0o666

    def test_errno_parsed(self):
        trace = ibench.loads(SAMPLE)
        stat = trace[4]
        assert not stat.ok
        assert stat.err == "ENOENT"

    def test_hex_thread_ids_preserved(self):
        trace = ibench.loads(SAMPLE)
        assert trace[0].tid == "0x70000abc"
        assert trace[4].tid == "0x70000def"

    def test_two_path_calls(self):
        trace = ibench.loads(SAMPLE)
        assert trace[6].args == {"path1": "/a", "path2": "/b"}

    def test_bad_field_count_raises(self):
        with pytest.raises(TraceParseError):
            ibench.loads("123\t45\ttid\topen\n")

    def test_thread_id_int_cannot_read_stays_text(self):
        # ``"²".isdigit()`` holds, but ``int("²")`` raises.
        trace = ibench.loads('1\t2\t\u00b2\tstat64\t"/a"\t0\n')
        assert trace[0].tid == "\u00b2"

    def test_non_numeric_timestamp_raises_with_line_number(self):
        with pytest.raises(TraceParseError) as info:
            ibench.loads('# c\n1x\t2\t7\tstat64\t"/a"\t0\n')
        assert info.value.line_number == 2

    def test_octal_looking_flag_word_raises_with_line_number(self):
        # ``int("0644", 0)`` refuses a leading zero.
        with pytest.raises(TraceParseError) as info:
            ibench.loads('1\t2\t7\topen\t"/a", 0644, 0x1B6\t3\n')
        assert info.value.line_number == 1


class TestRoundTrip(object):
    def test_dumps_loads_round_trip(self):
        trace = ibench.loads(SAMPLE)
        clone = ibench.loads(ibench.dumps(trace))
        assert len(clone) == len(trace)
        for a, b in zip(trace.records, clone.records):
            assert a.name == b.name
            assert a.args == b.args
            assert a.err == b.err

    def test_file_round_trip(self, tmp_path):
        trace = ibench.loads(SAMPLE)
        path = str(tmp_path / "t.ibench")
        ibench.save(trace, path)
        assert len(ibench.load(path)) == len(trace)

    def test_form_feed_in_a_path_round_trips(self):
        """Lines split on newlines alone, as in the other formats: a form
        feed (or another character ``str.splitlines`` ends a line at)
        inside a path is text."""
        records = [
            TraceRecord(n, 1, "stat64", {"path": "/a%sb" % ch}, 0, None, 1.0 + n, 1.5 + n)
            for n, ch in enumerate("\x0c\x1c\x85\u2028")
        ]
        clone = ibench.loads(ibench.dumps(Trace(records, platform="darwin")))
        assert [r.to_dict() for r in clone.records] == [r.to_dict() for r in records]


    def test_every_darwin_call_round_trips(self):
        """One record of every registry name Darwin has: the layout is
        the registry's, so nothing to keep in step by hand."""
        text = {"flags": "O_RDWR|O_CREAT", "cmd": "F_GETFL"}
        for name in ("path", "path1", "path2", "old", "new", "target", "name", "xname"):
            text[name] = '/p/a "%s", b' % name
        records = []
        for spec in REGISTRY.values():
            if "darwin" not in spec.platforms:
                continue
            idx = len(records)
            failed = idx % 5 == 0
            records.append(TraceRecord(
                idx, "0x7000%04x" % (idx % 3), spec.name,
                {name: text.get(name, 0o600 + idx + slot)
                 for slot, name in enumerate(spec.args)},
                -1 if failed else idx, "ENOENT" if failed else None,
                idx / 64.0, idx / 64.0 + 0.25,
            ))
        assert len(records) > 90
        trace = Trace(records, platform="darwin")
        clone = ibench.loads(ibench.dumps(trace))
        assert [r.to_dict() for r in clone.records] == [r.to_dict() for r in records]

    def test_a_list_return_is_carried(self):
        trace = Trace([TraceRecord(0, 1, "pipe", {}, [3, 4], None, 0.000001, 0.000003)])
        clone = ibench.loads(ibench.dumps(trace))
        assert [r.to_dict() for r in clone.records] == [r.to_dict() for r in trace.records]

    def test_times_round_to_the_nearest_microsecond(self):
        # 0.0139999... s truncates to 13,999 us; it is 14,000 us.
        record = TraceRecord(0, 1, "stat64", {"path": "/f"}, 0, None,
                             0.014 - 1e-12, 0.015 - 1e-12)
        back = ibench.loads(ibench.dumps(Trace([record])))
        assert back.records[0].t_enter == 0.014
        assert back.records[0].t_return == 0.015

    @pytest.mark.parametrize("ret, err", [
        ((3, 4), None),          # reads back as a list
        (float("nan"), None),    # no JSON text reads back as it
        (5, "EIO"),              # a failed call is written as -1
    ])
    def test_a_return_that_cannot_be_carried_is_refused(self, ret, err):
        record = TraceRecord(7, 1, "pipe", {}, ret, err, 0.0, 0.1)
        with pytest.raises(TraceError, match="#7"):
            ibench.dumps(Trace([record]))


class TestPipeline(object):
    def test_ibench_trace_compiles_and_replays(self):
        from repro.artc import compile_trace, replay, ReplayConfig
        from repro.artc.init import initialize
        from repro.tracing.snapshot import Snapshot
        from tests.conftest import make_fs

        text = "\n".join(
            [
                '100000000\t50\t0x1\topen\t"/w/f", 0x41, 0x1B6\t3',
                "100000100\t400\t0x1\twrite\t0x3, 0x0, 0x2000\t8192",
                "100000600\t9000\t0x1\tfsync\t0x3\t0",
                "100010000\t5\t0x1\tclose\t0x3\t0",
                '100010100\t20\t0x2\tstat64\t"/w/f"\t0',
            ]
        ) + "\n"
        trace = ibench.loads(text, label="mini")
        snapshot = Snapshot()
        snapshot.add("/w", "dir")
        bench = compile_trace(trace, snapshot)
        fs = make_fs()
        initialize(fs, snapshot)
        report = replay(bench, fs, ReplayConfig())
        assert report.failures == 0
