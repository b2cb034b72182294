"""Tests for the strace-compatible text format."""

import pytest

from repro.errors import TraceError
from repro.tracing import strace
from repro.tracing.trace import Trace, TraceRecord


def rec(idx, tid, name, args, ret=0, err=None, t=None):
    t = float(idx) if t is None else t
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.25)


def awkward_returns():
    """String, list and dict returns holding spaces, capitals, quotes
    and angle brackets (shared with the tailer's test)."""
    returns = [
        "/DIR/MY FILE",
        'say "HELLO WORLD"',
        "a <0.5> B",
        "> ENOENT",
        ["A B", "user.X Y"],
        [{"name": "READ ME", "ino": 7}, {"name": "x <y> Z", "ino": 8}],
        {"target": "/Volumes/MY DISK", "size": 10},
    ]
    names = ["readlink", "readlink", "readlink", "readlink", "listxattr",
             "getdents", "stat"]
    return Trace(
        [
            rec(i, 1, name, {"fd": 3} if name == "getdents" else {"path": "/l"}, ret=ret)
            for i, (name, ret) in enumerate(zip(names, returns))
        ]
    )


@pytest.fixture
def sample():
    return Trace(
        [
            rec(0, 101, "open", {"path": "/a/b", "flags": "O_RDWR|O_CREAT", "mode": 0o644}, ret=3),
            rec(1, 101, "write", {"fd": 3, "nbytes": 4096}, ret=4096),
            rec(2, 102, "stat", {"path": "/missing"}, ret=-1, err="ENOENT"),
            rec(3, 101, "rename", {"old": "/a/b", "new": "/a/c"}),
            rec(4, 102, "pread", {"fd": 3, "nbytes": 100, "offset": 8192}, ret=100),
            rec(5, 101, "aio_suspend", {"aiocbs": ["cb1", "cb2"]}),
            rec(6, 101, "getxattr", {"path": "/a/c", "xname": "user.k"}, ret=-1, err="ENODATA"),
        ],
        platform="darwin",
        label="fmt-test",
    )


class TestEmission(object):
    def test_lines_look_like_strace(self, sample):
        text = strace.dumps(sample)
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert '101 0.000000 open("/a/b", O_RDWR|O_CREAT, 420) = 3' in lines[1]
        assert "ENOENT" in lines[3]
        assert lines[1].endswith("<0.250000>")

    def test_header_carries_platform(self, sample):
        assert "platform=darwin" in strace.dumps(sample).splitlines()[0]


class TestRoundTrip(object):
    def test_full_round_trip(self, sample):
        clone = strace.loads(strace.dumps(sample))
        assert clone.platform == "darwin"
        assert clone.label == "fmt-test"
        assert len(clone) == len(sample)
        for original, copy in zip(sample.records, clone.records):
            assert copy.tid == original.tid
            assert copy.name == original.name
            assert copy.args == original.args
            assert copy.err == original.err
            assert copy.t_enter == pytest.approx(original.t_enter)
            assert copy.duration == pytest.approx(original.duration)

    def test_ret_values_preserved(self, sample):
        clone = strace.loads(strace.dumps(sample))
        assert clone[0].ret == 3
        assert clone[2].ret == -1

    def test_file_round_trip(self, sample, tmp_path):
        path = str(tmp_path / "trace.strace")
        strace.save(sample, path)
        assert len(strace.load(path)) == len(sample)

    def test_return_values_with_spaces_and_capitals(self):
        """A successful return ending in an upper-case word is not a
        failed call: the errno sits after the value, not inside it."""
        awkward = awkward_returns()
        clone = strace.loads(strace.dumps(awkward))
        assert [r.ret for r in clone] == [r.ret for r in awkward]
        assert [r.err for r in clone] == [None] * len(awkward)

    def test_errno_after_a_json_return_is_still_read(self):
        trace = strace.loads('1 0.1 readlink("/l") = "/MY FILE" EIO <0.1>\n')
        assert (trace[0].ret, trace[0].err) == ("/MY FILE", "EIO")


class TestParsing(object):
    def test_parse_hand_written_line(self):
        trace = strace.loads(
            '7 12.500000 open("/etc/fstab", O_RDONLY) = 5 <0.000100>\n'
        )
        record = trace[0]
        assert record.tid == 7
        assert record.args == {"path": "/etc/fstab", "flags": "O_RDONLY"}
        assert record.ret == 5

    def test_parse_quoted_path_with_spaces_and_parens(self):
        trace = strace.loads(
            '1 0.1 stat("/My Photos (2013)/a, b.jpg") = 0 <0.000010>\n'
        )
        assert trace[0].args["path"] == "/My Photos (2013)/a, b.jpg"

    def test_parse_escaped_quote_in_path(self):
        trace = strace.loads('1 0.1 stat("/a\\"b") = 0 <0.000010>\n')
        assert trace[0].args["path"] == '/a"b'

    def test_comments_and_blanks_skipped(self):
        trace = strace.loads("\n# platform=freebsd\n\n1 0.1 sync() = 0 <0.001>\n")
        assert trace.platform == "freebsd"
        assert len(trace) == 1

    def test_malformed_line_raises_with_location(self):
        with pytest.raises(TraceError) as info:
            strace.loads("1 0.1 open(/x = 0 <0.1>\n")
        assert info.value.line_number == 1

    def test_missing_duration_raises(self):
        with pytest.raises(TraceError):
            strace.loads('1 0.1 stat("/x") = 0\n')

    def test_thread_id_int_cannot_read_stays_text(self):
        # ``"²".isdigit()`` holds, but ``int("²")`` raises.
        trace = strace.loads('\u00b2 0.1 stat("/a") = 0 <0.1>\n')
        assert trace[0].tid == "\u00b2"

    def test_unknown_call_raises(self):
        from repro.errors import UnsupportedSyscallError

        with pytest.raises(UnsupportedSyscallError) as info:
            strace.loads('1 0.1 stat("/a") = 0 <0.1>\n1 0.1 frobnicate(3) = 0 <0.1>\n')
        assert str(info.value) == "unsupported system call: 'frobnicate'"
        assert (info.value.line_number, info.value.byte_offset) == (2, 27)


class TestEndToEnd(object):
    def test_parsed_trace_is_compilable_and_replayable(self, tmp_path):
        """strace text -> Trace -> compile -> replay."""
        text = "\n".join(
            [
                "# platform=linux label=hand",
                '1 0.000100 mkdir("/w", 493) = 0 <0.000050>',
                '1 0.000200 open("/w/f", O_WRONLY|O_CREAT, 420) = 3 <0.000080>',
                "1 0.000300 write(3, 8192) = 8192 <0.000200>",
                "2 0.000400 stat(\"/w/f\") = 0 <0.000020>",
                "1 0.000600 fsync(3) = 0 <0.010000>",
                "1 0.010700 close(3) = 0 <0.000010>",
                '2 0.010800 unlink("/w/f") = 0 <0.000090>',
            ]
        )
        trace = strace.loads(text)
        from repro.artc import compile_trace, replay, ReplayConfig
        from repro.artc.init import initialize
        from repro.tracing.snapshot import Snapshot
        from tests.conftest import make_fs

        snapshot = Snapshot(label="hand")
        bench = compile_trace(trace, snapshot)
        fs = make_fs()
        initialize(fs, snapshot)
        report = replay(bench, fs, ReplayConfig())
        assert report.failures == 0
        assert report.n_actions == 7
