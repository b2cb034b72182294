"""TraceTailer: torn-tolerant incremental parsing of a growing trace."""

import os

import pytest

from repro.errors import TraceError
from repro.stream.tail import CHUNK, TraceTailer, hash_prefix


def write(path, data, mode="wb"):
    with open(path, mode) as handle:
        handle.write(data)


def drain(tailer):
    out = []
    while True:
        got = tailer.poll()
        if not got:
            break
        out.extend(got)
    return out


def test_finished_file_reads_everything(trace_file, traced):
    tailer = TraceTailer(trace_file)
    records = drain(tailer)
    assert tailer.drained
    assert len(records) == len(traced.trace)
    assert [r.idx for r in records] == list(range(len(records)))
    assert tailer.thread_roster == traced.trace.thread_roster or (
        tailer.thread_roster == traced.trace.threads
    )
    assert tailer.resyncs == 0
    assert not tailer.warnings.counts


def test_torn_tail_held_until_completed(tmp_path, trace_bytes):
    path = str(tmp_path / "t.json")
    cut = trace_bytes.index(b"\n", 200) + 40  # mid-line, past the header
    write(path, trace_bytes[:cut])
    tailer = TraceTailer(path)
    first = drain(tailer)
    consumed = tailer.position()["offset"]
    # The torn final line is not consumed: the cursor sits on its start.
    assert consumed < cut
    assert trace_bytes[consumed - 1 : consumed] == b"\n"
    write(path, trace_bytes[cut:], mode="ab")
    write(path + ".done", b"")
    rest = drain(tailer)
    assert tailer.drained
    assert tailer.resyncs >= 1
    assert [r.idx for r in first + rest] == list(range(len(first) + len(rest)))
    assert not tailer.warnings.counts


def test_torn_garbage_at_eof_warns_not_crashes(tmp_path, trace_bytes):
    path = str(tmp_path / "t.json")
    write(path, trace_bytes + b'{"half": "rec')  # unterminated garbage
    write(path + ".done", b"")
    tailer = TraceTailer(path)
    records = drain(tailer)
    assert tailer.drained
    assert tailer.warnings.counts == {"torn-tail": 1}
    assert len(records) == trace_bytes.count(b"\n") - 1  # header excluded


def test_garbage_lines_skipped_and_renumbered(tmp_path, trace_bytes):
    lines = trace_bytes.split(b"\n")
    lines.insert(3, b"!! not json !!")
    lines.insert(7, b"!! not json !!")
    path = str(tmp_path / "t.json")
    write(path, b"\n".join(lines))
    write(path + ".done", b"")
    tailer = TraceTailer(path)
    records = drain(tailer)
    assert sum(tailer.warnings.counts.values()) == 2
    assert [r.idx for r in records] == list(range(len(records)))


def test_strace_returns_with_spaces_and_capitals(tmp_path):
    """What ``strace.dumps`` writes the tailer reads back: a return
    value ending in an upper-case word is not dropped as a bad line."""
    from repro.tracing import strace
    from tests.tracing.test_strace import awkward_returns

    awkward = awkward_returns()
    path = str(tmp_path / "t.strace")
    strace.save(awkward, path)
    write(path + ".done", b"")
    tailer = TraceTailer(path)
    records = drain(tailer)
    assert not tailer.warnings.counts
    assert [r.ret for r in records] == [r.ret for r in awkward]
    assert all(r.err is None for r in records)


def test_thread_id_int_cannot_read_stays_text(tmp_path):
    """``"²".isdigit()`` holds, but ``int("²")`` raises: the line is a
    record with a text thread id, not a crash of the tolerant tailer."""
    path = str(tmp_path / "t.strace")
    write(path, '\u00b2 0.1 stat("/a") = 0 <0.1>\n'.encode("utf-8"))
    write(path + ".done", b"")
    tailer = TraceTailer(path)
    assert [r.tid for r in drain(tailer)] == ["\u00b2"]
    assert not tailer.warnings.counts


def test_bad_header_raises(tmp_path):
    path = str(tmp_path / "t.json")
    write(path, b'{"format": "something-else"}\n')
    tailer = TraceTailer(path)
    with pytest.raises(TraceError):
        tailer.poll()


def test_watch_folder_segments(tmp_path, trace_bytes, traced):
    folder = tmp_path / "segs"
    folder.mkdir()
    third = len(trace_bytes) // 3
    cuts = [0, third + 17, 2 * third + 5, len(trace_bytes)]  # mid-line cuts
    tailer = TraceTailer(str(folder))
    collected = []
    for i in range(3):
        write(str(folder / ("seg-%03d.json" % i)), trace_bytes[cuts[i]:cuts[i + 1]])
        collected.extend(tailer.poll())
    write(str(folder / ".done"), b"")
    collected.extend(drain(tailer))
    assert tailer.drained
    assert len(collected) == len(traced.trace)
    assert not tailer.warnings.counts


def test_position_and_prefix_hash_roundtrip(tmp_path, trace_bytes):
    for layout in ("file", "dir"):
        if layout == "file":
            path = str(tmp_path / "t.json")
            write(path, trace_bytes)
            write(path + ".done", b"")
        else:
            folder = tmp_path / "d"
            folder.mkdir()
            half = len(trace_bytes) // 2
            write(str(folder / "a.json"), trace_bytes[:half])
            write(str(folder / "b.json"), trace_bytes[half:])
            write(str(folder / ".done"), b"")
            path = str(folder)
        tailer = TraceTailer(path)
        drain(tailer)
        assert hash_prefix(path, tailer.position()) == tailer.prefix_hexdigest()


def test_poll_with_enough_buffered_records_touches_no_file(
    tmp_path, trace_bytes, monkeypatch
):
    """A bounded poll the parsed records already cover makes no
    filesystem call -- not even the done marker's ``stat`` -- so a
    record-at-a-time consumer does not hand the GIL to the producer
    once per record."""
    path = str(tmp_path / "t.json")
    write(path, trace_bytes)  # no done marker: the producer is live
    tailer = TraceTailer(path)
    first = tailer.poll(limit=1)
    buffered = tailer.buffered
    assert len(first) == 1 and buffered > 3

    def no_io(*args, **kwargs):
        raise AssertionError("poll touched the filesystem")

    for name in ("exists", "getsize", "isfile", "isdir"):
        monkeypatch.setattr(os.path, name, no_io)
    monkeypatch.setattr("builtins.open", no_io)
    got = tailer.poll(limit=3) + tailer.poll(limit=buffered - 3)
    assert [r.idx for r in got] == list(range(1, buffered + 1))
    assert tailer.buffered == 0
    with pytest.raises(AssertionError, match="touched the filesystem"):
        tailer.poll(limit=1)  # nothing buffered: it must look


def test_chunked_reads_bound_lookahead(tmp_path, trace_bytes):
    # A poll with limit=1 must not slurp the whole file into memory:
    # the ready queue stays bounded by one chunk's worth of lines.
    path = str(tmp_path / "t.json")
    write(path, trace_bytes)
    write(path + ".done", b"")
    tailer = TraceTailer(path)
    got = tailer.poll(limit=1)
    assert len(got) == 1
    assert len(tailer._ready) <= CHUNK  # far fewer lines than bytes
    assert tailer.position()["offset"] <= 2 * CHUNK


# A form feed, information separators, NEL and the Unicode line
# separator: ``str.splitlines`` ends a line at each, the tailer does not.
ODD = "\x0c\x1c\x1d\x1e\x85 "


def _odd_strace():
    lines = ['1 0.1 stat("/a") = 0 <0.1>']
    lines += ['1 0.%d stat("/x%sy") = 0 <0.1>' % (2 + n, ch) for n, ch in enumerate(ODD)]
    lines += ["garbage%smore" % ODD, '1 0.9 stat("/z") = -1 ENOENT <0.1>']
    return "\n".join(lines) + "\n"


def _odd_json():
    from repro.tracing.trace import Trace, TraceRecord

    head = Trace([TraceRecord(0, 1, "stat", {"path": "/a"}, 0, None, 0.1, 0.2)])
    lines = head.dumps().splitlines()
    lines += ['{"idx": %d, "tid": 1, "name": "stat", "args": {"path": "/x%sy"},'
              ' "ret": 0, "err": null, "t_enter": 0.3, "t_return": 0.4}' % (n + 1, ch)
              for n, ch in enumerate(ODD)]
    lines += ["garbage%smore" % ODD]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, text", [
    ("t.strace", _odd_strace()), ("t.json", _odd_json())], ids=["strace", "json"])
def test_batch_and_streamed_read_the_same_lines(tmp_path, name, text):
    """One definition of a trace line: the tolerant batch loader and a
    tailer drain give the same records, warnings and line numbers."""
    from repro.tracing import strace
    from repro.tracing.trace import ParseWarnings, Trace

    path = str(tmp_path / name)
    write(path, text.encode("utf-8"))
    write(path + ".done", b"")
    warnings = ParseWarnings()
    loads = strace.loads if name.endswith(".strace") else Trace.loads
    batch = loads(text, tolerant=True, warnings=warnings)
    tailer = TraceTailer(path)
    streamed = drain(tailer)
    assert [r.to_dict() for r in streamed] == [r.to_dict() for r in batch.records]
    # A raw control character inside a quoted string is a bad line in
    # both formats; NEL and the line separator read as text.
    assert {r.args["path"] for r in streamed} >= {"/a", "/x\x85y", "/x\u2028y"}
    assert sum(tailer.warnings.counts.values()) == 5
