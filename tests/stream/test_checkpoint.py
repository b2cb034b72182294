"""Crash-resumable ingestion: the trace is the write-ahead log."""

import json
import os

import pytest

from repro.artc.compiler import compile_trace
from repro.errors import TraceError
from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.digest import stream_digest_of
from repro.stream.follow import ingest_trace


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "ck.json")
    saved = save_checkpoint(path, {"position": {"segment": 0, "offset": 10}})
    assert saved["format"] == CHECKPOINT_FORMAT
    assert load_checkpoint(path)["position"]["offset"] == 10
    assert not os.path.exists(path + ".tmp")
    assert load_checkpoint(str(tmp_path / "missing.json")) is None


def test_corrupt_checkpoint_raises(tmp_path):
    path = str(tmp_path / "ck.json")
    with open(path, "w") as handle:
        handle.write("{ torn")
    with pytest.raises(TraceError):
        load_checkpoint(path)
    with open(path, "w") as handle:
        json.dump({"format": "other"}, handle)
    with pytest.raises(TraceError):
        load_checkpoint(path)


def _assert_refused_by_name(found, trace_file, traced, tmp_path):
    path = str(tmp_path / "ck.json")
    with open(path, "w") as handle:
        json.dump({"format": found, "actions": 0}, handle)
    with pytest.raises(TraceError) as info:
        load_checkpoint(path)
    assert found in str(info.value)
    assert CHECKPOINT_FORMAT in str(info.value)
    assert "re-ingest from the trace (the trace is the write-ahead log)" in str(
        info.value
    )
    with pytest.raises(TraceError, match=found):
        ingest_trace(
            trace_file, snapshot=traced.snapshot,
            checkpoint_path=path, resume=True,
        )


def test_superseded_checkpoint_refused_by_name(trace_file, traced, tmp_path):
    """A v1 checkpoint's action digest was defined differently; it is
    refused for what it is, not reported as a diverged resume."""
    _assert_refused_by_name(
        "artc-stream-checkpoint-v1", trace_file, traced, tmp_path
    )


def test_v2_checkpoint_refused_by_name(trace_file, traced, tmp_path):
    """v2 hashed positional JSON rows, before the chain hashed typed
    blocks: refused the same way."""
    _assert_refused_by_name(
        "artc-stream-checkpoint-v2", trace_file, traced, tmp_path
    )


def test_ingest_writes_checkpoints(trace_file, traced, tmp_path):
    ck = str(tmp_path / "ck.json")
    result = ingest_trace(
        trace_file, snapshot=traced.snapshot,
        checkpoint_path=ck, checkpoint_every=50,
    )
    assert result.status.checkpoints_written >= len(traced.trace) // 50
    final = load_checkpoint(ck)
    assert final["actions"] == len(traced.trace)
    assert final["actions_sha256"] == result.digest


def test_kill_at_every_checkpoint_resumes_identically(
    traced, trace_bytes, tmp_path
):
    """Abandon ingestion after each partial delivery (including
    mid-line cuts) and resume from the checkpoint: the final digest
    must always equal the batch compiler's."""
    batch_digest = stream_digest_of(
        compile_trace(traced.trace, traced.snapshot)
    )
    path = str(tmp_path / "t.json")
    ck = str(tmp_path / "ck.json")
    n = len(trace_bytes)
    cuts = sorted({n // 7, n // 3, n // 2, n // 2 + 1, 2 * n // 3, n - 2, n})
    for cut in cuts:
        with open(path, "wb") as handle:
            handle.write(trace_bytes[:cut])
        # One stateless step: consume what is durable, checkpoint, die.
        step = ingest_trace(
            path, snapshot=traced.snapshot,
            checkpoint_path=ck, checkpoint_every=25,
            resume=True, wait=False,
        )
        assert not step.finished or cut == n
    with open(path + ".done", "w"):
        pass
    final = ingest_trace(
        path, snapshot=traced.snapshot,
        checkpoint_path=ck, resume=True,
    )
    assert final.finished
    assert final.status.resume_verified
    assert final.digest == batch_digest


def test_resume_refuses_rewritten_prefix(trace_file, traced, tmp_path):
    ck = str(tmp_path / "ck.json")
    ingest_trace(trace_file, snapshot=traced.snapshot, checkpoint_path=ck)
    # Flip one byte inside the consumed prefix.
    with open(trace_file, "r+b") as handle:
        handle.seek(100)
        byte = handle.read(1)
        handle.seek(100)
        handle.write(b"X" if byte != b"X" else b"Y")
    with pytest.raises(TraceError, match="rewritten"):
        ingest_trace(
            trace_file, snapshot=traced.snapshot,
            checkpoint_path=ck, resume=True,
        )


def test_resume_without_checkpoint_starts_fresh(trace_file, traced, tmp_path):
    result = ingest_trace(
        trace_file, snapshot=traced.snapshot,
        checkpoint_path=str(tmp_path / "absent.json"), resume=True,
    )
    assert result.finished
    assert not result.status.resume_verified
