"""``atomic_write`` and the five savers built on it: a write that fails
leaves the directory as it found it and the old file intact, and two
writers of one path never share a temporary file."""

import errno
import json
import os

import pytest

from repro.artc import artifact
from repro.artc.compiler import compile_trace
from repro.bench.artifacts import ArtifactCache
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.tracing import atomicio
from repro.tracing.atomicio import atomic_write
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS

from tests.conftest import make_fs


@pytest.fixture(scope="module")
def bench():
    fs = make_fs(seed=3)
    fs.makedirs_now("/w")
    fs.create_file_now("/w/a", size=8192)
    snapshot = Snapshot.capture(fs, roots=("/w",), label="atomicio-test")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="atomicio-test", platform="linux")

    def body(tid):
        fd, _err = yield from osapi.call(tid, "open", path="/w/a", flags="O_RDWR")
        yield from osapi.call(tid, "write", fd=fd, nbytes=1024)
        yield from osapi.call(tid, "close", fd=fd)

    fs.engine.spawn(body(1))
    fs.engine.run()
    return compile_trace(trace, snapshot)


class TestAtomicWrite(object):
    @pytest.mark.parametrize("data", ["text\n", b"\x00bytes"])
    @pytest.mark.parametrize("fsync", [False, True])
    def test_writes_text_and_bytes(self, tmp_path, data, fsync):
        target = tmp_path / "deep" / "file"
        atomic_write(str(target), data, fsync=fsync)
        assert target.read_bytes() == (
            data if isinstance(data, bytes) else data.encode()
        )
        assert os.listdir(str(target.parent)) == ["file"]

    def test_failed_write_leaves_no_trace(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("old")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(str(target), "half\udc80", fsync=True)
        assert os.listdir(str(tmp_path)) == ["file"]
        assert target.read_text() == "old"

    def test_interrupt_leaves_no_trace(self, tmp_path, monkeypatch):
        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(atomicio.os, "fsync", interrupted)
        with pytest.raises(KeyboardInterrupt):
            atomic_write(str(tmp_path / "file"), "x", fsync=True)
        assert os.listdir(str(tmp_path)) == []

    def test_fsync_precedes_the_rename(self, tmp_path, monkeypatch):
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            atomicio.os, "fsync",
            lambda fd: (order.append("fsync"), real_fsync(fd)),
        )
        monkeypatch.setattr(
            atomicio.os, "replace",
            lambda src, dst: (order.append("replace"), real_replace(src, dst)),
        )
        atomic_write(str(tmp_path / "file"), "x", fsync=True)
        atomic_write(str(tmp_path / "file"), "y")
        assert order == ["fsync", "replace", "replace"]

    def test_two_writers_use_two_temporaries(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace
        monkeypatch.setattr(
            atomicio.os, "replace",
            lambda src, dst: (seen.append(src), real_replace(src, dst)),
        )
        for text in ("one", "two"):
            atomic_write(str(tmp_path / "file"), text)
        assert len(set(seen)) == 2
        assert {os.path.dirname(src) for src in seen} == {str(tmp_path)}


def _save_artifact(bench, path):
    artifact.save(bench, path)


def _put_in_cache(bench, path):
    key = os.path.basename(path)[:-len(".artcb")]
    ArtifactCache(os.path.dirname(path)).put(key, bench)


def _save_json_benchmark(bench, path):
    bench.save(path)


def _save_snapshot(bench, path):
    bench.snapshot.save(path)


def _save_checkpoint(bench, path):
    save_checkpoint(path, {"offset": 1})


SAVERS = {
    "artifact.save": (_save_artifact, "b.artcb"),
    "ArtifactCache.put": (_put_in_cache, "0123abcd.artcb"),
    "CompiledBenchmark.save": (_save_json_benchmark, "b.json"),
    "Snapshot.save": (_save_snapshot, "s.json"),
    "save_checkpoint": (_save_checkpoint, "ck.json"),
}


@pytest.mark.parametrize("name", sorted(SAVERS))
def test_saver_that_fails_leaves_directory_as_found(
        name, bench, tmp_path, monkeypatch):
    save, filename = SAVERS[name]
    target = tmp_path / filename
    target.write_bytes(b"the old file")

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(atomicio.os, "replace", disk_full)
    with pytest.raises(OSError):
        save(bench, str(target))
    assert os.listdir(str(tmp_path)) == [filename]
    assert target.read_bytes() == b"the old file"


def test_savers_still_round_trip(bench, tmp_path):
    for filename in ("b.artcb", "b.json"):
        bench.save(str(tmp_path / filename))
        loaded = type(bench).load(str(tmp_path / filename))
        assert loaded.dumps() == bench.dumps()
    save_checkpoint(str(tmp_path / "ck"), {"offset": 7})
    assert load_checkpoint(str(tmp_path / "ck"))["offset"] == 7
    assert json.loads((tmp_path / "ck").read_text())["offset"] == 7
