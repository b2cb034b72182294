"""Records share ``args`` dicts and actions share ``ann`` dicts -- the
strace parser gives each distinct call text one ``args``, a retained
compile gives each distinct annotation one ``ann``, and an ``.artcb``
load builds one dict per distinct value -- so nothing downstream may
write into either.  Here every ``args`` and every ``ann`` is a dict
that raises on any write, and a trace goes through every path that
reads them: batch and streamed compile, pack and load, each
single-process core, ``artc verify``, ``artc lint`` and ``artc stats``,
and a live follow."""

import json

import pytest

from repro.artc import artifact
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import SINGLE_PROCESS_CORES, ReplayConfig, replay
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.cli import main
from repro.core.model import Action
from repro.stream.digest import stream_digest_of
from repro.stream.follow import follow_replay, ingest_trace
from repro.tracing import strace
from repro.tracing.trace import TraceRecord
from repro.verify.abstract import fs_digest
from repro.workloads.magritte import build_suite

SOURCE = PLATFORMS["mac-ssd"]
TARGET = PLATFORMS["hdd-ext4"]


class ReadOnlyDict(dict):
    """A dict no method can change once built."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared args or ann dict was written")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # a pickle sets no item on the copy it loads
        return ReadOnlyDict, (dict(self),)


@pytest.fixture(scope="module", params=[
    "numbers_start5", "pages_create15", "imovie_start1",  # the last has aio
])
def traced(request):
    app = build_suite([request.param])[request.param]
    return trace_application(app, SOURCE, seed=0, warm_cache=True)


@pytest.fixture
def path(traced, tmp_path):
    """The trace as finished strace text."""
    path = str(tmp_path / "trace.strace")
    strace.save(traced.trace.with_roster(), path)
    with open(path + ".done", "w"):
        pass
    return path


@pytest.fixture
def read_only(monkeypatch):
    """Every record and action built from here on holds a
    :class:`ReadOnlyDict` where its ``args`` or ``ann`` was, one per
    dict it was handed, so values shared stay shared."""
    frozen = {}

    def freeze(value):
        if type(value) is not dict:
            return value
        key = id(value)
        if key not in frozen:
            frozen[key] = (value, ReadOnlyDict(value))
        return frozen[key][1]

    record_init, action_init = TraceRecord.__init__, Action.__init__

    def record(self, idx, tid, name, args, *rest):
        record_init(self, idx, tid, name, freeze(args), *rest)

    def action(self, idx, record, ann, predelay):
        action_init(self, idx, record, freeze(ann), predelay)

    monkeypatch.setattr(TraceRecord, "__init__", record)
    monkeypatch.setattr(Action, "__init__", action)


def frozen_values(bench):
    for action in bench.actions:
        assert type(action.record.args) is ReadOnlyDict
        assert type(action.ann) is ReadOnlyDict


def run(bench, core, snapshot):
    fs = TARGET.make_fs(seed=0)
    initialize(fs, snapshot)
    return outcome(replay(bench, fs, ReplayConfig(core=core)), fs)


def outcome(report, fs):
    return json.dumps(report.summary(), sort_keys=True), fs_digest(fs)


def test_no_path_writes_into_args_or_ann(
    read_only, traced, path, tmp_path, capsys
):
    bench = compile_trace(strace.load(path), traced.snapshot)
    frozen_values(bench)
    streamed = ingest_trace(path, snapshot=traced.snapshot).benchmark
    frozen_values(streamed)
    assert stream_digest_of(streamed) == stream_digest_of(bench)

    saved = str(tmp_path / "trace.artcb")
    artifact.save(bench, saved)
    loaded = artifact.load(saved)
    frozen_values(loaded)
    assert loaded.dumps() == bench.dumps()

    outcomes = {
        run(each, core, traced.snapshot)
        for core in SINGLE_PROCESS_CORES
        for each in (bench, loaded)
    }
    assert len(outcomes) == 1

    assert main(["stats", saved]) == 0
    assert main(["lint", saved]) in (0, 1)  # findings are not failures
    assert main(["verify", saved, "--core", "all"]) in (0, 1)
    capsys.readouterr()

    fs = TARGET.make_fs(seed=0)
    initialize(fs, traced.snapshot)
    report, status = follow_replay(path, fs, snapshot=traced.snapshot)
    assert status.mode == "live"
    assert {outcome(report, fs)} == outcomes
