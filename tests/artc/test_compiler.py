"""Tests for the ARTC compiler and benchmark serialization."""

import gc
import sys
import tracemalloc

import pytest

from repro.artc import artifact
from repro.artc.benchmark import CompiledBenchmark
from repro.artc.compiler import compile_trace
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.modes import RuleSet
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.workloads.magritte import build_suite


def rec(idx, tid, name, args, ret=0, err=None):
    t = float(idx)
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.5)


@pytest.fixture
def trace():
    return Trace(
        [
            rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "write", {"fd": 3, "nbytes": 128}, ret=128),
            # fd 3 is shared, so T2's read starts at offset 128 of the
            # 128-byte file... via pread the trace stays consistent.
            rec(2, "T2", "pread", {"fd": 3, "nbytes": 64, "offset": 0}, ret=64),
            rec(3, "T2", "close", {"fd": 3}),
            rec(4, "T1", "unlink", {"path": "/d/f"}),
        ],
        platform="linux",
        label="mini",
    )


@pytest.fixture
def snapshot():
    snap = Snapshot(label="mini")
    snap.add("/d", "dir")
    return snap


class TestCompile(object):
    def test_produces_actions_and_graph(self, trace, snapshot):
        bench = compile_trace(trace, snapshot)
        assert len(bench) == 5
        assert bench.graph.n_edges > 0
        assert bench.stats["n_threads"] == 2
        assert bench.stats["model_misses"] == 0

    def test_label_defaults_to_trace_label(self, trace, snapshot):
        assert compile_trace(trace, snapshot).label == "mini"
        assert compile_trace(trace, snapshot, label="x").label == "x"

    def test_default_ruleset_is_artc(self, trace, snapshot):
        bench = compile_trace(trace, snapshot)
        assert bench.ruleset.file_seq
        assert not bench.ruleset.program_seq

    def test_custom_ruleset_respected(self, trace, snapshot):
        bench = compile_trace(trace, snapshot, ruleset=RuleSet.unconstrained())
        assert bench.graph.n_edges == 0

    def test_predelay_computed_per_thread(self, trace, snapshot):
        bench = compile_trace(trace, snapshot)
        # T1 actions at t=0,1,4 with 0.5s calls: gaps 0.5 and 2.5.
        t1_actions = [a for a in bench.actions if a.record.tid == "T1"]
        assert t1_actions[1].predelay == pytest.approx(0.5)
        assert t1_actions[2].predelay == pytest.approx(2.5)

    def test_annotations_carry_fd_generations(self, trace, snapshot):
        bench = compile_trace(trace, snapshot)
        assert bench.actions[0].ann["ret_fd"] == 0
        assert bench.actions[2].ann["fd"] == 0


class TestSerialization(object):
    def test_round_trip_preserves_everything(self, trace, snapshot):
        bench = compile_trace(trace, snapshot)
        clone = CompiledBenchmark.loads(bench.dumps())
        assert len(clone) == len(bench)
        assert clone.label == bench.label
        assert clone.platform == bench.platform
        assert sorted(clone.graph.edge_kinds.items()) == sorted(
            bench.graph.edge_kinds.items()
        )
        for a, b in zip(clone.actions, bench.actions):
            assert a.ann == b.ann
            assert a.predelay == b.predelay
            assert a.record.args == b.record.args
        assert clone.snapshot.paths() == snapshot.paths()

    def test_round_tripped_benchmark_replays(self, trace, snapshot, tmp_path):
        from repro.artc import replay, ReplayConfig
        from repro.artc.init import initialize
        from tests.conftest import make_fs

        bench = compile_trace(trace, snapshot)
        path = str(tmp_path / "bench.json")
        bench.save(path)
        clone = CompiledBenchmark.load(path)
        fs = make_fs()
        initialize(fs, clone.snapshot)
        report = replay(clone, fs, ReplayConfig())
        assert report.failures == 0

    def test_loads_rejects_garbage(self):
        with pytest.raises(ValueError):
            CompiledBenchmark.loads('{"format": "nope"}')

    def test_to_trace_recovers_records(self, trace, snapshot):
        bench = compile_trace(trace, snapshot)
        recovered = bench.to_trace()
        assert len(recovered) == len(trace)
        assert recovered[0].name == "open"


def _retained(build):
    """``(what build() returns, bytes it left allocated)``, as
    tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestRetainedMemory(object):
    """What a compiled or loaded benchmark keeps per action: its actions
    (record, annotations, predelay) and the graph -- never the
    compiler's per-action touches or reduction candidates, and one dict
    per distinct annotation (and, loaded, per distinct argument dict)."""

    #: Bytes a second ``compile_trace`` of ``numbers_start5`` retains per
    #: action, as tracemalloc counts them, plus 10%: 294 on CPython 3.11
    #: since equal annotations share one dict (421 before; 990 while
    #: touches and candidates were kept).  3.9-3.10 (smaller dicts from
    #: 3.11 on) read 451 before the sharing and are unmeasured since.
    BUDGET = 324 if sys.version_info >= (3, 11) else 496
    #: The same for a second ``artifact.unpack_bytes`` of its ``.artcb``:
    #: 746 on CPython 3.11 since v6 loads one dict per distinct argument
    #: and annotation (1,074 for v5).  Unmeasured before 3.11.
    LOAD_BUDGET = 821

    @pytest.fixture(scope="class")
    def traced(self):
        app = "numbers_start5"
        return trace_application(
            build_suite([app])[app], PLATFORMS["mac-ssd"], seed=0,
            warm_cache=True,
        )

    def test_compile_retains_under_budget(self, traced):
        # The first compile also fills process-wide caches; measure the
        # second.
        compile_trace(traced.trace, traced.snapshot)
        bench, retained = _retained(
            lambda: compile_trace(traced.trace, traced.snapshot)
        )
        per_action = retained / len(bench)
        assert per_action <= self.BUDGET, (len(bench), per_action)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="measured on 3.11+")
    def test_load_retains_under_budget(self, traced):
        data = artifact.pack_bytes(compile_trace(traced.trace, traced.snapshot))
        artifact.unpack_bytes(data)
        bench, retained = _retained(lambda: artifact.unpack_bytes(data))
        per_action = retained / len(bench)
        assert per_action <= self.LOAD_BUDGET, (len(bench), per_action)
