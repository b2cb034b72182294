"""Tests for the execution-plan IR (:mod:`repro.artc.planir`)."""

import pytest

from repro.artc import planir
from repro.artc.compiler import compile_trace
from repro.syscalls import execute
from repro.syscalls.emulation import DEFAULT_OPTIONS
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS
from repro.vfs.filesystem import FileSystem
from tests.conftest import make_fs


@pytest.fixture(scope="module")
def bench():
    fs = make_fs(seed=5)
    fs.makedirs_now("/w")
    fs.create_file_now("/w/a", size=16384)
    snapshot = Snapshot.capture(fs, roots=("/w",), label="planir-test")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="planir-test", platform="linux")

    def body(tid):
        fd, err = yield from osapi.call(tid, "open", path="/w/a", flags="O_RDWR")
        yield from osapi.call(tid, "read", fd=fd, nbytes=4096)
        yield from osapi.call(tid, "write", fd=fd, nbytes=2048)
        yield from osapi.call(tid, "stat", path="/w/a")
        yield from osapi.call(tid, "fsync", fd=fd)
        yield from osapi.call(tid, "close", fd=fd)

    for tid in (1, 2):
        fs.engine.spawn(body(tid))
    fs.engine.run()
    return compile_trace(trace, snapshot)


@pytest.fixture(scope="module")
def plan(bench):
    return planir.default_plan(bench)


class TestCompile(object):
    def test_one_entry_per_action(self, bench, plan):
        assert len(plan) == len(bench.actions)

    def test_kind_counts_sum(self, bench, plan):
        counts = plan.kind_counts()
        assert sum(counts) == len(bench.actions)
        # This trace is fully static/fd-remapped on its own platform.
        assert counts[planir.STATIC] > 0
        assert counts[planir.FDREMAP] > 0
        assert counts[planir.DYNAMIC] == 0

    def test_thread_kind_counts_partition(self, bench, plan):
        per_thread = plan.thread_kind_counts(bench)
        assert sorted(per_thread) == sorted(bench.threads)
        totals = [0] * len(planir.KIND_NAMES)
        for counts in per_thread.values():
            totals = [a + b for a, b in zip(totals, counts)]
        assert totals == plan.kind_counts()

    def test_entries_are_runtime_tuples(self, plan):
        for entry in plan.entries:
            kind, payload, is_read, upd = entry
            assert 0 <= kind < len(planir.KIND_NAMES)
            assert isinstance(is_read, bool)
            if kind == planir.STATIC:
                call, args, step_name, step_kind = payload
                assert call == execute.bind(step_kind, args)
                assert callable(getattr(FileSystem, call[0]))
                assert isinstance(args, dict)
            elif kind == planir.FDREMAP:
                (method, head, tail, kwargs), args, fd_key, _, step_kind = payload
                # The call is split where the descriptor goes.
                assert execute.bind(step_kind, args) == (
                    method, head + (fd_key[0],) + tail, kwargs)

    def test_cache_compiles_once(self, bench):
        first = planir.plans_for(
            bench, bench.platform, bench.platform, True, DEFAULT_OPTIONS
        )
        second = planir.plans_for(
            bench, bench.platform, bench.platform, True, DEFAULT_OPTIONS
        )
        assert first is second


class TestRender(object):
    def test_summary_lines(self, bench, plan):
        text = plan.render(bench)
        assert "execution-plan IR" in text
        assert "kinds:" in text
        for tid in bench.threads:
            assert "T%s:" % tid in text

    def test_verbose_lists_every_action(self, bench, plan):
        text = plan.render(bench, verbose=True)
        for action in bench.actions:
            assert "#%-5d" % action.idx in text


class TestBuild(object):
    """A plan is derived where it is needed, once; nothing of it is
    serialized (the ``.artcb`` round trip is tests/artc/test_artifact.py,
    derived == derived is tests/property/test_planbuild_property.py)."""

    def test_nothing_to_serialize(self):
        assert not hasattr(planir.ExecutionPlan, "to_payload")
        assert not hasattr(planir.ExecutionPlan, "from_payload")

    def test_plan_lives_in_the_benchmarks_derived_state(self, bench, plan):
        assert bench.derived[plan.key] is plan

    def test_static_args_copies_only_what_it_rewrites(self, bench):
        for action in bench.actions:
            assert planir.static_args(action, True) is action.record.args

    def test_o_excl_rewrite_leaves_the_record_alone(self, bench):
        action = bench.actions[0]
        record = action.record
        assert record.name == "open" and record.ok
        before = dict(record.args)
        try:
            record.args["flags"] = "O_RDWR|O_CREAT|O_EXCL"
            assert planir.static_args(action, True)["flags"] == "O_RDWR|O_CREAT"
            assert record.args["flags"] == "O_RDWR|O_CREAT|O_EXCL"
            assert planir.static_args(action, False) is record.args
        finally:
            record.args.clear()
            record.args.update(before)

    def test_one_row_per_call_name(self, bench, plan, monkeypatch):
        built = []
        real = planir._call_row
        monkeypatch.setattr(
            planir, "_call_row", lambda *a: built.append(a) or real(*a)
        )
        monkeypatch.setitem(planir._CALL_ROWS, plan.key.target, {})
        emulation = planir.emulation_of(plan.key)
        entries = [
            planir.compile_entry(action, plan.key, emulation)
            for action in bench.actions
        ]
        assert entries == plan.entries
        names = {a.record.name for a in bench.actions}
        assert sorted(built) == sorted((n, plan.key.target) for n in names)


class TestReleaseRuns(object):
    def test_groups_consecutive_same_thread(self):
        tid_of = {0: "a", 1: "a", 2: "b", 3: "a", 4: "a"}
        runs = planir.release_runs([0, 1, 2, 3, 4], tid_of)
        assert runs == [("a", (0, 1)), ("b", (2,)), ("a", (3, 4))]

    def test_empty(self):
        assert planir.release_runs([], {}) == []

    def test_preserves_order(self):
        tid_of = {7: 1, 3: 2, 9: 1}
        runs = planir.release_runs([7, 3, 9], tid_of)
        assert [succ for _tid, members in runs for succ in members] == [7, 3, 9]
