"""Tests for the trace-specializing JIT core (:mod:`repro.artc.codegen`)."""

import ast
import json
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.artc import artifact, codegen, planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.core.modes import ReplayMode
from repro.syscalls import execute
from repro.syscalls.emulation import DEFAULT_OPTIONS
from repro.tracing import strace
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.tracing.tracer import TracedOS
from repro.vfs import flags as F
from tests.conftest import make_fs


def build_benchmark(seed=7):
    fs = make_fs(seed=seed)
    fs.makedirs_now("/w")
    fs.create_file_now("/w/a", size=32768)
    snapshot = Snapshot.capture(fs, roots=("/w",), label="codegen-test")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="codegen-test", platform="linux")

    def body(tid):
        fd, err = yield from osapi.call(tid, "open", path="/w/a", flags="O_RDWR")
        yield from osapi.call(tid, "read", fd=fd, nbytes=4096)
        yield from osapi.call(tid, "write", fd=fd, nbytes=2048)
        yield from osapi.call(tid, "stat", path="/w/a")
        yield from osapi.call(
            tid, "open", path="/w/t%s" % tid, flags="O_CREAT|O_WRONLY"
        )
        yield from osapi.call(tid, "fsync", fd=fd)
        yield from osapi.call(tid, "close", fd=fd)

    for tid in (1, 2, 3):
        fs.engine.spawn(body(tid))
    fs.engine.run()
    return compile_trace(trace, snapshot)


@pytest.fixture(scope="module")
def bench():
    return build_benchmark()


UNIT = codegen.UNIT
A, B = 1, 2  # the tids of a tape benchmark


def tape_benchmark(n, threads=2):
    """Threads ``A`` (and ``B``) of ``n`` actions each, alternating in
    trace order, that meet across every unit boundary ``j * UNIT``:
    with ``k = j * UNIT - 1`` (the last action of a unit),

    - ``B[k]`` reads the file ``A[k-1]`` wrote and ``B[k+1]`` touches the
      descriptor it wrote through, so the write releases two actions
      of B on either side of B's boundary (full graph);
    - ``A[k+1]`` reads the file ``B[k-1]`` wrote: the first action of
      A's next unit waits at a gate (reduced graph too).

    Every other action is an ``fstat`` of a file of the thread's own."""
    def opened(path, flags, fd):
        return ("open", {"path": path, "flags": flags}, fd)

    plan = {A: {0: opened("/f", "O_RDWR", 3), 1: opened("/g", "O_RDONLY", 4),
                2: opened("/a", "O_RDONLY", 7)},
            B: {0: opened("/f", "O_RDONLY", 5), 1: opened("/g", "O_RDWR", 6),
                2: opened("/b", "O_RDONLY", 8)}}
    io = {"nbytes": 512, "offset": 0}
    for k in range(UNIT - 1, n - 1, UNIT):
        plan[A][k - 1] = ("pwrite", dict(io, fd=3), 512)
        plan[A][k + 1] = ("pread", dict(io, fd=4), 512)
        plan[B][k - 1] = ("pwrite", dict(io, fd=6), 512)
        plan[B][k] = ("pread", dict(io, fd=5), 512)
        plan[B][k + 1] = ("fstat", {"fd": 3}, 0)
    records = []
    for i in range(n):
        for tid, own in ((A, 7), (B, 8))[:threads]:
            name, args, ret = plan[tid].get(i, ("fstat", {"fd": own}, 0))
            t = 0.001 * len(records)
            records.append(TraceRecord(len(records), tid, name, args, ret,
                                       None, t, t + 0.0005))
    snapshot = Snapshot(label="tape")
    for path in ("/f", "/g", "/a", "/b"):
        snapshot.add(path, "reg", 65536)
    return compile_trace(Trace(records, platform="linux"), snapshot)


def fingerprint(bench, mode, core, seed=0, reduced_deps=True):
    fs = make_fs(seed=seed)
    initialize(fs, bench.snapshot)
    fs.stack.drop_caches()
    report = replay(bench, fs, ReplayConfig(mode=mode, core=core,
                                            reduced_deps=reduced_deps))
    payload = json.dumps(
        [
            report.summary(),
            [
                (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err,
                 r.matched, r.skipped)
                for r in report.results
            ],
        ],
        sort_keys=True,
    )
    final = Snapshot.capture(fs, roots=("/",), label="final")
    return payload + final.dumps()


class TestIdentity(object):
    """Cheap per-mode spot checks; the hypothesis suite in
    tests/property/test_scoreboard_property.py is the real oracle."""

    @pytest.mark.parametrize(
        "mode",
        [ReplayMode.ARTC, ReplayMode.UNCONSTRAINED, ReplayMode.SINGLE],
    )
    def test_jit_matches_event_core(self, bench, mode):
        assert fingerprint(bench, mode, "jit") == fingerprint(
            bench, mode, "events"
        )


class TestNonFiniteConstants(object):
    """``repr(inf)`` is a bare name, not a literal: the emitter binds
    non-finite floats as named constants, so the JIT replays the trace
    the other cores replay (one short-read warning) instead of raising
    ``NameError`` inside the generated code."""

    @pytest.mark.parametrize("ret", ["inf", "-inf", "nan"])
    def test_non_finite_return_replays_on_every_core(self, ret):
        trace = strace.loads("\n".join([
            '1 0.000100 open("/f", O_RDWR|O_CREAT, 420) = 3 <0.000050>',
            "1 0.000200 write(3, 10) = 10 <0.000050>",
            "1 0.000300 pread(3, 10, 0) = %s <0.000050>" % ret,
            "1 0.000400 close(3) = 0 <0.000010>",
        ]))
        bench = compile_trace(trace, Snapshot(label="non-finite"))
        prints = {core: fingerprint(bench, ReplayMode.ARTC, core)
                  for core in ("events", "auto", "jit")}
        assert prints["jit"] == prints["auto"] == prints["events"]
        assert '"warning_counts": {"short-read": {"pread": 1}}' in prints["jit"]


def actions_per_function(program):
    """Function name -> actions it holds (each emits one ``issue``)."""
    return {name: source.count("issue = engine.now")
            for name, source in program.sources.items()}


class TestProgramShape(object):
    def test_a_short_thread_is_its_own_unit(self, bench):
        program = codegen.program_for(bench, planir.default_plan(bench), "artc")
        assert sorted(program.threads) == sorted(bench.threads)
        assert None not in program.threads
        assert list(program.sources) == ["_t0", "_t1", "_t2"]
        assert program.n_functions == 3
        assert "yield from _t" not in "".join(program.sources.values())

    def test_a_long_thread_is_a_driver_over_bounded_units(self):
        bench = tape_benchmark(2 * UNIT + 1)
        program = codegen.program_for(bench, planir.default_plan(bench), "artc")
        assert {tid: f.__name__ for tid, f in program.threads.items()} == {
            A: "_t0", B: "_t1"}
        # n_functions counts every generated function: units and drivers.
        assert actions_per_function(program) == {
            "_t0_0": UNIT, "_t0_1": UNIT, "_t0_2": 1, "_t0": 0,
            "_t1_0": UNIT, "_t1_1": UNIT, "_t1_2": 1, "_t1": 0,
        }
        assert program.n_functions == 8
        assert program.sources["_t1"] == (
            "def _t1(run):\n"
            "    yield from _t1_0(run)\n"
            "    yield from _t1_1(run)\n"
            "    yield from _t1_2(run)\n"
        )

    def test_seq_variant_is_one_driver(self):
        """The serial tape is keyed ``None``, as spawn_threads keys the
        serial thread, and emitted like any other tape."""
        bench = tape_benchmark(2 * UNIT + 1)
        program = codegen.program_for(bench, planir.default_plan(bench), "seq")
        assert {tid: f.__name__ for tid, f in program.threads.items()} == {None: "_t0"}
        per = actions_per_function(program)
        assert list(per) == ["_t0_%d" % j for j in range(5)] + ["_t0"]
        assert list(per.values()) == [UNIT] * 4 + [2, 0]

    def test_unknown_variant_rejected(self, bench):
        plan = planir.default_plan(bench)
        with pytest.raises(ValueError, match="variant"):
            codegen.program_for(bench, plan, "vectorized")


class TestUnits(object):
    """Cutting a tape into units moves no yield, report row or release:
    jit replays equal the event oracle on either side of a boundary."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [UNIT - 1, UNIT, UNIT + 1, 2 * UNIT + 1])
    def test_jit_matches_event_core_across_units(self, n, threads):
        bench = tape_benchmark(n, threads)
        for mode, reduced_deps in [
            (ReplayMode.ARTC, True),  # variant "artc"
            (ReplayMode.ARTC, False),  # "artc" on the full graph
            (ReplayMode.UNCONSTRAINED, True),  # "free"
            (ReplayMode.SINGLE, True),  # "seq"
        ]:
            assert fingerprint(
                bench, mode, "jit", reduced_deps=reduced_deps
            ) == fingerprint(bench, mode, "events", reduced_deps=reduced_deps), (
                mode, reduced_deps)

    def test_boundaries_carry_a_gate_and_a_straddling_release(self):
        """What the identity test above crosses a boundary with."""
        bench = tape_benchmark(2 * UNIT + 1)
        plan = planir.default_plan(bench)
        tape = bench.by_thread()
        full = codegen.program_for(bench, plan, "artc", reduced=False)
        reduced = codegen.program_for(bench, plan, "artc", reduced=True)
        for j in (1, 2):
            first = tape[A][j * UNIT].idx  # the first action of a unit
            assert full.facts[first]["gate"] and reduced.facts[first]["gate"]
            write = tape[A][j * UNIT - 2].idx
            straddling = (tape[B][j * UNIT - 1].idx, tape[B][j * UNIT].idx)
            assert full.facts[write]["releases"] == straddling


class TestCompileMemory(object):
    def test_codegen_peak_is_one_units_not_one_threads(self):
        """The transient AST of ``compile()`` is ~30 KB per action: ten
        units' worth of actions in one function peak at ~39 MiB, in units
        at ~6 MiB.  A unit that grows back fails here, before any
        benchmark."""
        bench = tape_benchmark(10 * UNIT, threads=1)
        plan = planir.default_plan(bench)
        tracemalloc.start()
        try:
            codegen.program_for(bench, plan, "free")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak


class TestCaches(object):
    def test_benchmark_cache_hit(self, bench):
        plan = planir.default_plan(bench)
        before = codegen.COUNTERS["cache_hits_benchmark"]
        first = codegen.program_for(bench, plan, "artc")
        second = codegen.program_for(bench, plan, "artc")
        assert first is second
        assert codegen.COUNTERS["cache_hits_benchmark"] > before

    def test_variants_cached_separately(self, bench):
        plan = planir.default_plan(bench)
        artc = codegen.program_for(bench, plan, "artc")
        free = codegen.program_for(bench, plan, "free")
        assert artc is not free

    def test_content_cache_shares_across_reloads(self, bench):
        data = artifact.pack_bytes(bench)
        one = artifact.unpack_bytes(data)
        two = artifact.unpack_bytes(data)
        assert one is not two
        assert one.content_key == two.content_key is not None
        before = codegen.COUNTERS["cache_hits_content"]
        p1 = codegen.program_for(one, planir.default_plan(one), "artc")
        p2 = codegen.program_for(two, planir.default_plan(two), "artc")
        assert p1 is p2
        assert codegen.COUNTERS["cache_hits_content"] > before

    def test_content_cache_bounded(self):
        assert len(codegen._CONTENT_CACHE) <= codegen._CONTENT_CACHE_MAX


class TestObservability(object):
    def test_jit_replay_exports_gauges(self, bench):
        from repro.obs import Observability

        # Ensure at least one program has been compiled process-wide.
        fingerprint(bench, ReplayMode.ARTC, "jit")
        obs = Observability()
        fs = make_fs(seed=0, obs=obs)
        initialize(fs, bench.snapshot)
        replay(bench, fs, ReplayConfig(mode=ReplayMode.ARTC, core="jit"))
        assert obs.metrics.value("replay.jit.codegen_modules") >= 1
        assert obs.metrics.value("replay.jit.codegen_functions") >= 1
        assert obs.metrics.value("replay.jit.source_bytes") > 0
        assert obs.metrics.value("replay.jit.compile_seconds") > 0


# ----------------------------------------------------------------------
# direct calls: read off the plan entry, never restated here
# ----------------------------------------------------------------------


KEY = planir.plan_key("darwin", "darwin", True, DEFAULT_OPTIONS)


def entry_for(name, args, fd_key=None):
    """The plan entry of one call ``name`` on thread 7, replayed on the
    platform it was traced on; ``fd_key`` annotates its descriptor."""
    action = SimpleNamespace(
        idx=0,
        record=TraceRecord(0, 7, name, args, 0, None, 0.0, 0.001),
        ann={} if fd_key is None else {"fd": fd_key[1]},
    )
    return planir.compile_entry(
        action, KEY, DEFAULT_OPTIONS, planir.FdSlots().number(action))


def emit_step(name, args, fd_key=None, emitter=None):
    """The source lines the emitter produces for the one step of call
    ``name``."""
    out = []
    kind, step = entry_for(name, args, fd_key)[:2]
    assert kind == (planir.STATIC if fd_key is None else planir.FDREMAP)
    (emitter or codegen._Emitter({}))._step(
        out, "", 0, "", step[0], "7", set(), None if fd_key is None else step[2])
    return out


def direct(method, argv):
    return ["ret, err = yield from _fs_%s(7, %s)" % (method, argv)]


class TestDirectCalls(object):
    def test_codegen_keeps_no_per_call_table(self):
        with open(codegen.__file__) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            # Which call, flag words and defaults are the executor's:
            # no repro.vfs and no repro.syscalls here.
            if isinstance(node, ast.ImportFrom):
                assert not node.module.startswith(("repro.vfs", "repro.syscalls"))
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith(("repro.vfs", "repro.syscalls"))
                               for a in node.names)
            if isinstance(node, (ast.Dict, ast.Set)):
                keys = node.keys if isinstance(node, ast.Dict) else node.elts
                named = {key.value for key in keys
                         if isinstance(key, ast.Constant) and isinstance(key.value, str)}
                assert len(named & set(execute.HANDLERS)) < 5, sorted(named)

    def test_bind_reports_the_shims_own_call(self):
        """What the parent's ``_h_*`` shims called (the full comparison
        is ``tests/property/test_calltable_property.py``)."""
        args = {"path": "/a", "xname": "user.x"}
        assert execute.bind("lgetxattr", args) == (
            "getxattr", ("/a", "user.x"), {"follow": False})
        assert execute.bind("shm_open", {"name": "/s"}) == (
            "shm_open", ("/s", F.O_RDWR | F.O_CREAT, 0o600), {})
        assert execute.bind("statfs_global", {}) == ("statfs", ("/",), {})

    @pytest.mark.parametrize("args, call", [
        ({"cmd": "F_FULLFSYNC"}, ("full_fsync", "%s")),
        ({"cmd": "F_DUPFD_CLOEXEC"}, ("dup", "%s")),
        ({"cmd": "F_PREALLOCATE", "arg": 65536}, ("fallocate", "%s, 0, 65536")),
        ({"cmd": "F_RDADVISE", "offset": 512, "arg": None}, ("fadvise", "%s, 512, 0")),
        ({}, ("flock", "%s")),
    ])
    def test_fcntl_branch_resolves_at_codegen(self, args, call):
        method, argv = call
        args = dict(args, fd=3)
        assert emit_step("fcntl", args) == direct(method, argv % "3")
        assert emit_step("fcntl", args, fd_key=(3, 0)) == direct(
            method, argv % "fds[0]")

    def test_fd_remap_lands_where_the_shim_put_the_descriptor(self):
        assert emit_step("mmap", {"length": 4096}) == direct("mmap", "-1, 0, 4096")
        assert emit_step("mmap", {"fd": 3, "length": 4096}, fd_key=(3, 1)) == direct(
            "mmap", "fds[0], 0, 4096")
        aio = {"aiocb": "cb@0", "fd": 3, "nbytes": 100}
        assert emit_step("aio_read", aio, fd_key=(3, 0)) == direct(
            "aio_submit", "'cb@0', fds[0], 100, 0, False")
        assert emit_step("aio_write", dict(aio, offset=8), fd_key=(3, 0)) == direct(
            "aio_submit", "'cb@0', fds[0], 100, 8, True")
        assert emit_step("fchdir", {"fd": 3}, fd_key=(3, 0)) == direct(
            "fchdir", "fds[0]")

    def test_getcwd_and_lio_listio_are_direct_calls(self):
        assert emit_step("getcwd", {}) == ["ret, err = yield from _fs_getcwd(7)"]
        ops = [{"aiocb": "a@0", "fd": 3, "nbytes": 10}]
        emitter = codegen._Emitter({})
        assert emit_step("lio_listio", {"ops": ops}, emitter=emitter) == direct(
            "lio_listio", "_c0_0")
        assert emitter.ns["_c0_0"] == (("a@0", 3, 10, 0, False),)

    def test_unbindable_steps_compile_dynamic(self):
        """Never an exception out of plan compilation or codegen, and no
        second calling form: the entry is ``dynamic``, so the replay
        raises at that action with the interpreter's message."""
        for kind, args, fd_key in [
            ("pread", {"fd": 3, "nbytes": 1}, None),  # no offset
            ("pread", {"fd": 3, "nbytes": 1}, (3, 0)),
            ("open", {"path": "/a", "flags": "O_NONSENSE"}, None),
            ("lio_listio", {"ops": [{"aiocb": "a"}]}, None),
            # A remapped descriptor the call never passes on.
            ("munmap", {"fd": 3, "addr": 0, "length": 1}, (3, 0)),
        ]:
            assert entry_for(kind, args, fd_key)[:2] == (planir.DYNAMIC, None), kind
