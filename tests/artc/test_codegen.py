"""Tests for the trace-specializing JIT core (:mod:`repro.artc.codegen`)."""

import ast
import json
from types import SimpleNamespace

import pytest

from repro.artc import artifact, codegen, planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.core.modes import ReplayMode
from repro.syscalls import execute
from repro.syscalls.emulation import DEFAULT_OPTIONS
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import TraceRecord
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


def fingerprint(bench, mode, core, seed=0):
    fs = make_fs(seed=seed)
    initialize(fs, bench.snapshot)
    fs.stack.drop_caches()
    report = replay(bench, fs, ReplayConfig(mode=mode, core=core))
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


class TestProgramShape(object):
    def test_artc_variant_has_one_function_per_thread(self, bench):
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "artc")
        assert sorted(program.threads) == sorted(bench.threads)
        assert program.main is None
        assert program.n_functions == len(bench.threads)
        for source in program.sources.values():
            assert source.startswith("def _t")

    def test_seq_variant_is_one_function(self, bench):
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "seq")
        assert program.threads is None
        assert program.main is not None
        assert program.n_functions == 1

    def test_unknown_variant_rejected(self, bench):
        plan = planir.default_plan(bench)
        with pytest.raises(ValueError, match="variant"):
            codegen.program_for(bench, plan, "vectorized")


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
    return planir.compile_entry(action, KEY, DEFAULT_OPTIONS)


def emit_step(name, args, fd_key=None, emitter=None):
    """The source lines the emitter produces for the one step of call
    ``name``."""
    out = []
    kind, step = entry_for(name, args, fd_key)[:2]
    assert kind == (planir.STATIC if fd_key is None else planir.FDREMAP)
    (emitter or codegen._Emitter({}))._step(
        out, "", 0, "", step[0], "7", set(), fd_key)
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
            method, argv % "fd_map.get(_k0, 3)")

    def test_fd_remap_lands_where_the_shim_put_the_descriptor(self):
        assert emit_step("mmap", {"length": 4096}) == direct("mmap", "-1, 0, 4096")
        assert emit_step("mmap", {"fd": 3, "length": 4096}, fd_key=(3, 1)) == direct(
            "mmap", "fd_map.get(_k0, 3), 0, 4096")
        aio = {"aiocb": "cb@0", "fd": 3, "nbytes": 100}
        assert emit_step("aio_read", aio, fd_key=(3, 0)) == direct(
            "aio_submit", "'cb@0', fd_map.get(_k0, 3), 100, 0, False")
        assert emit_step("aio_write", dict(aio, offset=8), fd_key=(3, 0)) == direct(
            "aio_submit", "'cb@0', fd_map.get(_k0, 3), 100, 8, True")
        assert emit_step("fchdir", {"fd": 3}, fd_key=(3, 0)) == direct(
            "fchdir", "fd_map.get(_k0, 3)")

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
