"""Tests for the replayer: modes, remapping, timing, semantics."""

import pytest

from repro.artc import compile_trace, replay, ReplayConfig
from repro.artc.init import initialize
from repro.core.modes import ReplayMode
from repro.errors import ReplayError
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from tests.conftest import make_fs


def rec(idx, tid, name, args, ret=0, err=None, t=None, dur=0.001):
    t = float(idx) / 10 if t is None else t
    return TraceRecord(idx, tid, name, args, ret, err, t, t + dur)


def compiled(records, snapshot_entries=(), ruleset=None, platform="linux"):
    snap = Snapshot()
    for entry in snapshot_entries:
        snap.add(*entry)
    trace = Trace(records, platform=platform)
    return compile_trace(trace, snap, ruleset=ruleset), snap


def run_replay(bench, snap, mode=ReplayMode.ARTC, **kwargs):
    fs = make_fs(seed=99)
    initialize(fs, snap)
    return replay(bench, fs, ReplayConfig(mode=mode, **kwargs))


HANDOFF = [
    rec(0, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
    rec(1, "T1", "write", {"fd": 3, "nbytes": 4096}, ret=4096),
    rec(2, "T2", "pread", {"fd": 3, "nbytes": 4096, "offset": 0}, ret=4096),
    rec(3, "T2", "close", {"fd": 3}),
]


class TestModes(object):
    @pytest.mark.parametrize("mode", ReplayMode.ALL)
    def test_every_mode_replays_cleanly_when_no_races(self, mode):
        bench, snap = compiled(HANDOFF)
        report = run_replay(bench, snap, mode)
        assert report.n_actions == 4
        if mode != ReplayMode.UNCONSTRAINED:
            assert report.failures == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ReplayError):
            ReplayConfig(mode="chaotic")

    def test_bad_timing_rejected(self):
        with pytest.raises(ReplayError):
            ReplayConfig(timing="sometimes")

    def test_artc_enforces_cross_thread_order(self):
        bench, snap = compiled(HANDOFF)
        report = run_replay(bench, snap, ReplayMode.ARTC)
        results = {r.idx: r for r in report.results}
        assert results[2].issue >= results[1].done  # read after write
        assert results[3].issue >= results[2].done or True  # same thread

    def test_single_threaded_is_fully_serial(self):
        bench, snap = compiled(HANDOFF)
        report = run_replay(bench, snap, ReplayMode.SINGLE)
        ordered = sorted(report.results, key=lambda r: r.idx)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.issue >= earlier.done

    def test_program_seq_ruleset_behaves_like_single(self):
        from repro.core.modes import RuleSet

        bench, snap = compiled(HANDOFF, ruleset=RuleSet(program_seq=True))
        report = run_replay(bench, snap, ReplayMode.ARTC)
        ordered = sorted(report.results, key=lambda r: r.idx)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.issue >= earlier.done

    def test_temporal_preserves_completion_before_issue(self):
        # T2's read was issued after T1's open completed in the trace;
        # temporal replay must keep that, even though they are in
        # different threads.
        bench, snap = compiled(HANDOFF)
        report = run_replay(bench, snap, ReplayMode.TEMPORAL)
        results = {r.idx: r for r in report.results}
        assert results[2].issue >= results[0].done
        assert report.failures == 0

    def test_temporal_survives_zero_duration_call(self):
        # An fsync with nothing dirty enters and returns at the same
        # instant.  Its completed-before-issue prefix must stop short
        # of itself: it used to include its own completion, and the
        # thread waited on it forever ("replay deadlocked").
        records = [
            rec(0, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T2", "stat", {"path": "/"}, ret=0),
            rec(2, "T1", "fsync", {"fd": 3}, t=0.2, dur=0.0),
            rec(3, "T2", "stat", {"path": "/"}, ret=0),
            rec(4, "T1", "close", {"fd": 3}),
        ]
        bench, snap = compiled(records)
        assert records[2].t_enter == records[2].t_return
        report = run_replay(bench, snap, ReplayMode.TEMPORAL)
        assert report.n_actions == 5
        assert report.failures == 0
        results = {r.idx: r for r in report.results}
        # Still ordered behind what had completed before it was issued.
        assert results[2].issue >= results[1].done


class TestFdRemapping(object):
    def test_same_name_descriptors_coexist(self):
        # fd 3 has two generations whose lifetimes the replay may
        # overlap; remapping must keep them apart (section 4.2).
        records = [
            rec(0, "T1", "open", {"path": "/a", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "write", {"fd": 3, "nbytes": 10}, ret=10),
            rec(2, "T1", "close", {"fd": 3}),
            rec(3, "T2", "open", {"path": "/b", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(4, "T2", "write", {"fd": 3, "nbytes": 20}, ret=20),
            rec(5, "T2", "close", {"fd": 3}),
        ]
        bench, snap = compiled(records)
        report = run_replay(bench, snap)
        assert report.failures == 0

    def test_dup2_replayed_as_dup(self):
        records = [
            rec(0, "T1", "open", {"path": "/a", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "dup2", {"fd": 3, "newfd": 9}, ret=9),
            rec(2, "T1", "write", {"fd": 9, "nbytes": 10}, ret=10),
            rec(3, "T1", "close", {"fd": 9}),
            rec(4, "T1", "close", {"fd": 3}),
        ]
        bench, snap = compiled(records)
        report = run_replay(bench, snap)
        assert report.failures == 0

    def test_pipe_fds_remapped(self):
        records = [
            rec(0, "T1", "pipe", {}, ret=[3, 4]),
            rec(1, "T1", "write", {"fd": 4, "nbytes": 10}, ret=10),
            rec(2, "T1", "read", {"fd": 3, "nbytes": 10}, ret=10),
            rec(3, "T1", "close", {"fd": 3}),
            rec(4, "T1", "close", {"fd": 4}),
        ]
        bench, snap = compiled(records)
        report = run_replay(bench, snap)
        assert report.failures == 0

    def test_aio_control_blocks_remapped(self):
        records = [
            rec(0, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "write", {"fd": 3, "nbytes": 8192}, ret=8192),
            rec(2, "T1", "aio_read", {"aiocb": "0x7f00", "fd": 3, "nbytes": 100, "offset": 0}),
            rec(3, "T1", "aio_suspend", {"aiocbs": ["0x7f00"]}),
            rec(4, "T1", "aio_return", {"aiocb": "0x7f00"}, ret=100),
            # The control block gets reused: a second generation.
            rec(5, "T1", "aio_read", {"aiocb": "0x7f00", "fd": 3, "nbytes": 100, "offset": 4096}),
            rec(6, "T1", "aio_suspend", {"aiocbs": ["0x7f00"]}),
            rec(7, "T1", "aio_return", {"aiocb": "0x7f00"}, ret=100),
            rec(8, "T1", "close", {"fd": 3}),
        ]
        bench, snap = compiled(records)
        report = run_replay(bench, snap)
        assert report.failures == 0


class TestSemantics(object):
    def test_expected_failures_count_as_matched(self):
        records = [
            rec(0, "T1", "stat", {"path": "/nope"}, ret=-1, err="ENOENT"),
            rec(1, "T1", "open", {"path": "/nope/x", "flags": "O_RDONLY"}, ret=-1, err="ENOENT"),
        ]
        bench, snap = compiled(records)
        report = run_replay(bench, snap)
        assert report.failures == 0

    def test_errno_spelling_equivalence(self):
        # A Darwin trace records ENOATTR; Linux raises ENODATA.
        records = [
            rec(0, "T1", "getxattr", {"path": "/f", "xname": "user.k"}, ret=-1, err="ENOATTR"),
        ]
        bench, snap = compiled(records, snapshot_entries=[("/f", "reg", 10)], platform="darwin")
        report = run_replay(bench, snap)
        assert report.failures == 0

    def test_unexpected_failure_counted(self):
        records = [rec(0, "T1", "unlink", {"path": "/ghost"}, ret=0)]
        bench, snap = compiled(records)
        report = run_replay(bench, snap)
        assert report.failures == 1

    def test_o_excl_fix_strips_flag(self):
        # Trace says this O_EXCL open succeeded even though the file
        # exists (the paper's iTunes trace anomaly); ARTC replays it
        # without O_EXCL.
        records = [
            rec(0, "T1", "open", {"path": "/f", "flags": "O_WRONLY|O_CREAT|O_EXCL"}, ret=3),
            rec(1, "T1", "close", {"fd": 3}),
        ]
        bench, snap = compiled(records, snapshot_entries=[("/f", "reg", 10)])
        assert run_replay(bench, snap).failures == 0
        report = run_replay(bench, snap, o_excl_fix=False)
        # Without the fix the open fails with EEXIST and the dependent
        # close cascades to EBADF: two mismatches.
        assert report.failures == 2


class TestTiming(object):
    def _think_bench(self):
        records = [
            rec(0, "T1", "stat", {"path": "/"}, t=0.0, dur=0.001),
            rec(1, "T1", "stat", {"path": "/"}, t=1.0, dur=0.001),  # 1s think
            rec(2, "T1", "stat", {"path": "/"}, t=2.0, dur=0.001),
        ]
        return compiled(records)

    def test_afap_ignores_predelay(self):
        bench, snap = self._think_bench()
        report = run_replay(bench, snap, timing="afap")
        assert report.elapsed < 0.1

    def test_natural_reproduces_predelay(self):
        bench, snap = self._think_bench()
        report = run_replay(bench, snap, timing="natural")
        assert 1.8 < report.elapsed < 2.4

    def test_scaled_predelay(self):
        bench, snap = self._think_bench()
        report = run_replay(bench, snap, timing=0.5)
        assert 0.8 < report.elapsed < 1.3

    def test_jitter_adds_bounded_delay(self):
        bench, snap = self._think_bench()
        report = run_replay(bench, snap, timing="afap", jitter=0.01)
        assert 0.0 < report.elapsed < 0.1


class TestCrossPlatformReplay(object):
    def test_darwin_trace_on_linux_target(self):
        records = [
            rec(0, "T1", "getattrlist", {"path": "/f"}, ret=0),
            rec(1, "T1", "open_nocancel", {"path": "/f", "flags": "O_RDWR"}, ret=3),
            rec(2, "T1", "write_nocancel", {"fd": 3, "nbytes": 64}, ret=64),
            rec(3, "T1", "fcntl", {"fd": 3, "cmd": "F_FULLFSYNC"}, ret=0),
            rec(4, "T1", "close_nocancel", {"fd": 3}),
            rec(5, "T1", "exchangedata", {"path1": "/f", "path2": "/g"}, ret=0),
        ]
        bench, snap = compiled(
            records,
            snapshot_entries=[("/f", "reg", 100), ("/g", "reg", 200)],
            platform="darwin",
        )
        report = run_replay(bench, snap)
        assert report.failures == 0


class TestFailedCalls(object):
    """A failing op raises out of the file system; each kernel converts
    it with ``fs.failed`` at its one catch site.  A failing static step,
    a failing fd-remapped step and a multi-step entry whose first step
    fails give the events oracle's rows on the precompiled and JIT
    kernels too."""

    RECORDS = [
        rec(0, "T1", "stat", {"path": "/missing"}, ret=-1, err="ENOENT"),
        rec(1, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
        rec(2, "T1", "close", {"fd": 3}),
        rec(3, "T1", "pwrite", {"fd": 3, "nbytes": 10, "offset": 0},
            ret=-1, err="EBADF"),
        # Replayed on Linux as link + rename + rename; the link fails.
        rec(4, "T1", "exchangedata", {"path1": "/nope", "path2": "/f"},
            ret=-1, err="ENOENT"),
        rec(5, "T2", "stat", {"path": "/f"}),
    ]

    def test_every_kernel_converts_failures_identically(self):
        from repro.artc import planir

        bench, snap = compiled(self.RECORDS, platform="darwin")
        config = ReplayConfig()
        plan = planir.plans_for(
            bench, "darwin", "linux", config.o_excl_fix, config.emulation)
        kinds = [entry[0] for entry in plan.entries]
        assert kinds[0] == kinds[5] == planir.STATIC
        assert kinds[3] == planir.FDREMAP and kinds[4] == planir.MULTI
        rows = {}
        for core in ("auto", "jit", "events"):
            fs = make_fs(seed=99, platform="linux")
            initialize(fs, snap)
            converted = []
            failed = fs.failed
            fs.failed = lambda exc: converted.append(exc.errno) or failed(exc)
            report = replay(bench, fs, ReplayConfig(core=core))
            assert converted == ["ENOENT", "EBADF", "ENOENT"], core
            rows[core] = [(r.idx, r.ret, r.err, r.issue, r.done)
                          for r in sorted(report.results, key=lambda r: r.idx)]
            assert report.failures == 0, core  # each failed as traced
        assert [row[2] for row in rows["events"]] == [
            "ENOENT", None, None, "EBADF", "ENOENT", None]
        assert rows["auto"] == rows["jit"] == rows["events"]


class TestMalformedRecord(object):
    """A record missing a required argument fails the same way on every
    path: its plan entry is ``dynamic`` (the call does not bind when the
    entry is built), so the one audit in ``execute.perform`` raises at
    that action, after the earlier ones ran."""

    CORES = ("events", "scoreboard", "jit")

    def _bench(self, name, args):
        return compiled(
            [
                rec(0, "T1", "open", {"path": "/f", "flags": "O_RDWR"}, ret=3),
                rec(1, "T1", "fstat", {"fd": 3}),
                rec(2, "T1", name, args),
                rec(3, "T1", "close", {"fd": 3}),
            ],
            snapshot_entries=[("/f", "reg", 8192)],
        )

    @pytest.mark.parametrize("name, args, message", [
        ("pread", {"fd": 3, "offset": 0},
         "syscall pread (kind pread) is missing argument 'nbytes';"
         " got ['fd', 'offset']"),
        ("stat", {},
         "syscall stat (kind stat) is missing argument 'path'; got []"),
    ])
    def test_same_error_at_the_same_action_everywhere(self, name, args, message):
        from repro.artc import planir
        from repro.artc.replayer import _ReplayRun
        from repro.errors import ProcessCrashed
        from repro.verify import predict

        bench, snap = self._bench(name, args)
        kinds = [entry[0] for entry in planir.default_plan(bench).entries]
        assert kinds == [planir.STATIC, planir.FDREMAP, planir.DYNAMIC, planir.FDREMAP]
        for core in self.CORES:
            fs = make_fs(seed=99)
            initialize(fs, snap)
            run = _ReplayRun(bench, fs, ReplayConfig(mode=ReplayMode.SINGLE, core=core))
            with pytest.raises(ProcessCrashed) as crashed:
                run.run()
            assert isinstance(crashed.value.__cause__, ReplayError), core
            assert str(crashed.value.__cause__) == message, core
            assert [row.idx for row in run.report.results] == [0, 1], core
        prediction = predict(bench, ReplayMode.SINGLE)
        assert prediction.widened_at == 2
        assert prediction.reason.startswith("step-would-crash: %s: " % name)
        assert message in prediction.reason
        assert prediction.outcomes[:2] == [None, None]

    def test_dump_ir_shows_the_dynamic_entry(self, tmp_path, capsys):
        from repro.cli import main
        from repro.tracing import strace

        bench, snap = self._bench("pread", {"fd": 3, "offset": 0})
        trace_path = str(tmp_path / "t.strace")
        strace.save(bench.to_trace(), trace_path)
        snap.save(trace_path + ".snapshot.json")
        assert main(["compile", trace_path, "-s", trace_path + ".snapshot.json",
                     "-o", str(tmp_path / "b.json"), "--dump-ir"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in lines if "] #" in line] == [
            "static", "fdremap", "dynamic", "fdremap"]
