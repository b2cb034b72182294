"""Abstract replay: exact predictions on real traces, sound widening
on synthetic ones, and a cross-checker that catches fabricated
predictions (so the never-contradict property is itself tested)."""

import pytest

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.core.modes import ReplayMode
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify import (
    UNKNOWN,
    cross_check,
    fs_digest,
    predict,
    verify_benchmark,
)

_benchmarks = {}


def benchmark_for(sample):
    if sample not in _benchmarks:
        from repro.workloads.magritte import build_suite

        app = build_suite([sample])[sample]
        traced = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
        _benchmarks[sample] = compile_trace(traced.trace, traced.snapshot)
    return _benchmarks[sample]


def rec(idx, tid, name, args, ret=0, err=None):
    t = float(idx) / 10
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.001)


def synthetic(records, dirs=("/d",), platform="linux"):
    snap = Snapshot()
    for path in dirs:
        snap.add(path, "dir")
    return compile_trace(Trace(records, platform=platform), snap)


class TestExactPredictions(object):
    @pytest.mark.parametrize("mode", [ReplayMode.ARTC, ReplayMode.SINGLE])
    def test_prediction_matches_dynamic_replay(self, mode):
        bench = benchmark_for("pages_pdf15")
        platform = PLATFORMS["ssd"]
        fs = platform.make_fs(seed=3)
        initialize(fs, bench.snapshot)
        report = replay(bench, fs, ReplayConfig(mode=mode))
        pred = predict(bench, mode, target=fs.platform)
        assert pred.status == "exact"
        assert pred.widened_at is None
        for result in report.results:
            if result.skipped:
                continue
            assert pred.outcomes[result.idx] == result.err, (
                "action #%d (%s): predicted %r, dynamic %r"
                % (result.idx, result.name,
                   pred.outcomes[result.idx], result.err)
            )
        assert pred.digest == fs_digest(fs)

    def test_racy_modes_widen_to_unknown(self):
        bench = benchmark_for("pages_pdf15")
        for mode in (ReplayMode.TEMPORAL, ReplayMode.UNCONSTRAINED):
            pred = predict(bench, mode)
            assert pred.status == "unknown"
            assert pred.digest is None
            assert set(pred.outcomes) == {UNKNOWN}
            assert pred.reason.startswith("unordered-races")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            predict(benchmark_for("pages_pdf15"), "chaotic")

    def test_to_dict_shape(self):
        pred = predict(benchmark_for("pages_pdf15"), ReplayMode.SINGLE)
        payload = pred.to_dict()
        assert payload["format"] == "artc-abstract-v1"
        assert payload["status"] == "exact"
        assert payload["actions"] == len(payload["outcomes"])
        assert payload["unknown"] == 0
        assert payload["digest"]


class TestWidening(object):
    def test_shared_cwd_widens_concurrent_modes(self):
        bench = synthetic([
            rec(0, "T1", "chdir", {"path": "/d"}),
            rec(1, "T2", "mkdir", {"path": "/e/x", "mode": 0o755}),
        ], dirs=("/d", "/e"))
        for mode in (ReplayMode.ARTC, ReplayMode.UNCONSTRAINED):
            pred = predict(bench, mode)
            assert pred.status == "unknown"
            assert pred.reason == "shared-cwd"
            assert set(pred.outcomes) == {UNKNOWN}
        # Sequential replay pins the interleaving: cwd is fine.
        assert predict(bench, ReplayMode.SINGLE).status == "exact"

    def test_raw_fd_aliasing_widens_globally(self):
        bench = synthetic([
            rec(0, "T1", "open",
                {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "close", {"fd": 3}),
            rec(2, "T2", "fsync", {"fd": 9}, ret=-1, err="EBADF"),
        ])
        pred = predict(bench, ReplayMode.UNCONSTRAINED)
        assert pred.status == "unknown"
        assert pred.reason == "raw-fd-aliasing"
        assert pred.widened_at == 2
        # Global scope: even actions before the widening point are
        # suspect (aliasing side effects reach backwards).
        assert pred.outcomes == [UNKNOWN, UNKNOWN, UNKNOWN]

    def test_raw_fd_exact_when_sequential(self):
        bench = synthetic([
            rec(0, "T1", "open",
                {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "close", {"fd": 3}),
            rec(2, "T2", "fsync", {"fd": 9}, ret=-1, err="EBADF"),
        ])
        pred = predict(bench, ReplayMode.SINGLE)
        assert pred.status == "exact"
        assert pred.outcomes == [None, None, "EBADF"]

    def test_inflight_aio_write_widens_suffix(self):
        bench = synthetic([
            rec(0, "T1", "open",
                {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "aio_write",
                {"aiocb": "cb1", "fd": 3, "nbytes": 100, "offset": 0}),
            rec(2, "T1", "truncate", {"path": "/d/f", "length": 0}),
            rec(3, "T1", "stat", {"path": "/d/f"}),
        ])
        pred = predict(bench, ReplayMode.SINGLE)
        assert pred.status == "unknown"
        assert pred.reason == "aio-write-in-flight"
        assert pred.widened_at == 2
        # Suffix scope: the prefix stays bound, the rest is UNKNOWN.
        assert pred.outcomes == [None, None, UNKNOWN, UNKNOWN]


# The in-flight rule, site by site.  No real workload reaches it (every
# non-exact Magritte prediction is ``unordered-races``), so these
# synthetic traces are its only guard.  Each op follows an aio_write
# to /d/f (fd 3, opened O_APPEND); /d/o (fd 4) is a bystander.

SIZE_SENSITIVE = {
    "truncate": ("truncate", {"path": "/d/f", "length": 0}),
    "ftruncate": ("ftruncate", {"fd": 3, "length": 0}),
    "open-trunc": ("open", {"path": "/d/f", "flags": "O_WRONLY|O_TRUNC"}),
    "creat": ("creat", {"path": "/d/f"}),
    "read": ("read", {"fd": 3, "nbytes": 10}),
    "append-write": ("write", {"fd": 3, "nbytes": 10}),
    "lseek-end": ("lseek", {"fd": 3, "offset": 0, "whence": 2}),
    "exchangedata": ("exchangedata", {"path1": "/d/o", "path2": "/d/f"}),
}

SIZE_BLIND = {
    "pread": ("pread", {"fd": 3, "nbytes": 10, "offset": 0}),
    "pwrite": ("pwrite", {"fd": 3, "nbytes": 10, "offset": 500}),
    "stat": ("stat", {"path": "/d/f"}),
    "fallocate": ("fallocate", {"fd": 3, "offset": 0, "length": 4096}),
    "second-aio_write": ("aio_write", {"aiocb": "cb2", "fd": 3,
                                       "nbytes": 10, "offset": 300}),
    "open-no-trunc": ("open", {"path": "/d/f", "flags": "O_WRONLY"}),
    "open-trunc-rdonly": ("open", {"path": "/d/f", "flags": "O_RDONLY|O_TRUNC"}),
    "lseek-set": ("lseek", {"fd": 3, "offset": 5, "whence": 0}),
    "write-other-fd": ("write", {"fd": 4, "nbytes": 10}),
    "read-other-inode": ("read", {"fd": 4, "nbytes": 10}),
    "truncate-other-inode": ("truncate", {"path": "/d/o", "length": 0}),
    "ftruncate-other-inode": ("ftruncate", {"fd": 4, "length": 0}),
    "creat-other-inode": ("creat", {"path": "/d/o"}),
}


def inflight_trace(op, suspend_first=False, platform="linux"):
    name, args = op
    records = [
        ("open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT|O_APPEND"}, 3),
        ("open", {"path": "/d/o", "flags": "O_RDWR|O_CREAT"}, 4),
        ("aio_write", {"aiocb": "cb1", "fd": 3, "nbytes": 100, "offset": 0}, 0),
    ]
    if suspend_first:
        records.append(("aio_suspend", {"aiocbs": ["cb1"]}, 0))
    records += [(name, args, 0), ("stat", {"path": "/d/f"}, 0)]
    return synthetic(
        [rec(idx, "T1", name, args, ret=ret)
         for idx, (name, args, ret) in enumerate(records)],
        platform=platform,
    )


def flavor_for(site):
    # exchangedata swaps sizes only where it is native; ported to
    # Linux it is a link and two renames, which read no size.
    return "darwin" if site == "exchangedata" else "linux"


class TestInflightRule(object):
    @pytest.mark.parametrize("site", sorted(SIZE_SENSITIVE))
    def test_size_sensitive_site_widens_suffix(self, site):
        bench = inflight_trace(SIZE_SENSITIVE[site], platform=flavor_for(site))
        pred = predict(bench, ReplayMode.SINGLE)
        assert pred.status == "unknown"
        assert pred.reason == "aio-write-in-flight"
        assert pred.widened_at == 3
        assert pred.outcomes == [None, None, None, UNKNOWN, UNKNOWN]

    @pytest.mark.parametrize("site", sorted(SIZE_SENSITIVE))
    def test_aio_suspend_releases(self, site):
        bench = inflight_trace(SIZE_SENSITIVE[site], suspend_first=True,
                               platform=flavor_for(site))
        pred = predict(bench, ReplayMode.SINGLE)
        assert pred.status == "exact", pred.reason
        assert pred.outcomes == [None] * 6

    @pytest.mark.parametrize("site", sorted(SIZE_BLIND))
    def test_size_blind_op_stays_exact(self, site):
        pred = predict(inflight_trace(SIZE_BLIND[site]), ReplayMode.SINGLE)
        assert pred.status == "exact", pred.reason
        assert pred.outcomes == [None] * 5

    def test_ported_exchangedata_reads_no_size(self):
        bench = inflight_trace(SIZE_SENSITIVE["exchangedata"], platform="darwin")
        pred = predict(bench, ReplayMode.SINGLE, target="linux")
        assert pred.status == "exact", pred.reason

    def test_suspending_another_aiocb_does_not_release(self):
        bench = synthetic([
            rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "aio_write",
                {"aiocb": "cb1", "fd": 3, "nbytes": 100, "offset": 0}),
            rec(2, "T1", "aio_read",
                {"aiocb": "cb2", "fd": 3, "nbytes": 100, "offset": 0}),
            rec(3, "T1", "aio_suspend", {"aiocbs": ["cb2"]}),
            rec(4, "T1", "aio_return", {"aiocb": "cb1"}),
            rec(5, "T1", "ftruncate", {"fd": 3, "length": 0}),
        ])
        pred = predict(bench, ReplayMode.SINGLE)
        assert (pred.reason, pred.widened_at) == ("aio-write-in-flight", 5)

    def test_lio_listio_tracks_the_writes_it_submitted(self):
        ops = [
            {"aiocb": "a", "fd": 3, "nbytes": 10, "offset": 0},
            {"aiocb": "b", "fd": 4, "nbytes": 10, "offset": 0, "is_write": True},
            {"aiocb": "c", "fd": 9, "nbytes": 10, "offset": 0, "is_write": True},
            {"aiocb": "d", "fd": 3, "nbytes": 10, "offset": 0, "is_write": True},
        ]
        head = [
            rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            rec(1, "T1", "open", {"path": "/d/o", "flags": "O_RDWR|O_CREAT"}, ret=4),
            rec(2, "T1", "lio_listio", {"ops": ops}, ret=-1, err="EBADF"),
        ]
        # The list stopped at the bad descriptor: "d" was never
        # submitted, so only /d/o has a write in flight.
        untouched = synthetic(head + [rec(3, "T1", "ftruncate", {"fd": 3, "length": 0})])
        pred = predict(untouched, ReplayMode.SINGLE)
        assert pred.status == "exact" and pred.outcomes == [None, None, "EBADF", None]
        written = synthetic(head + [rec(3, "T1", "ftruncate", {"fd": 4, "length": 0})])
        pred = predict(written, ReplayMode.SINGLE)
        assert (pred.reason, pred.widened_at) == ("aio-write-in-flight", 3)


class TestCrashMirroring(object):
    """Where the concrete replayer would die, the prediction widens
    (suffix scope) at that action instead of inventing an errno."""

    OPEN = ("open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, 3)

    @pytest.mark.parametrize("bad, reason", [
        (("pread", {"fd": 3, "offset": 0}), "step-would-crash: pread: "),
        (("pwrite", {"fd": 3, "offset": 0, "nbytes": "x"}),
         "step-would-crash: pwrite: "),
        # A Linux fsync on Darwin plans an fcntl(F_FULLFSYNC) from the fd.
        (("fsync", {}), "step-would-crash: fsync: "),
    ])
    def test_malformed_step_widens_where_replay_dies(self, bad, reason):
        records = [self.OPEN, bad + (0,), ("stat", {"path": "/d/f"}, 0)]
        bench = synthetic([rec(idx, "T1", name, args, ret=ret)
                           for idx, (name, args, ret) in enumerate(records)])
        pred = predict(bench, ReplayMode.SINGLE, target="darwin")
        assert pred.status == "unknown"
        assert pred.reason.startswith(reason), pred.reason
        assert pred.widened_at == 1
        assert pred.outcomes == [None, UNKNOWN, UNKNOWN]
        fs = PLATFORMS["mac-ssd"].make_fs(seed=0)
        initialize(fs, bench.snapshot)
        with pytest.raises(Exception):
            replay(bench, fs, ReplayConfig(mode=ReplayMode.SINGLE))


class TestCrossCheck(object):
    def test_verify_benchmark_dynamic_clean(self):
        bench = benchmark_for("itunes_startsmall1")
        result = verify_benchmark(
            bench, cores=("scoreboard",), dynamic=True,
            platform=PLATFORMS["ssd"], seed=1,
        )
        assert result.ok
        abstract = [p for p in result.report.passes
                    if p.name == "abstract"][0]
        assert abstract.stats["cross_checked"] == 1
        assert abstract.stats["exact"] >= 2  # artc + single-threaded

    def test_dynamic_requires_platform(self):
        with pytest.raises(ValueError):
            verify_benchmark(benchmark_for("itunes_startsmall1"),
                             dynamic=True)

    def test_fabricated_digest_contradicted(self):
        bench = benchmark_for("itunes_startsmall1")
        platform = PLATFORMS["ssd"]
        target = platform.make_fs(seed=0).platform
        pred = predict(bench, ReplayMode.SINGLE, target=target)
        assert pred.status == "exact"
        pred.digest = "0" * 64
        findings = cross_check(bench, pred, platform, seed=0)
        assert "abstract-digest-contradiction" in [
            f.check for f in findings
        ]

    def test_fabricated_errno_contradicted(self):
        bench = benchmark_for("itunes_startsmall1")
        platform = PLATFORMS["ssd"]
        target = platform.make_fs(seed=0).platform
        pred = predict(bench, ReplayMode.SINGLE, target=target)
        assert pred.status == "exact"
        lie_at = pred.outcomes.index(None)
        pred.outcomes[lie_at] = "EIO"
        findings = cross_check(bench, pred, platform, seed=0)
        hits = [f for f in findings
                if f.check == "abstract-errno-contradiction"]
        assert hits and lie_at in hits[0].actions
