"""Instrumentation must not change replay behaviour.

The acceptance bar for repro.obs: an instrumented replay produces the
same results, timings, and warnings as an uninstrumented one (the
disabled path is genuinely zero-cost, the enabled path is read-only),
and the enabled path actually populates metrics and spans.
"""

import pytest

from repro.artc.compiler import compile_trace
from repro.artc.replayer import replay
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.bench.request import profile_once, replay_once
from repro.core.modes import ReplayMode
from repro.workloads import ParallelRandomReaders


@pytest.fixture(scope="module")
def bench():
    app = ParallelRandomReaders(nthreads=3)
    traced = trace_application(app, PLATFORMS["ssd"], seed=5)
    return compile_trace(traced.trace, traced.snapshot)


#: The request fields every profile here replays with.
HDD = {"platform": "hdd-ext4", "seed": 7}


def report_fingerprint(report):
    return (
        report.elapsed,
        [(r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err, r.matched)
         for r in report.results],
        [(w.idx, w.kind, w.message, w.count) for w in report.warnings],
    )


class TestNoBehaviourChange(object):
    @pytest.mark.parametrize("mode", sorted(ReplayMode.ALL))
    def test_replay_identical_with_and_without_obs(self, bench, mode):
        fields = {"platform": "hdd-ext4", "mode": mode, "seed": 7}
        plain, _digest = replay_once(
            fields, bench.snapshot, lambda fs, config: replay(bench, fs, config)
        )
        instrumented, obs, _critpath = profile_once(fields, bench)
        assert report_fingerprint(plain) == report_fingerprint(instrumented)
        assert len(obs.metrics) > 0


class TestEnabledPathPopulates(object):
    def test_replay_metrics(self, bench):
        report, obs, _critpath = profile_once(HDD, bench)
        metrics = obs.metrics
        assert metrics.value("replay.actions") == report.n_actions
        assert metrics.value("replay.elapsed_seconds") == report.elapsed
        latency = metrics.get("replay.action_latency_seconds")
        assert latency.count == report.n_actions
        assert latency.sum == pytest.approx(report.thread_time())

    def test_storage_metrics(self, bench):
        _report, obs, _critpath = profile_once(HDD, bench)
        metrics = obs.metrics
        # Cold caches: the reads must have reached the device.
        assert metrics.value("storage.hdd.s0.dispatches") > 0
        assert metrics.get("storage.hdd.s0.seek_seconds").count > 0
        assert metrics.get("storage.queue_depth_at_submit").count > 0
        assert metrics.value("storage.cache.hits") >= 0

    def test_spans_cover_actions_and_io(self, bench):
        report, obs, _critpath = profile_once(HDD, bench)
        cats = obs.spans.by_category()
        assert len(cats["syscall"]) == report.n_actions
        assert len(cats["io"]) > 0
        # Every replay thread appears as a track.
        tracks = set(obs.spans.tracks())
        for tid in {r.tid for r in report.results}:
            assert ("T%s" % tid) in tracks

    def test_critical_path_bounds_this_run(self, bench):
        report, _obs, critpath = profile_once(HDD, bench)
        assert critpath.length <= report.elapsed + 1e-9
        assert critpath.length > 0
