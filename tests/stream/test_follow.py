"""Live --follow replay: byte-identical to batch, under backpressure,
staggered delivery, and producer stalls."""

import sys
import threading
import time

import pytest

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, ReplayError, replay, _ReplayRun
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode
from repro.errors import ReplayAborted, TraceError
from repro.obs import Observability
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.compile import StreamCompiler
from repro.stream.follow import StreamStatus, follow_replay, ingest_trace
from repro.verify.abstract import fs_digest
from repro.workloads.base import Application, must
from repro.workloads.magritte import build_suite

PLATFORM = PLATFORMS["hdd-ext4"]


def fingerprint(report, fs):
    return (
        [
            (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err, r.matched)
            for r in report.results
        ],
        report.elapsed,
        fs.engine.now,
        fs_digest(fs),
    )


def batch_fingerprint(traced, config, obs=None):
    bench = compile_trace(traced.trace, traced.snapshot)
    fs = PLATFORM.make_fs(seed=0, obs=obs)
    initialize(fs, traced.snapshot)
    report = replay(bench, fs, config)
    return fingerprint(report, fs)


def follow_fingerprint(traced, trace_file, config, obs=None, **kwargs):
    fs = PLATFORM.make_fs(seed=0, obs=obs)
    initialize(fs, traced.snapshot)
    report, status = follow_replay(
        trace_file, fs, config, snapshot=traced.snapshot, **kwargs
    )
    return fingerprint(report, fs), status


@pytest.mark.parametrize("mode", [
    ReplayMode.ARTC, ReplayMode.SINGLE, ReplayMode.UNCONSTRAINED,
])
@pytest.mark.parametrize("window", [64, 4096])
def test_follow_identical_to_batch(traced, trace_file, mode, window):
    batch = batch_fingerprint(traced, ReplayConfig(mode=mode))
    live, status = follow_fingerprint(
        traced, trace_file, ReplayConfig(mode=mode), window=window
    )
    assert status.mode == "live"
    assert live == batch


@pytest.fixture(scope="module")
def waiting():
    """A trace whose threads wait on each other (pages_create15: 266
    cross-thread edges); the readers of ``traced`` barely do, so only
    here does a pull feed actions whose predecessors already ran."""
    app = build_suite(["pages_create15"])["pages_create15"]
    return trace_application(app, PLATFORMS["mac-hdd"], seed=0)


@pytest.mark.parametrize("window", [8, 64])
def test_follow_with_cross_thread_waits_identical(waiting, tmp_path, window):
    path = str(tmp_path / "pages.json")
    waiting.trace.with_roster().save(path)
    with open(path + ".done", "w"):
        pass
    config = ReplayConfig(mode=ReplayMode.ARTC)
    live, status = follow_fingerprint(waiting, path, config, window=window)
    assert status.mode == "live"
    assert live == batch_fingerprint(waiting, config)


def test_follow_with_observability_identical(traced, trace_file):
    # Attached obs forces the dynamic (non-fast) scoreboard bodies.
    batch = batch_fingerprint(
        traced, ReplayConfig(mode=ReplayMode.ARTC), obs=Observability()
    )
    live, status = follow_fingerprint(
        traced, trace_file, ReplayConfig(mode=ReplayMode.ARTC),
        obs=Observability(),
    )
    assert status.mode == "live"
    assert live == batch


def test_follow_natural_timing_identical(traced, trace_file):
    config = ReplayConfig(mode=ReplayMode.ARTC, timing="natural")
    batch = batch_fingerprint(traced, config)
    live, status = follow_fingerprint(
        traced, trace_file, ReplayConfig(mode=ReplayMode.ARTC, timing="natural")
    )
    assert status.mode == "live"
    assert live == batch


@pytest.mark.parametrize("config_kwargs", [
    {"mode": ReplayMode.TEMPORAL},
    {"core": "events"},
    {"core": "jit"},
])
def test_deferred_paths_identical(traced, trace_file, config_kwargs):
    batch = batch_fingerprint(traced, ReplayConfig(**config_kwargs))
    live, status = follow_fingerprint(
        traced, trace_file, ReplayConfig(**config_kwargs)
    )
    assert status.mode == "deferred"
    assert live == batch


def test_backpressure_and_retirement(traced, trace_file):
    _, status = follow_fingerprint(
        traced, trace_file, ReplayConfig(mode=ReplayMode.SINGLE), window=32
    )
    # The serial thread runs dry only once everything fed has replayed,
    # so it never needs the cap overridden; each pull fills the window
    # to the cap, and one that leaves records behind (every full pull
    # but one ending exactly at the last record) is a pause.
    assert status.window_high_water <= 32
    assert status.cap_overrides == 0
    assert status.backpressure_pauses == (len(traced.trace) - 1) // 32
    assert status.retired > 0
    assert status.live_vectors < len(traced.trace) // 2
    assert status.eof


@pytest.mark.parametrize("mode", [ReplayMode.ARTC, ReplayMode.UNCONSTRAINED])
def test_window_below_thread_skew_overrides_the_cap(traced, trace_file, mode):
    """At a window smaller than the distance between one thread's
    consecutive records, a thread runs dry with the window full: its
    pull feeds past the cap until its action arrives, and the replay
    still equals batch."""
    batch = batch_fingerprint(traced, ReplayConfig(mode=mode))
    live, status = follow_fingerprint(
        traced, trace_file, ReplayConfig(mode=mode), window=8
    )
    assert status.mode == "live"
    assert status.cap_overrides > 0
    assert status.window_high_water > 8
    assert live == batch


def staggered_producer(data, path, pieces, pause, start=0):
    """A producer thread appending ``data[start:]`` to ``path`` in about
    ``pieces`` arbitrary (mid-line) chunks ``pause`` seconds apart, then
    dropping the done marker."""

    def produce():
        pos = start
        step = max(1, len(data) // pieces)
        while pos < len(data):
            nxt = min(len(data), pos + step + (pos % 13))
            with open(path, "ab") as handle:
                handle.write(data[pos:nxt])
            pos = nxt
            time.sleep(pause)
        with open(path + ".done", "w"):
            pass

    return threading.Thread(target=produce, daemon=True)


def test_staggered_delivery_identical(traced, trace_bytes, tmp_path):
    """A slow producer writing arbitrary (mid-line) chunks while the
    replay follows: identical output, nonzero resyncs."""
    path = str(tmp_path / "grow.json")
    with open(path, "wb") as handle:
        handle.write(trace_bytes[:40])
    writer = staggered_producer(trace_bytes, path, 23, 0.003, start=40)
    writer.start()
    try:
        live, status = follow_fingerprint(
            traced, path, ReplayConfig(mode=ReplayMode.ARTC),
            window=128, poll=0.002,
        )
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    batch = batch_fingerprint(traced, ReplayConfig(mode=ReplayMode.ARTC))
    assert status.mode == "live"
    assert live == batch
    assert status.resyncs > 0
    assert status.producer_waits > 0


def test_follow_under_a_tiny_switch_interval(traced, trace_bytes, tmp_path):
    """A staggered live producer with the interpreter switching threads
    every 10 us, so producer and pulls interleave at nearly every
    bytecode: the replay still equals batch."""
    path = str(tmp_path / "grow.json")
    with open(path, "wb"):
        pass
    batch = batch_fingerprint(traced, ReplayConfig(mode=ReplayMode.ARTC))
    writer = staggered_producer(trace_bytes, path, 31, 0.001)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer.start()
        try:
            live, status = follow_fingerprint(
                traced, path, ReplayConfig(mode=ReplayMode.ARTC),
                window=16, poll=0.001, idle_timeout=60,
            )
        finally:
            writer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert status.mode == "live"
    assert status.eof and status.fed == len(traced.trace)
    assert live == batch


def test_idle_timeout_reports_awaiting_producer(traced, trace_bytes, tmp_path):
    path = str(tmp_path / "stalled.json")
    cut = trace_bytes.index(b"\n", len(trace_bytes) // 2) + 1
    with open(path, "wb") as handle:
        handle.write(trace_bytes[:cut])  # no .done marker: producer hangs
    fs = PLATFORM.make_fs(seed=0)
    initialize(fs, traced.snapshot)
    with pytest.raises(ReplayAborted, match="awaiting producer"):
        follow_replay(
            path, fs, ReplayConfig(mode=ReplayMode.ARTC),
            snapshot=traced.snapshot, poll=0.01, idle_timeout=0.1,
        )


def test_roster_order_violation_raises(traced, tmp_path):
    trace = traced.trace
    shuffled = list(trace.threads)
    shuffled.reverse()
    original = trace.thread_roster
    trace.thread_roster = shuffled
    path = str(tmp_path / "bad.json")
    try:
        trace.save(path)
    finally:
        trace.thread_roster = original
    with open(path + ".done", "w"):
        pass
    fs = PLATFORM.make_fs(seed=0)
    initialize(fs, traced.snapshot)
    with pytest.raises(ReplayError, match="roster order"):
        follow_replay(
            path, fs, ReplayConfig(mode=ReplayMode.ARTC),
            snapshot=traced.snapshot,
        )


def test_diverged_resume_raises_trace_error(traced, trace_file, tmp_path):
    """A resume whose re-derivation disagrees with the checkpoint is
    found inside a pull, mid-replay, and still surfaces as the
    ``TraceError`` the deferred path raises."""
    ck = str(tmp_path / "ck.json")
    ingest_trace(trace_file, snapshot=traced.snapshot, checkpoint_path=ck)
    checkpoint = load_checkpoint(ck)
    checkpoint["actions"] = len(traced.trace) // 2
    save_checkpoint(ck, checkpoint)
    fs = PLATFORM.make_fs(seed=0)
    initialize(fs, traced.snapshot)
    with pytest.raises(TraceError, match="resume diverged"):
        follow_replay(
            trace_file, fs, ReplayConfig(mode=ReplayMode.ARTC),
            snapshot=traced.snapshot, checkpoint_path=ck, resume=True,
        )


def test_watchdog_reports_awaiting_producer(traced):
    """The hardened watchdog, handed a live stream status, diagnoses a
    stall as producer starvation instead of a dependency cycle."""
    bench = compile_trace(traced.trace, traced.snapshot)
    fs = PLATFORM.make_fs(seed=0)
    run = _ReplayRun(bench, fs, ReplayConfig())
    status = StreamStatus()
    status.records = 10
    status.fed = 10
    run.stream = status  # producer not drained: status.eof is False
    fs.engine.spawn(run._watchdog(0.5), name="watchdog")
    with pytest.raises(ReplayAborted, match="awaiting producer"):
        fs.engine.run()


def test_watchdog_finishes_when_stream_drained(traced):
    bench = compile_trace(traced.trace, traced.snapshot)
    fs = PLATFORM.make_fs(seed=0)
    run = _ReplayRun(bench, fs, ReplayConfig())
    status = StreamStatus()
    status.eof = True
    status.fed = 0  # everything fed was replayed (nothing at all)
    run.stream = status
    fs.engine.spawn(run._watchdog(0.5), name="watchdog")
    fs.engine.run()  # returns without raising


# -- retirement sweeps ---------------------------------------------------


class FileMaker(Application):
    """Three threads creating files.  Every file's tracker keeps a
    vector citable, so the live set grows with the trace -- the shape
    that made a fixed-stride sweep quadratic."""

    name = "file-maker"
    roots = ("/out",)

    def __init__(self, files):
        self.files = files

    def setup(self, fs):
        fs.makedirs_now("/out")

    def main(self, osapi):
        def body(tid):
            for number in range(self.files):
                fd = must((yield from osapi.call(
                    tid, "open", path="/out/t%d-%d" % (tid, number),
                    flags="O_WRONLY|O_CREAT")))
                yield from osapi.call(tid, "write", fd=fd, nbytes=4096)
                yield from osapi.call(tid, "close", fd=fd)

        return (yield from self.spawn_threads(
            osapi, [body(tid) for tid in (1, 2, 3)]
        ))


def _follow_sweeps(files, tmp_path, monkeypatch):
    """Follow a ``FileMaker`` trace at a 64-action window; returns the
    traced run, the status and how many retirement sweeps ran."""
    traced = trace_application(FileMaker(files), PLATFORM, seed=1)
    path = str(tmp_path / ("maker-%d.json" % files))
    traced.trace.save(path)
    with open(path + ".done", "w"):
        pass
    sweeps = []
    retire = StreamCompiler.retire
    monkeypatch.setattr(
        StreamCompiler, "retire",
        lambda self: sweeps.append(self.fed) or retire(self),
    )
    _, status = follow_fingerprint(
        traced, path, ReplayConfig(mode=ReplayMode.ARTC), window=64
    )
    monkeypatch.undo()
    assert status.eof and status.fed == len(traced.trace)
    return traced, status, len(sweeps)


def test_retirement_sweeps_grow_sublinearly(tmp_path, monkeypatch):
    traced, status, sweeps = _follow_sweeps(120, tmp_path, monkeypatch)
    trace = traced.trace
    assert len(trace) >= 8 * 64
    longer, _, more_sweeps = _follow_sweeps(480, tmp_path, monkeypatch)
    longer = longer.trace
    assert len(longer) == 4 * len(trace)
    # Four times the trace is two more doublings of the live set, not
    # four times the sweeps (a 64-action stride would run len // 64).
    assert more_sweeps <= sweeps + 3
    assert more_sweeps < len(longer) // 64 // 4

    # The counters a fixed 64-action stride ends on.
    compiler = StreamCompiler(
        snapshot=traced.snapshot, platform=trace.platform, retain=False
    )
    for record in trace.records:
        compiler.feed(record)
        if compiler.fed % 64 == 0:
            compiler.retire()
    compiler.retire()
    assert status.live_vectors == compiler.live_vectors
    assert status.retired == compiler.retired == len(trace) - status.live_vectors
