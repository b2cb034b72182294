"""The follow controller: tail -> compile -> replay, with
backpressure, retirement, checkpoints, and the producer watchdog.

Two entry points:

- :func:`ingest_trace` -- streamed *compilation* only (``artc compile
  --stream`` and the ``stream`` serve job): tail the source, feed a
  retain-mode :class:`~repro.stream.compile.StreamCompiler`, write
  periodic checkpoints, and (once the producer finishes) return the
  same :class:`~repro.artc.benchmark.CompiledBenchmark` the batch
  compiler would have produced.
- :func:`follow_replay` -- ``artc replay --follow``: everything above
  plus a live :class:`~repro.stream.replay.FollowRun` consuming the
  compiled actions as they land.  Within the supported envelope
  (scoreboard cores; ARTC / single / unconstrained modes; a thread
  roster in the trace header) the replay runs concurrently with
  ingestion under a bounded window; outside it, the controller falls
  back to *deferred start* -- streamed ingestion to completion, then
  an ordinary batch replay -- with identical output either way.

Flow control (live path): input is *pulled*.  A replay thread whose
queue runs dry compiles the next records itself, inside its own engine
step (:mod:`repro.stream.replay`):

- the pull feeds records in trace order until the thread's queue holds
  an action, past the window cap if need be (``cap_overrides`` counts
  the records fed past it).  Draining around a starving thread is not
  an option -- it would change engine scheduling and break
  byte-identity.
- it then tops the *window* -- compiled-but-unreplayed actions plus
  parsed-but-uncompiled records -- up to the cap with records already
  at hand, so the next dry queue is usually refilled without another
  pull.  A pull that stops at the cap with records still at hand is a
  ``backpressure_pauses``: the trace file itself is the buffer.
- when replay catches the producer, the pull blocks in wall-clock time
  (simulated time frozen), polling the source every ``poll`` seconds;
  after ``idle_timeout`` seconds without producer progress it aborts
  with an ``awaiting producer (lag=...)`` diagnosis rather than a
  spurious deadlock report.

Crash resume (both entry points): checkpoints record byte positions
and chained digests, not compiler state -- the trace is the
write-ahead log.  ``resume=True`` re-reads the durable prefix from
byte zero, re-deriving state deterministically, and *validates* the
re-derivation against the checkpoint (prefix hash up front, action
chain at the checkpoint boundary), refusing to continue over a
rewritten file or a diverging derivation.
"""

import time
from collections import deque

from repro.artc.replayer import (
    CAPABILITIES, DYNAMIC, YES, ReplayConfig, replay, request_features,
)
from repro.errors import AbortSimulation, ReplayAborted, TraceError
from repro.obs.context import of_engine
from repro.stream.checkpoint import Checkpointer, load_checkpoint
from repro.stream.compile import StreamCompiler
from repro.stream.replay import FollowRun
from repro.stream.tail import TraceTailer, hash_prefix

#: Reach vectors allowed beyond twice the last sweep's survivors before
#: the next retirement sweep (ref-floor scan).
RETIRE_SLACK = 64

#: Default bounded-window cap (actions), overridable per call/CLI.
DEFAULT_WINDOW = 4096


class StreamStatus(object):
    """Mutable live view of one streamed run; exported as the
    ``stream`` block of ``--json`` output and mirrored to ``stream.*``
    metrics when observability is attached."""

    def __init__(self, mode="live"):
        self.mode = mode
        self.records = 0
        self.fed = 0
        self.replayed = 0
        self.window = 0
        self.window_high_water = 0
        self.window_cap = 0
        self.retired = 0
        self.live_vectors = 0
        self.resyncs = 0
        self.cap_overrides = 0
        self.backpressure_pauses = 0
        self.producer_waits = 0
        self.checkpoints_written = 0
        self.resume_verified = False
        self.digest = None
        self.warnings = {}
        self.eof = False

    @property
    def drained(self):
        return self.eof

    def lag(self):
        """Actions the producer is ahead of the replay."""
        return max(0, self.records - self.replayed)

    def to_dict(self):
        return {
            "mode": self.mode,
            "records": self.records,
            "fed": self.fed,
            "replayed": self.replayed,
            "window_high_water": self.window_high_water,
            "window_cap": self.window_cap,
            "retired": self.retired,
            "live_vectors": self.live_vectors,
            "resyncs": self.resyncs,
            "cap_overrides": self.cap_overrides,
            "backpressure_pauses": self.backpressure_pauses,
            "producer_waits": self.producer_waits,
            "checkpoints_written": self.checkpoints_written,
            "resume_verified": self.resume_verified,
            "digest": self.digest,
            "warnings": self.warnings,
        }


def export_stream_metrics(obs, status):
    """Mirror a finished run's stream counters to ``stream.*`` gauges."""
    metrics = obs.metrics
    numeric = status.to_dict()
    numeric.pop("mode", None)
    numeric.pop("digest", None)
    numeric.pop("warnings", None)
    numeric["resume_verified"] = int(status.resume_verified)
    for name, value in numeric.items():
        metrics.gauge("stream.%s" % name).set(value)


class _ResumeCheck(object):
    """Deferred checkpoint validation: prefix hash up front, action
    chain once re-derivation reaches the checkpoint boundary."""

    def __init__(self, checkpoint, path):
        self.actions = checkpoint["actions"]
        self.chain = checkpoint["actions_sha256"]
        self.verified = False
        prefix = hash_prefix(path, checkpoint.get("position", {}))
        if prefix != checkpoint["prefix_sha256"]:
            raise TraceError(
                "stream checkpoint does not match %s: the consumed"
                " prefix was rewritten (checkpoint %s, file %s)"
                % (path, checkpoint["prefix_sha256"][:12], prefix[:12])
            )

    def check(self, compiler):
        if self.verified or compiler.fed != self.actions:
            return
        derived = compiler.chain.hexdigest()
        if derived != self.chain:
            raise TraceError(
                "stream resume diverged at action %d: re-derived chain"
                " %s, checkpoint recorded %s"
                % (self.actions, derived[:12], self.chain[:12])
            )
        self.verified = True


class _PullFailed(AbortSimulation):
    """An error raised inside a pull, carried out of ``engine.run``
    (which re-raises an :class:`AbortSimulation` unchanged) so that
    :func:`follow_replay` raises it with its own type, not wrapped as
    a crash of the pulling thread's process."""

    def __init__(self, error):
        super().__init__(str(error))
        self.error = error


def _producer_wait(tailer, status, poll, idle_timeout, waited):
    """One wall-clock wait step while the producer is behind; raises
    the follow watchdog's diagnosis after ``idle_timeout`` idle
    seconds."""
    if idle_timeout is not None and waited >= idle_timeout:
        raise ReplayAborted(
            "follow watchdog: no producer progress for %gs;"
            " awaiting producer (lag=%d records, %d fed, %d replayed)"
            % (waited, status.lag(), status.fed, status.replayed),
            context={"stream": status.to_dict()},
        )
    status.producer_waits += 1
    time.sleep(poll)
    return waited + poll


def _await_first(tailer, pending, status, poll, idle_timeout):
    """Block until the stream reveals its header (first record or a
    clean empty end)."""
    waited = 0.0
    while True:
        got = tailer.poll(limit=1)
        if got:
            pending.extend(got)
            return
        if tailer.drained:
            return
        waited = _producer_wait(tailer, status, poll, idle_timeout, waited)


def _live_supported(config, roster):
    """Whether this configuration can replay concurrently with
    ingestion: a known thread roster, and every feature the request
    carries is one the core's capability column plays live (the
    scoreboard envelope).  Everything else -- refusals included, which
    the batch replay then raises -- takes the deferred-start path."""
    if roster is None:
        return False
    column = CAPABILITIES[config.core]
    return all(
        column[feature].outcome in (YES, DYNAMIC)
        for feature in request_features(config, follow=True)
    )


class IngestResult(object):
    """What :func:`ingest_trace` returns.  ``benchmark`` is None until
    the producer finishes (``finished``); counts and the running
    digest are always present."""

    def __init__(self, benchmark, status, position, finished):
        self.benchmark = benchmark
        self.status = status
        self.position = position
        self.finished = finished

    @property
    def digest(self):
        return self.status.digest


def ingest_trace(
    path,
    ruleset=None,
    snapshot=None,
    label=None,
    reduce=True,
    checkpoint_path=None,
    checkpoint_every=256,
    resume=False,
    poll=0.05,
    idle_timeout=None,
    wait=True,
    _tailer=None,
    _pending=None,
):
    """Streamed (retain-mode) compile of a growing trace.

    With ``wait=True`` blocks (wall-clock polling) until the producer
    finishes and returns an :class:`IngestResult` carrying the
    compiled benchmark.  With ``wait=False`` consumes only what is
    available right now -- the serve job's stateless resumable step --
    returning ``finished=False`` (and no benchmark) if the producer is
    still going.
    """
    status = StreamStatus(mode="ingest")
    tailer = _tailer if _tailer is not None else TraceTailer(path)
    pending = _pending if _pending is not None else deque()
    checkpointer = (
        Checkpointer(checkpoint_path, every=checkpoint_every)
        if checkpoint_path
        else None
    )
    verify = None
    if resume and checkpoint_path:
        checkpoint = load_checkpoint(checkpoint_path)
        if checkpoint is not None:
            verify = _ResumeCheck(checkpoint, path)
    if not pending and not tailer.drained:
        if wait:
            _await_first(tailer, pending, status, poll, idle_timeout)
        else:
            pending.extend(tailer.poll())
    compiler = StreamCompiler(
        ruleset,
        snapshot,
        platform=tailer.platform,
        label=label if label is not None else tailer.label,
        retain=True,
        reduce=reduce,
    )
    waited = 0.0
    while True:
        while pending:
            compiler.feed(pending.popleft())
            if verify is not None:
                verify.check(compiler)
            if checkpointer is not None:
                checkpointer.maybe(tailer, compiler)
        got = tailer.poll()
        if got:
            waited = 0.0
            pending.extend(got)
            continue
        if tailer.drained:
            break
        if not wait:
            break
        waited = _producer_wait(tailer, status, poll, idle_timeout, waited)
    finished = tailer.drained and not pending
    if checkpointer is not None:
        checkpointer.write(tailer, compiler)
        status.checkpoints_written = checkpointer.written
    status.records = tailer.records_read
    status.fed = compiler.fed
    status.resyncs = tailer.resyncs
    status.warnings = tailer.warnings.to_dict()
    status.digest = compiler.digest()
    status.eof = finished
    status.resume_verified = verify.verified if verify is not None else False
    benchmark = compiler.finish_benchmark() if finished else None
    return IngestResult(benchmark, status, tailer.position(), finished)


def follow_replay(
    path,
    fs,
    config=None,
    ruleset=None,
    snapshot=None,
    label=None,
    window=DEFAULT_WINDOW,
    poll=0.05,
    idle_timeout=None,
    checkpoint_path=None,
    checkpoint_every=256,
    resume=False,
    reduce=True,
):
    """Replay ``path`` while it is being written.  Returns
    ``(report, status)``; the report is byte-identical to compiling
    the finished trace and replaying it batch."""
    if config is None:
        config = ReplayConfig()
    status = StreamStatus()
    tailer = TraceTailer(path)
    pending = deque()
    _await_first(tailer, pending, status, poll, idle_timeout)
    roster = tailer.thread_roster
    if not _live_supported(config, roster):
        # Deferred start: stream the compile to completion (same tail
        # tolerance, same checkpoints), then replay batch.
        result = ingest_trace(
            path,
            ruleset=ruleset,
            snapshot=snapshot,
            label=label,
            reduce=reduce,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume=resume,
            poll=poll,
            idle_timeout=idle_timeout,
            wait=True,
            _tailer=tailer,
            _pending=pending,
        )
        status = result.status
        status.mode = "deferred"
        report = replay(result.benchmark, fs, config)
        status.replayed = len(report.results)
        obs = of_engine(fs.engine)
        if obs is not None:
            export_stream_metrics(obs, status)
        return report, status

    checkpointer = (
        Checkpointer(checkpoint_path, every=checkpoint_every)
        if checkpoint_path
        else None
    )
    verify = None
    if resume and checkpoint_path:
        checkpoint = load_checkpoint(checkpoint_path)
        if checkpoint is not None:
            verify = _ResumeCheck(checkpoint, path)
    compiler = StreamCompiler(
        ruleset,
        snapshot,
        platform=tailer.platform,
        label=label if label is not None else tailer.label,
        retain=False,
        reduce=reduce,
    )
    run = FollowRun(
        compiler.ruleset,
        fs,
        config,
        roster,
        platform=tailer.platform,
        label=label if label is not None else tailer.label,
    )
    run.stream = status
    status.window_cap = window

    retire_above = RETIRE_SLACK

    def feed_one(record):
        nonlocal retire_above
        run.feed(compiler.feed(record))
        if verify is not None:
            verify.check(compiler)
        if compiler.live_vectors > retire_above:
            # A sweep walks every tracker and vector, so sweep only once
            # the vectors have doubled since the last one: O(1) a feed
            # amortised, at most 2x the live set (plus slack) resident.
            compiler.retire()
            retire_above = 2 * compiler.live_vectors + RETIRE_SLACK
        if checkpointer is not None:
            checkpointer.maybe(tailer, compiler)

    def fetch(room):
        """Poll the source into the empty ``pending``: up to the
        window's ``room``, and at least one record."""
        pending.extend(tailer.poll(limit=max(1, min(room, 256))))
        return pending

    def account(replayed):
        """Bring the status up to date.  Within one pull nothing
        completes and feeding a parsed record leaves the window as it
        was, so the window only grows during a pull: its end is the
        pull's high water."""
        status.records = tailer.records_read
        status.fed = run.fed
        status.replayed = replayed
        status.window = live = (run.fed - replayed) + len(pending)
        if live > status.window_high_water:
            status.window_high_water = live

    def pull(queue):
        """Feed records in trace order until ``queue`` holds an action,
        then top the window up to the cap with records at hand.  Runs
        inside the pulling thread's engine step, so simulated time
        stands still however long the producer takes.  False when the
        input ended first."""
        replayed = run.replayed
        try:
            waited = 0.0
            while not queue:
                if pending or fetch(window - (run.fed - replayed)):
                    waited = 0.0
                    if run.fed - replayed >= window:
                        status.cap_overrides += 1
                    feed_one(pending.popleft())
                elif tailer.drained:
                    return False
                else:
                    account(replayed)
                    waited = _producer_wait(
                        tailer, status, poll, idle_timeout, waited
                    )
            room = window - (run.fed - replayed)
            while room > 0 and (pending or fetch(room)):
                feed_one(pending.popleft())
                room -= 1
            if room <= 0 and (pending or tailer.buffered):
                status.backpressure_pauses += 1
            return True
        except Exception as exc:
            raise _PullFailed(exc)
        finally:
            account(replayed)

    try:
        run.start(pull)
        fs.engine.run()
    except _PullFailed as failed:
        raise failed.error from None
    finally:
        compiler.retire()
        status.records = tailer.records_read
        status.fed = compiler.fed
        status.replayed = run.replayed
        status.window = (run.fed - run.replayed) + len(pending)
        status.retired = compiler.retired
        status.live_vectors = compiler.live_vectors
        status.resyncs = tailer.resyncs
        status.warnings = tailer.warnings.to_dict()
        status.digest = compiler.digest()
        status.eof = tailer.drained
        status.resume_verified = verify.verified if verify is not None else False
        if checkpointer is not None:
            if tailer.drained:
                checkpointer.write(tailer, compiler)
            status.checkpoints_written = checkpointer.written

    report = run.finalize()
    obs = of_engine(fs.engine)
    if obs is not None:
        export_stream_metrics(obs, status)
    return report, status
