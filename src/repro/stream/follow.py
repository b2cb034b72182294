"""The follow controller: tail -> compile -> replay, with
backpressure, retirement, checkpoints, and the producer watchdog.

Two entry points:

- :func:`ingest_trace` -- streamed *compilation* only (``artc compile
  --stream`` and the ``stream`` serve job): tail the source, feed a
  retain-mode :class:`~repro.stream.compile.StreamCompiler`, write
  periodic checkpoints, and (once the producer finishes) return the
  same :class:`~repro.artc.benchmark.CompiledBenchmark` the batch
  compiler would have produced.
- :func:`follow_replay` -- ``artc replay --follow``: the same compile
  plus a live :class:`~repro.stream.replay.FollowRun` consuming the
  compiled actions as they land.  Within the supported envelope
  (scoreboard cores; ARTC / single / unconstrained modes; a thread
  roster in the trace header) the replay runs concurrently with
  ingestion under a bounded window; outside it, the controller falls
  back to *deferred start* -- streamed ingestion to completion, then
  an ordinary batch replay -- with identical output either way.

Both run one compile loop (:func:`_compiled`): tail, compile, check
the resume, sweep retired reach vectors, checkpoint, and wait on the
producer when the records at hand run out.

Live path: two processes.  Once the header has named the thread
roster, :func:`follow_replay` forks a *compile process*
(:func:`_compile_process`, requires ``os.fork``) that runs the compile
loop over a windowed compiler and streams each action's row (record
fields, annotations, predelay, predecessors, wait list) back over a
pipe in pickled batches of :data:`BATCH`.  The pipe is the only buffer
between the two: the compile process runs at most one pipe's worth
(:data:`PIPE_BYTES`) ahead.  It ends with its status (digest, record
count, resyncs, warnings, retirement counts, producer waits,
checkpoints) or with the exception it raised, which the caller raises
with its own type and message.  It first moves off the CPU it was
forked on (:func:`repro.forkpipe.leave_cpu`), or the pipe's wakeups
keep both processes on one CPU.  The caller replays on its own ``fs``,
and kills and reaps the compile process on every exit.

Flow control: input is *pulled*.  A replay thread whose queue runs dry
takes the next rows itself, inside its own engine step
(:mod:`repro.stream.replay`):

- the pull feeds rows in trace order until the thread's queue holds an
  action, past the window cap if need be (``cap_overrides`` counts the
  rows fed past it).  Draining around a starving thread is not an
  option -- it would change engine scheduling and break byte-identity.
- it then tops the *window* -- rows handed to replay and not yet
  replayed -- up to the cap with rows already sent, so the next dry
  queue is usually refilled without another pull.  A pull that stops
  at the cap with another row following (at hand, or compiled behind
  the last batch, which says so) is a ``backpressure_pauses``: the
  pipe and the trace file are the buffer.
- when replay catches the producer, the pull waits on the pipe in
  wall-clock time (simulated time frozen) while the compile process
  polls the source every ``poll`` seconds; after ``idle_timeout``
  seconds without producer progress it aborts with an ``awaiting
  producer (lag=...)`` diagnosis rather than a spurious deadlock
  report.  The lag is the caller's: it shares its replay count with
  the compile process.

Crash resume (both entry points): checkpoints record byte positions
and chained digests, not compiler state -- the trace is the
write-ahead log.  ``resume=True`` re-reads the durable prefix from
byte zero, re-deriving state deterministically, and *validates* the
re-derivation against the checkpoint (prefix hash up front, action
chain at the checkpoint boundary), refusing to continue over a
rewritten file or a diverging derivation.
"""

import gc
import mmap
import os
import struct
import time
from collections import deque

from repro import forkpipe
from repro.artc.replayer import (
    CAPABILITIES, DYNAMIC, YES, ReplayConfig, replay, request_features,
)
from repro.core.model import Action
from repro.core.modes import RuleSet
from repro.errors import AbortSimulation, ReplayAborted, ReplayError, TraceError
from repro.obs.context import of_engine
from repro.stream.checkpoint import Checkpointer, load_checkpoint
from repro.stream.compile import CompiledAction, StreamCompiler
from repro.stream.replay import FollowRun
from repro.stream.tail import TraceTailer, hash_prefix
from repro.tracing.trace import TraceRecord

#: Reach vectors allowed beyond twice the last sweep's survivors before
#: the next retirement sweep (ref-floor scan).
RETIRE_SLACK = 64

#: Default bounded-window cap (actions), overridable per call/CLI.
DEFAULT_WINDOW = 4096

#: Records the compile loop takes from the tailer per poll.
LOOKAHEAD = 256

#: Compiled rows per message from the follow's compile process.
BATCH = 64

#: Bytes of the pipe from the compile process: how far it may run
#: ahead of the replay (~10k rows; the default 64 KiB holds fewer rows
#: than one default window, so it stalled the compile while the replay
#: played a window).
PIPE_BYTES = 1 << 20

#: The caller's replay count, shared with its compile process.
_REPLAYED = struct.Struct("<q")


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


def _checkpoints(path, checkpoint_path, checkpoint_every, resume):
    """The checkpoint writer and the resume check of one streamed
    compile (None when not asked for)."""
    if not checkpoint_path:
        return None, None
    verify = None
    if resume:
        checkpoint = load_checkpoint(checkpoint_path)
        if checkpoint is not None:
            verify = _ResumeCheck(checkpoint, path)
    return Checkpointer(checkpoint_path, every=checkpoint_every), verify


def _compiled(tailer, pending, compiler, verify, checkpointer, status,
              poll, idle_timeout, wait=True):
    """The one compile loop (:func:`ingest_trace` and the follow's
    compile process): tail, compile, check the resume, sweep retired
    reach vectors (windowed compilers), checkpoint.  Yields each
    :class:`~repro.stream.compile.CompiledAction` in trace order, and
    None each time the records at hand run out: before every wait on
    the producer and once at the end.  With ``wait=False`` it ends
    instead of waiting."""
    retire_above = RETIRE_SLACK
    waited = 0.0
    while True:
        while pending:
            compiled = compiler.feed(pending.popleft())
            if verify is not None:
                verify.check(compiler)
            if not compiler.retain and compiler.live_vectors > retire_above:
                # A sweep walks every tracker and vector, so sweep only
                # once the vectors have doubled since the last one: O(1)
                # a feed amortised, at most 2x the live set (plus slack)
                # resident.
                compiler.retire()
                retire_above = 2 * compiler.live_vectors + RETIRE_SLACK
            if checkpointer is not None:
                checkpointer.maybe(tailer, compiler)
            yield compiled
        got = tailer.poll(limit=LOOKAHEAD)
        if got:
            waited = 0.0
            pending.extend(got)
            continue
        status.records = tailer.records_read
        status.fed = compiler.fed
        yield None
        if tailer.drained or not wait:
            return
        waited = _producer_wait(tailer, status, poll, idle_timeout, waited)


def _settle(status, tailer, compiler, verify, checkpointer):
    """The counts of a compile that stopped (``eof`` aside)."""
    status.records = tailer.records_read
    status.fed = compiler.fed
    status.resyncs = tailer.resyncs
    status.warnings = tailer.warnings.to_dict()
    status.digest = compiler.digest()
    status.resume_verified = verify.verified if verify is not None else False
    if checkpointer is not None:
        status.checkpoints_written = checkpointer.written


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
    checkpointer, verify = _checkpoints(
        path, checkpoint_path, checkpoint_every, resume
    )
    if not pending and not tailer.drained:
        if wait:
            _await_first(tailer, pending, status, poll, idle_timeout)
        else:
            pending.extend(tailer.poll(limit=LOOKAHEAD))
    compiler = StreamCompiler(
        ruleset,
        snapshot,
        platform=tailer.platform,
        label=label if label is not None else tailer.label,
        retain=True,
        reduce=reduce,
    )
    for _ in _compiled(tailer, pending, compiler, verify, checkpointer,
                       status, poll, idle_timeout, wait):
        pass
    finished = tailer.drained and not pending
    if checkpointer is not None:
        checkpointer.write(tailer, compiler)
    _settle(status, tailer, compiler, verify, checkpointer)
    status.eof = finished
    benchmark = compiler.finish_benchmark() if finished else None
    return IngestResult(benchmark, status, tailer.position(), finished)


def _compile_process(wfd, parent, replayed, path, tailer, pending, status,
                     ruleset, snapshot, label, reduce, checkpoint_path,
                     checkpoint_every, resume, poll, idle_timeout):
    """The follow's compile process: the compile loop over a windowed
    compiler, each action's row sent to the replaying caller in
    batches of :data:`BATCH` (``(rows, more)``: ``more`` says a further
    row is already compiled), then ``(None, status)`` or ``(None,
    exception)``.  ``replayed`` is the caller's shared replay count,
    which the producer watchdog's diagnosis quotes."""
    gc.freeze()  # the caller's heap is not this process's garbage
    forkpipe.leave_cpu()
    rows = []

    def flush(more):
        if rows:
            forkpipe.send(wfd, (rows, more))
            rows.clear()

    try:
        checkpointer, verify = _checkpoints(
            path, checkpoint_path, checkpoint_every, resume
        )
        compiler = StreamCompiler(
            ruleset, snapshot, platform=tailer.platform, label=label,
            retain=False, reduce=reduce,
        )
        for compiled in _compiled(tailer, pending, compiler, verify,
                                  checkpointer, status, poll, idle_timeout):
            if compiled is None:
                flush(False)
                if os.getppid() != parent:
                    return
                status.replayed = _REPLAYED.unpack_from(replayed)[0]
                continue
            if len(rows) == BATCH:
                flush(True)
            action = compiled.action
            record = action.record
            rows.append((
                record.idx, record.tid, record.name, record.args,
                record.ret, record.err, record.t_enter, record.t_return,
                action.ann, action.predelay, compiled.preds, compiled.wait,
            ))
        compiler.retire()
        if checkpointer is not None:
            checkpointer.write(tailer, compiler)
        _settle(status, tailer, compiler, verify, checkpointer)
        status.retired = compiler.retired
        status.live_vectors = compiler.live_vectors
        status.eof = True
        outcome = status
    except Exception as exc:
        outcome = exc
    forkpipe.send(wfd, (None, outcome))


def _compiled_action(row):
    """A row of the compile process as the replay's
    :class:`~repro.stream.compile.CompiledAction`."""
    record = TraceRecord(*row[:8])
    return CompiledAction(Action(row[0], record, row[8], row[9]),
                          row[10], row[11])


#: The status fields the compile process reports.
_COMPILE_FIELDS = (
    "records", "resyncs", "warnings", "digest", "retired", "live_vectors",
    "producer_waits", "checkpoints_written", "resume_verified", "eof",
)


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

    if ruleset is None:
        ruleset = RuleSet.artc_default()
    if label is None:
        label = tailer.label
    run = FollowRun(ruleset, fs, config, roster, platform=tailer.platform,
                    label=label, reduce=reduce)
    status.window_cap = window
    replayed_slot = mmap.mmap(-1, _REPLAYED.size)
    parent = os.getpid()
    pid, source = forkpipe.fork_child(
        lambda wfd: _compile_process(
            wfd, parent, replayed_slot, path, tailer, pending, status,
            ruleset, snapshot, label, reduce, checkpoint_path,
            checkpoint_every, resume, poll, idle_timeout,
        ),
        capacity=PIPE_BYTES,
    )
    rows = deque()
    more = False
    compiled = None  # the compile process's final status

    def receive(block):
        """Take the compile process's next message: rows (True), or
        its end (False, or its exception raised).  Without ``block``
        only a message the pipe already holds."""
        nonlocal more, compiled
        if compiled is not None or not (block or source.ready()):
            return False
        try:
            batch, payload = source.get()
        except EOFError:
            raise ReplayError(
                "follow compile process (pid %d) exited without a result"
                % pid
            ) from None
        if batch is None:
            if isinstance(payload, BaseException):
                raise payload
            compiled = payload
            return False
        rows.extend(batch)
        more = payload
        status.records += len(batch)
        return True

    def account(replayed):
        """Bring the status up to date.  Within one pull nothing
        completes, so the window only grows during a pull: its end is
        the pull's high water."""
        status.fed = run.fed
        status.replayed = replayed
        status.window = live = run.fed - replayed
        if live > status.window_high_water:
            status.window_high_water = live

    def pull(queue):
        """Feed rows in trace order until ``queue`` holds an action,
        then top the window up to the cap with rows already sent.  Runs
        inside the pulling thread's engine step, so simulated time
        stands still however long the producer takes.  False when the
        input ended first."""
        replayed = run.replayed
        _REPLAYED.pack_into(replayed_slot, 0, replayed)
        try:
            while not queue:
                if not rows and not receive(block=True):
                    return False
                if run.fed - replayed >= window:
                    status.cap_overrides += 1
                run.feed(_compiled_action(rows.popleft()))
            room = window - (run.fed - replayed)
            while room > 0 and (rows or receive(block=False)):
                run.feed(_compiled_action(rows.popleft()))
                room -= 1
            if room <= 0 and (rows or more):
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
        forkpipe.reap(pid, kill=True)
        source.close()
        replayed_slot.close()

    # Every thread ran until a pull saw the compile process's end, so
    # its status is in (unless the replay deadlocked: finalize raises).
    report = run.finalize()
    status.fed = run.fed
    status.replayed = run.replayed
    status.window = run.fed - run.replayed
    for name in _COMPILE_FIELDS:
        setattr(status, name, getattr(compiled, name))
    obs = of_engine(fs.engine)
    if obs is not None:
        export_stream_metrics(obs, status)
    return report, status
