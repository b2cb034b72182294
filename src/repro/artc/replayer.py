"""The ARTC replayer and the three baseline replay strategies.

Replay enforcement mirrors section 4.3.3: thread sequencing is
implicit -- one replay thread per traced thread, each looping over its
own actions in trace order -- and cross-thread dependencies are
enforced before each action issues.  That loop exists twice, and only
twice:

- :meth:`_ReplayRun._precompiled_thread`, the flattened hot path: it
  interprets execution-plan IR entries (:mod:`repro.artc.planir`) with
  the scoreboard's gate check and release loop inlined, and is the only
  code outside :mod:`repro.artc.codegen` that dispatches on entry kinds;
- :meth:`_ReplayRun._dynamic_thread`: ordering hook ->
  :meth:`_ReplayRun._play_one` -> finish hook, for everything the
  precompiled kernel does not cover (the events core, timed replay,
  attached observability, hardening).

What differs between runs is *data* chosen once per run, not another
copy of the loop:

- an action **feed** -- a list (batch, or one shard's subset), or for
  ``--follow`` an iterator over a queue still being filled that, when
  it runs dry, pulls the thread's next compiled actions inline before
  handing one back (:mod:`repro.stream.replay`);
- an **ordering policy** -- *scoreboard*: integer pending-predecessor
  counters over the (reduced) dependency graph, one
  :class:`~repro.sim.events.Gate` per thread, a thread parks once and
  is woken exactly once when its counter hits zero (an all-zero
  scoreboard is the single-threaded and unconstrained baselines);
  *events*: the paper's literal mechanism and the differential-testing
  oracle, a one-shot event per action that waiters block on -- kept an
  independent mechanism on purpose; *temporal*: the events machinery
  over the trace's issue order and completed-before-issue prefix; plus
  the shard core's cross-shard consume/produce flag tables
  (:mod:`repro.artc.shardcore`), empty for every other run;
- **observer / degrade hooks** resolved at construction, so a run with
  observability off carries no instrumentation branches.

``ReplayConfig(core=...)`` selects ``"auto"`` (scoreboard whenever
supported), ``"scoreboard"``, ``"jit"`` (the scoreboard with the
interpretation specialized away into generated straight-line code),
``"events"``, or ``"shard"``.  Which core supports which feature -- and
what an unsupported combination says when it refuses -- is the
:data:`CAPABILITIES` table below; the replayer, the shard and follow
entry points, ``artc serve`` and the CLI all read it.  All cores
enforce the same partial order and produce identical reports.

Timing modes: AFAP ignores inter-call gaps; natural-speed sleeps each
action's *predelay* (the gap attributable to computation); a numeric
scale multiplies predelay (e.g. CPU-speed correction).
"""

from collections import namedtuple

from repro.core.analysis import completed_before_issue, find_cycle, thread_sequenced
from repro.core.modes import ReplayMode
from repro.errors import MachineCrashed, ReplayAborted, ReplayError
from repro.artc import planir
from repro.artc.report import ActionResult, ReplayReport, ReplayWarning
from repro.obs.context import of_engine
from repro.sim.events import Delay, Event, Gate, WaitEvent
from repro.syscalls.emulation import DEFAULT_OPTIONS
from repro.syscalls.execute import ExecContext, perform
from repro.syscalls.registry import spec_for

#: Valid ``ReplayConfig.core`` selections.
REPLAY_CORES = ("auto", "scoreboard", "events", "jit", "shard")


# -- the core x feature capability table ----------------------------------


#: One (core, feature) cell.  ``outcome`` is what the core does with a
#: request carrying the feature; a ``NO`` cell also holds the
#: :class:`ReplayError` ``message``.  ``cli`` is the line ``artc replay``
#: prints (exit status 2) where it pre-checks the cell itself.
#: ``jobs_only`` cells refuse only a ``jobs > 1`` run (``jobs=1`` is the
#: single-process fallback).
Cell = namedtuple(
    "Cell", "outcome message cli jobs_only", defaults=(None, None, False)
)

#: Cell outcomes: refused; on the core's native path; supported on the
#: dynamic kernel; "auto" hands the run to the events core; ``--follow``
#: ingests to the end of the trace, then replays batch.
NO, YES, DYNAMIC, EVENTS, DEFERRED = "no", "yes", "dynamic", "events", "deferred"

_RERUN = "; rerun with --jobs 1 for the single-process fallback"
_yes, _dyn, _evt, _def = Cell(YES), Cell(DYNAMIC), Cell(EVENTS), Cell(DEFERRED)
_temporal = Cell(NO, "%(core)s core does not support temporal replay")
_hardened = Cell(
    NO,
    "%(core)s core does not support hardened or crash-recovery-resumed replay",
)
_one_proc = Cell(
    NO,
    'jobs > 1 requires the shard core (core="shard"); '
    "the %(core)s core is single-process",
    cli="--jobs %(jobs)d requires --core shard (the %(core)s core is "
    "single-process); rerun with --jobs 1",
)
_sh_fault = Cell(
    NO,
    "shard core does not support fault injection with jobs > 1" + _RERUN,
    cli="--jobs %(jobs)d does not combine with fault injection or "
    "--crash-at: fault state is process-global" + _RERUN,
    jobs_only=True,
)
_sh_mode = Cell(
    NO,
    "shard core does not support %(mode)s replay with jobs > 1 "
    "(partitioning needs the ARTC dependency graph)" + _RERUN,
    jobs_only=True,
)
_sh_seq = Cell(
    NO,
    "shard core does not support program_seq replay with jobs > 1" + _RERUN,
    jobs_only=True,
)
_sh_follow = Cell(
    DEFERRED,
    cli="--follow does not combine with --jobs/--core shard: "
    "live ingestion is inherently single-process; rerun "
    "with --jobs 1, or shard the finished trace",
)

# One column per entry of REPLAY_CORES.  Rows are checked top to bottom,
# so a request carrying several unsupported features always reports the
# same one (``jobs`` first: ReplayConfig checks it at construction).
# ``jobs`` is ``jobs > 1``, ``resume`` crash-recovery resume/reopen,
# ``mode`` any non-ARTC mode, ``follow`` live ``--follow``, ``timed``
# natural, scaled or jittered timing.
_TABLE = (
    # feature       auto       scoreboard  events     jit        shard
    ("jobs",        _one_proc, _one_proc,  _one_proc, _one_proc, _yes),
    ("temporal",    _evt,      _temporal,  _yes,      _temporal, _temporal),
    ("harden",      _evt,      _hardened,  _yes,      _hardened, _hardened),
    ("resume",      _evt,      _hardened,  _yes,      _hardened, _hardened),
    ("faults",      _yes,      _yes,       _yes,      _yes,      _sh_fault),
    ("mode",        _yes,      _yes,       _yes,      _yes,      _sh_mode),
    ("program_seq", _yes,      _yes,       _yes,      _yes,      _sh_seq),
    ("follow",      _yes,      _yes,       _def,      _def,      _sh_follow),
    ("obs",         _dyn,      _dyn,       _yes,      _dyn,      _dyn),
    ("timed",       _dyn,      _dyn,       _yes,      _dyn,      _dyn),
)

#: Feature names, in refusal-precedence order.
FEATURES = tuple(row[0] for row in _TABLE)

#: ``CAPABILITIES[core][feature]`` -> :class:`Cell`.
CAPABILITIES = {
    core: {row[0]: row[1 + column] for row in _TABLE}
    for column, core in enumerate(REPLAY_CORES)
}

#: Cores that replay inside the calling process (their ``jobs`` cell
#: refuses) -- the ones an ``artc serve`` worker accepts.
SINGLE_PROCESS_CORES = tuple(
    core for core in REPLAY_CORES if CAPABILITIES[core]["jobs"].outcome == NO
)


def request_features(config, benchmark=None, fs=None, follow=False):
    """The :data:`FEATURES` one replay request carries, in table order."""
    present = {
        "temporal": config.mode == ReplayMode.TEMPORAL,
        "harden": config.harden is not None,
        "resume": bool(config.resume_completed or config.reopen_actions),
        "faults": fs is not None and getattr(fs.stack, "faults", None) is not None,
        "mode": config.mode != ReplayMode.ARTC,
        "program_seq": benchmark is not None and benchmark.graph.program_seq,
        "follow": follow,
        "jobs": config.jobs > 1,
        "obs": fs is not None and of_engine(fs.engine) is not None,
        "timed": config.timing != "afap" or bool(config.jitter),
    }
    return [feature for feature in FEATURES if present[feature]]


def resolve(config, features):
    """The outcomes ``config.core`` answers a request carrying
    ``features`` with; raises the first refusing cell's message."""
    outcomes = set()
    for feature in features:
        cell = CAPABILITIES[config.core][feature]
        if cell.outcome == NO and (config.jobs > 1 or not cell.jobs_only):
            raise ReplayError(cell.message % vars(config))
        outcomes.add(cell.outcome)
    return outcomes


# Platforms spell some errors differently; a replayed failure with the
# target's spelling of the traced errno is semantically correct.
_ERRNO_ALIASES = {
    "ENOATTR": "ENODATA",  # BSD/Darwin vs Linux missing-xattr
    "ENODATA": "ENODATA",
}


def _nothing(idx):
    """No-op issue hook: scoreboard runs have no per-action events."""


def _errno_equivalent(replay_err, trace_err):
    if replay_err == trace_err:
        return True
    if replay_err is None or trace_err is None:
        return False
    return _ERRNO_ALIASES.get(replay_err, replay_err) == _ERRNO_ALIASES.get(
        trace_err, trace_err
    )


class ReplayConfig(object):
    """Knobs for one replay run.

    - ``mode``: one of :class:`~repro.core.modes.ReplayMode`.
    - ``timing``: ``"afap"``, ``"natural"``, or a float predelay scale.
    - ``jitter``: uniform-random extra delay (seconds) added per action;
      used to explore race outcomes of the unconstrained baseline
      across seeds.
    - ``emulation``: cross-platform emulation options.
    - ``o_excl_fix``: replay trace-successful O_CREAT|O_EXCL opens
      without O_EXCL (the paper's workaround for the iTunes traces'
      missing-detail inconsistencies).
    - ``reduced_deps``: wait on the compiler's transitively-reduced
      predecessor sets when the benchmark carries them (the replay
      fast path); ``False`` forces the full per-edge wait sets.
    - ``core``: dependency-enforcement core.  ``"auto"`` picks the
      scoreboard wherever the :data:`CAPABILITIES` table lets it and
      hands the rest (hardening, crash-recovery resume, temporal mode)
      to the per-action event machinery; ``"scoreboard"`` / ``"jit"``
      / ``"events"`` force one core (a refusing cell raises).  The
      precompiled kernel and the JIT's generated bodies need AFAP
      timing and no attached observability; scoreboard and JIT runs
      quietly take the equivalent dynamic kernel otherwise.
      ``"shard"`` (:mod:`repro.artc.shardcore`) partitions the action
      set by resource affinity and replays the shards in ``jobs``
      forked worker processes; ``"auto"`` never selects it.
    - ``jobs``: worker-process count for the shard core.  ``jobs > 1``
      requires ``core="shard"``; every other core is single-process.
    - ``harden``: a :class:`~repro.faults.harden.HardenConfig` enabling
      transient-EIO retry, the deadlock watchdog, and graceful
      degradation (None = the classic brittle replayer).
    - ``resume_completed``: action indices already completed by an
      earlier (crashed) phase; their events are pre-fired and they are
      not re-executed (crash/recovery replay).
    - ``reopen_actions``: fd-creating action indices to silently
      re-issue before the measured window, rebuilding descriptor state
      a crash destroyed.
    """

    def __init__(
        self,
        mode=ReplayMode.ARTC,
        timing="afap",
        jitter=0.0,
        emulation=DEFAULT_OPTIONS,
        o_excl_fix=True,
        suppress_warnings=(),
        reduced_deps=True,
        harden=None,
        resume_completed=(),
        reopen_actions=(),
        core="auto",
        jobs=1,
    ):
        if mode not in ReplayMode.ALL:
            raise ReplayError("unknown replay mode %r" % (mode,))
        if not (timing in ("afap", "natural") or isinstance(timing, (int, float))):
            raise ReplayError("timing must be 'afap', 'natural', or a scale")
        if core not in REPLAY_CORES:
            raise ReplayError(
                "unknown replay core %r (choose from %s)"
                % (core, ", ".join(REPLAY_CORES))
            )
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ReplayError("jobs must be a positive integer")
        self.core = core
        self.jobs = jobs
        self.mode = mode
        if jobs > 1:
            resolve(self, ("jobs",))
        self.timing = timing
        self.jitter = jitter
        self.emulation = emulation
        self.o_excl_fix = o_excl_fix
        self.reduced_deps = reduced_deps
        self.harden = harden
        self.resume_completed = frozenset(resume_completed)
        self.reopen_actions = tuple(reopen_actions)
        # Warning kinds to drop (the paper: ARTC "sometimes suppresses
        # them in cases such as this" -- known-benign nonconformance).
        self.suppress_warnings = frozenset(suppress_warnings)

    def replace(self, **overrides):
        """A copy with ``overrides`` applied.  Every other field rides
        along (attribute names are the constructor's), so a field added
        later cannot be silently dropped by a hand-written copy."""
        fields = dict(vars(self))
        fields.update(overrides)
        return ReplayConfig(**fields)


class _ReplayRun(object):
    def __init__(self, benchmark, fs, config):
        self.benchmark = benchmark
        self.fs = fs
        self.engine = fs.engine
        self.config = config
        self.ctx = ExecContext(fs)
        self.report = ReplayReport(config.mode, benchmark.label)
        self.source = benchmark.platform
        self.target = fs.platform
        # Hardening state (repro.faults.harden).
        self._harden = config.harden
        self._exec = (
            self._execute if self._harden is None else self._execute_hardened
        )
        self._poisoned = set()
        # Crash/recovery resume: completed actions count as done.
        self._reopening = False
        self._resumed = config.resume_completed
        # AFAP with no jitter issues every action back-to-back; skip the
        # per-action timing generator entirely on that (dominant) path.
        self._afap = config.timing == "afap" and not config.jitter
        mode = config.mode
        # The order this run enforces: whether one replay thread plays
        # every action in trace order, and which of the graph's
        # predecessor lists each action waits on.
        self._serial, self._which = planir.enforced_order(
            benchmark.graph, mode, config.reduced_deps
        )
        # Core and kernel, read off the capability table: hardening
        # (retry/degrade poisoning, pre-fired resume events) and the
        # temporal mode's completed-before-issue relation need
        # per-action events; timed replay and attached observability
        # take the dynamic kernel (the precompiled one has no predelay
        # generator and no instrumentation sites).
        outcomes = resolve(config, request_features(config, benchmark, fs))
        self.scoreboard = config.core != "events" and EVENTS not in outcomes
        self._fast = self.scoreboard and DYNAMIC not in outcomes
        # The JIT core drives trace-specialized generated bodies in
        # place of the precompiled kernel, and shares its fallback.
        self._jit = config.core == "jit" and self._fast
        self._exec_plan = None
        self._meta_delay = Delay(fs.stack.META_CPU)
        self._processes = []
        # Cross-shard flag tables (action idx -> flag offset).  Only a
        # shard worker fills them (repro.artc.shardcore), and supplies
        # the _cross_gate/_publish the kernels then call.
        self._consume = self._produce = {}
        # Repeated warnings of one (kind, syscall) pair collapse onto
        # the first emission; the count is suffixed after the run.
        self._warn_seen = {}
        # Observability (repro.obs): ``None`` disables every site.
        self._obs = of_engine(self.engine)
        if self._obs is not None:
            metrics = self._obs.metrics
            self._spans = self._obs.spans
            self._c_actions = metrics.counter("replay.actions")
            self._c_waits = metrics.counter("replay.dep_waits")
            self._h_dep_wait = metrics.histogram("replay.dep_wait_seconds")
            self._h_latency = metrics.histogram("replay.action_latency_seconds")
            self._c_sb_dispatch = metrics.counter("replay.scoreboard.dispatches")
            self._c_sb_wakeups = metrics.counter("replay.scoreboard.wakeups")
        # The dynamic kernel's hooks, resolved here so a run with
        # observability off carries no instrumentation branches.
        observed = self._obs is not None
        self._stall = self._stall_observed if observed else self._stall_plain
        degrade = self._harden is not None and self._harden.degrade
        self._play = self._play_or_skip if degrade else self._play_one
        if self.scoreboard:
            self.done_events = None
            self.issue_events = None
            self._ready = self._sb_ready
            self._mark_issued = _nothing
            self._finish = self._sb_complete_counted if observed else self._sb_complete
        else:
            n = len(benchmark.actions)
            self.done_events = [Event() for _ in range(n)]
            self.issue_events = [Event() for _ in range(n)]
            temporal = mode == ReplayMode.TEMPORAL
            self._ready = self._temporal_ready if temporal else self._events_ready
            self._mark_issued = self._mark_issued_events
            self._finish = self._finish_events
            # action idx -> the (waiting action, thread gate) pairs
            # parked on its completion (not the temporal mode's waits).
            self._parked = {}
            self._ev_gates = {tid: Gate() for tid in benchmark.threads}
            for idx in self._resumed:
                self.done_events[idx].set()
                self.issue_events[idx].set()

    # -- argument translation -------------------------------------------

    def _translate(self, action):
        args = planir.static_args(action, self.config.o_excl_fix)
        if args is action.record.args:
            args = dict(args)  # the remap below writes into it
        fd_map = self.ctx.fd_map
        for holder, generation in planir.fd_sites(args, action.ann):
            key = (holder["fd"], generation)
            if key in fd_map:
                holder["fd"] = fd_map[key]
            else:
                holder["fd"] = self._unmapped_fd(holder["fd"])
        if self._reopening and isinstance(args.get("flags"), str):
            # Recovery's reopen pass re-issues an open that may have
            # carried O_TRUNC; the truncation already happened before
            # the crash, and repeating it would zero recovered data.
            kept = [p for p in args["flags"].split("|") if p != "O_TRUNC"]
            args["flags"] = "|".join(kept) or "O_RDONLY"
        return args

    def _unmapped_fd(self, raw):
        """The descriptor a trace fd with no recorded mapping replays
        as: the raw number, passed through."""
        return raw

    def _update_maps(self, action, ret, err):
        planir.update_fd_map(self.ctx.fd_map, action, ret, err)

    # -- execution --------------------------------------------------------

    def _perform(self, action):
        """Translate and run one action's step plan, with no outcome
        assessment.  Returns ``(ret, err, performed)``; ``performed``
        is False when emulation planned nothing (always a match)."""
        record = action.record
        tid = record.tid
        args = self._translate(action)
        plan = planir.step_plan(
            action, args, self.source, self.target, self.config.emulation
        )
        if not plan:
            if not self.engine.advance(self._meta_delay.seconds):
                yield self._meta_delay
            return 0, None, False
        try:
            for step_name, step_args in plan:
                ret, err = yield from self._step(tid, step_name, step_args)
                if err is not None:
                    break
        except self.fs.FAILURES as exc:
            ret, err = yield from self.fs.failed(exc)
        self._update_maps(action, ret, err)
        return ret, err, True

    def _step(self, tid, name, args):
        """One emulation step's op generator."""
        return perform(self.ctx, tid, name, args)

    def _execute(self, action):
        ret, err, performed = yield from self._perform(action)
        matched = self._assess(action, ret, err) if performed else True
        return ret, err, matched

    def _execute_hardened(self, action):
        """:meth:`_execute` plus the hardening mechanisms: capped
        exponential-backoff retry on transient EIO (only for actions
        the trace saw succeed), and poisoning for graceful degradation."""
        record = action.record
        retry = self._harden.retry
        ret, err, performed = yield from self._perform(action)
        if retry is not None and record.ok and performed:
            attempt = 0
            while err == "EIO" and attempt < retry.max_attempts:
                backoff = retry.backoff(attempt)
                if not self.engine.advance(backoff):
                    yield Delay(backoff)
                attempt += 1
                self.report.retries += 1
                if self._obs is not None:
                    self._obs.metrics.counter("replay.retries").inc()
                ret, err, performed = yield from self._perform(action)
            if attempt and err is None:
                self.report.retries_recovered += 1
        matched = self._assess(action, ret, err) if performed else True
        if self._harden.degrade and record.ok and err is not None:
            self._poisoned.add(action.idx)
        return ret, err, matched

    def _assess(self, action, ret, err):
        """Compare one executed action's outcome against the trace,
        emitting nonconformance warnings; returns ``matched``."""
        record = action.record
        if record.ok:
            matched = err is None
            if not matched:
                self._warn(
                    record, ReplayWarning.UNEXPECTED_FAILURE,
                    "%s failed with %s (succeeded in trace)" % (record.name, err),
                )
            elif spec_for(record.name).reads:
                # Return-value similarity (section 4.3.3): a short read
                # means the replay saw a smaller file than the trace
                # did -- an ordering problem the file-size dependency
                # refinement exists to prevent.
                matched = ret == record.ret
                if not matched:
                    self._warn(
                        record, ReplayWarning.SHORT_READ,
                        "%s returned %r, trace had %r"
                        % (record.name, ret, record.ret),
                    )
        else:
            matched = _errno_equivalent(err, record.err)
            if not matched:
                if err is None:
                    self._warn(
                        record, ReplayWarning.UNEXPECTED_SUCCESS,
                        "%s succeeded (failed with %s in trace)"
                        % (record.name, record.err),
                    )
                else:
                    self._warn(
                        record, ReplayWarning.WRONG_ERRNO,
                        "%s failed with %s, trace had %s"
                        % (record.name, err, record.err),
                    )
        return matched

    def _warn(self, record, kind, message):
        if self._obs is not None:
            self._obs.metrics.counter("replay.warnings.%s" % kind).inc()
            self._spans.instant(
                kind, "warning", "T%s" % record.tid, self.engine.now,
                args={"idx": record.idx, "call": record.name},
            )
        if kind in self.config.suppress_warnings:
            return
        key = (kind, record.name)
        first = self._warn_seen.get(key)
        if first is not None:
            first.count += 1
            return
        warning = ReplayWarning(record.idx, kind, message, call=record.name)
        self._warn_seen[key] = warning
        self.report.warn(warning)

    def _timing_delay(self, action):
        timing = self.config.timing
        if timing == "afap":
            pre = 0.0
        elif timing == "natural":
            pre = action.predelay
        else:
            pre = action.predelay * float(timing)
        if self.config.jitter:
            pre += self.engine.rng.random() * self.config.jitter
        if pre > 0 and not self.engine.advance(pre):
            yield Delay(pre)

    def _play_one(self, action):
        if not self._afap:
            yield from self._timing_delay(action)
        self._mark_issued(action.idx)
        issue = self.engine.now
        ret, err, matched = yield from self._exec(action)
        done = self.engine.now
        self.report.add(
            ActionResult(
                action.idx,
                action.record.tid,
                action.record.name,
                issue,
                done,
                ret if isinstance(ret, (int, float)) else 0,
                err,
                matched,
            )
        )
        if self._obs is not None:
            self._c_actions.inc()
            self._h_latency.observe(done - issue)
            args = {"idx": action.idx}
            if err is not None:
                args["err"] = err
            if not matched:
                args["mismatch"] = True
            self._spans.record(
                action.record.name, "syscall",
                "T%s" % action.record.tid, issue, done, args,
            )
        self._finish(action.idx)

    def _mark_issued_events(self, idx):
        if not self.issue_events[idx].is_set:
            self.issue_events[idx].set()

    def _finish_events(self, idx):
        self.done_events[idx].set()
        parked = self._parked.pop(idx, None)
        if parked:
            for gate in planir.wake_order(parked):
                gate.open()

    def _skip(self, action):
        """Graceful degradation: record a poisoned action as skipped
        (it still fires its completion event so waiters proceed)."""
        now = self.engine.now
        self._mark_issued(action.idx)
        self.report.add(
            ActionResult(
                action.idx, action.record.tid, action.record.name,
                now, now, 0, None, True, skipped=True,
            )
        )
        self._poisoned.add(action.idx)
        if self._obs is not None:
            self._obs.metrics.counter("replay.skipped").inc()
            self._spans.instant(
                "skipped", "warning", "T%s" % action.record.tid, now,
                args={"idx": action.idx, "call": action.record.name},
            )
        self._finish(action.idx)

    # -- ordering policies ---------------------------------------------------
    #
    # A policy is a ``ready(action, tid)`` predicate -- None when the
    # action may issue, else the effect to park on before asking again
    # -- plus the ``_finish`` hook that publishes a completion.

    def _setup_scoreboard(self, which):
        """The scoreboard over the graph's ``which`` lists: one
        pending-predecessor counter and successor list per action, one
        gate per thread.  Only the counters and gates are this run's."""
        counts, self._sb_succs, self._sb_tid = planir.order_tables(self.benchmark, which)
        self._sb_pending = counts[:]
        self._sb_gates = {tid: Gate() for tid in self.benchmark.threads}
        # tid -> action idx that thread is currently parked on.
        self._sb_waiting = {}

    def _sb_ready(self, action, tid):
        """Scoreboard ordering: park on the thread's gate while the
        action has unfinished predecessors (the gate opens exactly
        once, when the counter hits zero)."""
        idx = action.idx
        if self._sb_pending[idx]:
            self._sb_waiting[tid] = idx
            return self._sb_gates[tid]

    def _sb_complete(self, idx):
        """Scoreboard completion: decrement each successor's counter
        and ring the owning thread's gate when one becomes ready (the
        reference release; the precompiled kernel inlines the same
        loop).  Returns the number of gates rung."""
        return len(planir.release_serial(
            self._sb_pending, self._sb_waiting, self._sb_gates,
            self._sb_succs[idx], self._sb_tid,
        ))

    def _sb_complete_counted(self, idx):
        """:meth:`_sb_complete` with dispatch accounting (the finish
        hook when an observability context is attached)."""
        self._c_sb_dispatch.inc(len(self._sb_succs[idx]))
        self._c_sb_wakeups.inc(self._sb_complete(idx))

    def _events_ready(self, action, tid):
        """Events ordering: park on the first predecessor whose
        completion event has not fired (fired events never touch the
        engine); its completion wakes what it finds parked in
        :func:`planir.wake_order`, then each re-checks."""
        done_events = self.done_events
        for dep in self._preds[action.idx]:
            if not done_events[dep]._fired:
                gate = self._ev_gates[tid]
                self._parked.setdefault(dep, []).append((action.idx, gate))
                return gate

    def _temporal_prepare(self):
        """Precompute the completed-before-issue relation.

        Temporally-ordered replay preserves the trace's observed
        ordering without allowing any new reordering: an action is
        issued only after (a) every earlier action has been *issued*
        and (b) every action that had *completed* before this action's
        issue during tracing has completed during replay."""
        self._comp_order, self._prefix_of = completed_before_issue(
            self.benchmark.actions
        )
        self._frontier = 0

    def _temporal_ready(self, action, tid):
        """Temporal ordering: the previous action (trace order) has
        issued, and the completed-before-issue prefix has completed.
        ``_frontier`` is shared: everything below it is known done."""
        idx = action.idx
        if idx > 0:
            event = self.issue_events[idx - 1]
            if not event.is_set:
                return WaitEvent(event)
        done_events = self.done_events
        order = self._comp_order
        prefix = self._prefix_of[idx]
        while self._frontier < prefix:
            event = done_events[order[self._frontier]]
            if not event.is_set:
                return WaitEvent(event)
            self._frontier += 1

    # -- the dynamic kernel's hooks ------------------------------------------

    def _stall_plain(self, effect, action, tid):
        """Park on ``effect`` (and whatever the ordering policy names
        next) until the action may issue; returns the wait count."""
        ready = self._ready
        waits = 0
        while effect is not None:
            waits += 1
            yield effect
            effect = ready(action, tid)
        return waits

    def _stall_observed(self, effect, action, tid):
        """:meth:`_stall_plain` with dependency-wait accounting: a
        metric per blocking wait and a span per stall."""
        engine = self.engine
        wait_start = engine.now
        self._c_waits.inc((yield from self._stall_plain(effect, action, tid)))
        stalled = engine.now - wait_start
        self._h_dep_wait.observe(stalled)
        if stalled > 0:
            self._spans.record(
                "dep-wait", "wait", "T%s" % action.record.tid,
                wait_start, engine.now, args={"before": action.idx},
            )

    def _play_or_skip(self, action):
        """Graceful degradation: if any dependency is poisoned (failed
        unexpectedly or was itself skipped), record-and-skip instead
        of executing against corrupted state."""
        poisoned = self._poisoned
        if poisoned and any(dep in poisoned for dep in self._preds[action.idx]):
            self._skip(action)
        else:
            yield from self._play_one(action)

    # -- the two kernels -----------------------------------------------------
    #
    # The dynamic kernel re-derives translation, emulation and binding
    # per action per replay; the precompiled kernel interprets the
    # execution-plan IR (:mod:`repro.artc.planir`), where all of that
    # but the runtime fd remap was decided once per benchmark and key.

    def _dynamic_thread(self, feed, tid):
        """The dynamic kernel: ordering hook -> :meth:`_play_one` (or
        the degrade hook around it) -> finish hook, per action of
        ``feed``.  A shard worker's cross-shard gate precedes, and its
        flag publication follows, the actions its tables name."""
        ready = self._ready
        stall = self._stall
        play = self._play
        consume = self._consume
        produce = self._produce
        for action in feed:
            if consume and action.idx in consume:
                yield self._cross_gate(action.idx)
            effect = ready(action, tid)
            if effect is not None:
                yield from stall(effect, action, tid)
            yield from play(action)
            if produce and action.idx in produce:
                self._publish(action.idx)

    def _precompiled_thread(self, feed, tid):
        """The precompiled kernel: :meth:`_dynamic_thread` for
        scoreboard runs at AFAP with nothing attached, flattened.  It
        interprets plan-IR entries directly, with the gate check, the
        action execution, the report row and the completion broadcast
        (:meth:`_sb_complete`) all inlined: at replay rates a generator
        frame per action -- and the extra delegation level it adds to
        every engine resume -- is measurable.  A step's call was bound
        when its entry was built, so the kernel calls the file system
        directly; only the remapped descriptor is filled in here, and a
        call that raises is converted by ``fs.failed`` around the whole
        dispatch (a failing step ends a multi-step entry).
        Entry kinds are tested in measured frequency order (fd-remapped
        single steps dominate real traces, static single steps next)."""
        pending = self._sb_pending
        succs = self._sb_succs
        sb_tid = self._sb_tid
        gates = self._sb_gates
        waiting = self._sb_waiting
        gate = gates.get(tid)  # the serial thread has none and never parks
        exec_plan = self._exec_plan
        engine = self.engine
        fs = self.fs
        failures = fs.FAILURES
        failed = fs.failed
        fd_map = self.ctx.fd_map
        meta_delay = self._meta_delay
        meta_cpu = meta_delay.seconds
        advance = engine.advance
        append = self.report.results.append
        consume = self._consume
        produce = self._produce
        for action in feed:
            idx = action.idx
            if consume and idx in consume:
                yield self._cross_gate(idx)
            if pending[idx]:
                waiting[tid] = idx
                yield gate
            record = action.record
            kind, payload, is_read, upd = exec_plan[idx]
            issue = engine.now
            try:
                if kind == 2:
                    method, head, tail, kwargs = payload[0]
                    fd_key = payload[2]
                    ret, err = yield from getattr(fs, method)(
                        record.tid, *head, fd_map.get(fd_key, fd_key[0]),
                        *tail, **kwargs
                    )
                elif kind == 1:
                    method, argv, kwargs = payload[0]
                    ret, err = yield from getattr(fs, method)(
                        record.tid, *argv, **kwargs
                    )
                elif kind == 0:
                    if not advance(meta_cpu):
                        yield meta_delay
                    ret, err, matched = 0, None, True
                elif kind == 3:
                    for step in payload:
                        method, argv, kwargs = step[0]
                        ret, err = yield from getattr(fs, method)(
                            record.tid, *argv, **kwargs
                        )
                        if err is not None:
                            break
                else:
                    ret, err, matched = yield from self._execute(action)
            except failures as exc:
                ret, err = yield from failed(exc)
            if 0 < kind < 4:
                if upd:
                    self._update_maps(action, ret, err)
                if record.err is None and err is None and (
                    not is_read or ret == record.ret
                ):
                    matched = True  # the overwhelmingly common conforming case
                else:
                    matched = self._assess(action, ret, err)
            append(
                ActionResult(
                    idx, record.tid, record.name, issue, engine.now,
                    ret if isinstance(ret, (int, float)) else 0, err, matched,
                )
            )
            for succ in succs[idx]:
                left = pending[succ] - 1
                pending[succ] = left
                if not left and waiting:
                    owner = sb_tid[succ]
                    if waiting.get(owner) == succ:
                        del waiting[owner]
                        gates[owner].open()
            if produce and idx in produce:
                self._publish(idx)

    # -- hardening: watchdog and stall diagnosis ----------------------------

    def _diagnose_stall(self):
        """Why is nothing completing?  Returns ``(cycle_members,
        context)``: one dependency cycle among the pending actions (if
        any) plus progress counts and the trace critical path -- the
        chain the stall is most likely sitting on."""
        completed = {r.idx for r in self.report.results} | set(self._resumed)
        pending = [
            a.idx for a in self.benchmark.actions if a.idx not in completed
        ]
        cycle = None
        if pending:
            waits = thread_sequenced(self._preds, self.benchmark.actions)
            cycle = find_cycle(waits, restrict=pending)
        context = {
            "now": self.engine.now,
            "completed": len(completed),
            "pending": len(pending),
            "pending_head": pending[:8],
        }
        try:
            from repro.obs.critpath import trace_critical_path

            path = trace_critical_path(self.benchmark)
            context["critical_path"] = {
                "length": path.length,
                "path_actions": len(path.path),
                "pending_on_path": sum(
                    1 for idx in path.path if idx not in completed
                ),
                "time_by_kind": dict(path.time_by_kind),
            }
        except Exception:  # diagnosis must never mask the stall itself
            pass
        return (cycle or []), context

    def _watchdog(self, stall):
        """Convert a wedged replay into a clean abort: if no action
        completes between two consecutive ``stall``-second wakeups, the
        run is stuck (a dead drive, a dependency cycle) and hanging
        forever helps nobody."""
        engine = self.engine
        expected = len(self.benchmark.actions) - len(self._resumed)
        last = -1
        while True:
            yield WaitEvent(engine.timer(stall))
            done = len(self.report.results)
            if done >= expected:
                return
            if done == last:
                members, context = self._diagnose_stall()
                message = (
                    "watchdog: no replay progress for %gs of simulated time"
                    " (%d/%d actions completed)" % (stall, done, expected)
                )
                if members:
                    message += "; dependency cycle: %s" % " -> ".join(
                        str(m) for m in members + members[:1]
                    )
                raise ReplayAborted(message, members=members, context=context)
            last = done

    def _reissue(self, action):
        """Recovery's reopen pass: silently re-run one fd-creating
        action to rebuild descriptor state, with no report entry and no
        nonconformance assessment."""
        self._reopening = True
        try:
            yield from self._perform(action)
        finally:
            self._reopening = False

    # -- top level -------------------------------------------------------------

    def _prepare(self):
        """Whole-benchmark tables for the resolved ordering policy, and
        the plan entries the precompiled kernel interprets.  (A
        :class:`~repro.stream.replay.FollowRun` grows the same tables
        one fed action at a time instead.)"""
        self._preds = planir.wait_lists(self.benchmark.graph, self._which)
        if self.scoreboard:
            self._setup_scoreboard(self._which)
        elif self.config.mode == ReplayMode.TEMPORAL:
            self._temporal_prepare()
        if self._fast:
            self._plan = planir.plans_for(
                self.benchmark, self.source, self.target,
                self.config.o_excl_fix, self.config.emulation,
            )
            self._exec_plan = self._plan.entries

    def _jit_body(self):
        """Thread bodies generated for this benchmark, one per tape
        (``None``: the serial one), under this run's enforced order."""
        from repro.artc import codegen

        program = codegen.program_for(
            self.benchmark, self._plan,
            *codegen.shape_of(self._serial, self._which)
        )
        return lambda feed, tid: program.threads[tid](self)

    def spawn_threads(self, feeds=None, label="replay"):
        """Spawn one replay thread per ``tid -> feed`` entry, on the
        kernel this run resolved to, without driving the engine
        (callers overlapping several runs on one engine join the
        returned processes themselves).  ``None`` keys the one serial
        thread.  Default feeds: the whole benchmark, minus actions a
        crashed earlier phase already completed."""
        if feeds is None:
            self._prepare()
            benchmark = self.benchmark
            feeds = (
                {None: benchmark.actions} if self._serial else benchmark.by_thread()
            )
            if self._resumed:
                feeds = {
                    tid: [a for a in actions if a.idx not in self._resumed]
                    for tid, actions in feeds.items()
                }
        if self._jit:
            body = self._jit_body()
        else:
            body = self._precompiled_thread if self._fast else self._dynamic_thread
        self.report.started = self.engine.now
        for tid, feed in feeds.items():
            name = "%s-single" % label if tid is None else "%s-T%s" % (label, tid)
            self._processes.append(self.engine.spawn(body(feed, tid), name=name))
        return self._processes

    def run(self):
        # Rebuild crashed-away fd state before the measured window.
        for idx in self.config.reopen_actions:
            self.engine.run_process(self._reissue(self.benchmark.actions[idx]))
        self.spawn_threads()
        harden = self._harden
        if harden is not None and harden.watchdog_stall:
            self.engine.spawn(
                self._watchdog(harden.watchdog_stall), name="replay-watchdog"
            )
        try:
            self.engine.run()
        except (MachineCrashed, ReplayAborted) as exc:
            # Attach the partial report so callers (crash recovery, the
            # CLI) can see how far the run got before re-raising.
            self._finalize()
            exc.partial_report = self.report
            raise
        self._raise_if_deadlocked()
        self._finalize()
        return self.report

    def _raise_if_deadlocked(self):
        """The engine drained with replay threads still parked: report
        them, with a dependency cycle among the pending actions if
        there is one."""
        stuck = [p.name for p in self._processes if p.alive]
        if not stuck:
            return
        message = "replay deadlocked; threads still blocked: %s" % (
            ", ".join(stuck)
        )
        members, _context = self._diagnose_stall()
        if members:
            message += "; dependency cycle: %s" % " -> ".join(
                str(c) for c in members + members[:1]
            )
        raise ReplayError(message)

    def _finalize(self):
        # The hooks are bound methods of this run: dropped, so the run
        # (and the report, file system and engine it holds) is freed
        # with its last reference, not by some later full collection.
        self._exec = self._stall = self._play = None
        self._ready = self._mark_issued = self._finish = None
        self.report.finished = max(
            (r.done for r in self.report.results), default=self.engine.now
        )
        self.report.results.sort(key=lambda r: r.idx)
        for warning in self.report.warnings:
            if warning.count > 1:
                warning.message += " [x%d]" % warning.count
        if self._obs is not None:
            metrics = self._obs.metrics
            metrics.gauge("replay.elapsed_seconds").set(self.report.elapsed)
            metrics.gauge("replay.threads").set(len(self._processes))
            if self.config.core == "jit":
                # Codegen / compile-cache statistics are process-wide
                # (programs are cached across runs); exporting them on
                # every jit-core run keeps the newest totals visible.
                from repro.artc import codegen

                for name, value in codegen.COUNTERS.items():
                    metrics.gauge("replay.jit.%s" % name).set(value)
            self._obs.collect_stack(self.fs.stack)


def replay(benchmark, fs, config=None):
    """Replay ``benchmark`` on the file system ``fs``.

    The caller is responsible for initialization
    (:mod:`repro.artc.init`) before invoking replay.  Returns a
    :class:`~repro.artc.report.ReplayReport`.
    """
    if config is None:
        config = ReplayConfig()
    if config.core == "shard":
        # Local import: shardcore builds on _ReplayRun.
        from repro.artc.shardcore import replay_sharded

        return replay_sharded(benchmark, fs, config)
    return _ReplayRun(benchmark, fs, config).run()
