"""Crash/recovery replay: kill the machine mid-replay, then resume.

``replay_with_faults`` is the orchestration entry point the CLI's
fault flags route through.  One call runs up to two replays:

1. **The faulted run.**  A fresh platform fs with the fault injector
   and durability tracker attached; a ``--crash-at`` point schedules a
   :class:`~repro.errors.MachineCrashed` at that simulated instant,
   cutting the run short with a partial report.
2. **The recovery run** (``recover=True``).  Crash recovery rebuilds a
   VFS snapshot from the blocks that actually reached the platter
   (:func:`~repro.faults.crash.recovered_snapshot`), reporting
   consistency violations; a second fs is initialized from that
   snapshot, descriptor state destroyed by the crash is silently
   rebuilt (the *reopen pass*), and the remaining action suffix
   replays against the recovered image.

With no plan and no crash point this degrades to a plain
``initialize`` + ``replay`` -- byte-identical report, same final
state -- which is the property the test suite pins down.
"""

from repro.artc import planir
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.errors import MachineCrashed
from repro.faults.crash import recovered_snapshot
from repro.faults.durability import DurabilityTracker
from repro.faults.inject import FaultInjector


class FaultedReplayResult(object):
    """Everything one faulted (possibly crashed, possibly recovered)
    replay produced."""

    def __init__(self, report):
        #: the main run's :class:`~repro.artc.report.ReplayReport`
        #: (partial when the machine crashed).
        self.report = report
        #: the recovery run's report, or None.
        self.resume_report = None
        #: simulated crash instant, or None.
        self.crashed_at = None
        #: :class:`~repro.faults.crash.ConsistencyViolation` list.
        self.violations = []
        #: the post-crash :class:`~repro.tracing.snapshot.Snapshot`.
        self.recovered = None
        #: injected :class:`~repro.faults.inject.FaultEvent` dicts.
        self.fault_events = []
        #: ``{kind: count}`` over the fault log.
        self.fault_counts = {}
        #: the durability tracker (crash runs only), for inspection.
        self.tracker = None
        #: the fs of the main run (crashed state when crashed).
        self.fs = None
        #: the fs of the recovery run, or None.
        self.resume_fs = None

    @property
    def crashed(self):
        return self.crashed_at is not None

    def summary(self):
        """The report summary, extended with fault/crash sections --
        but only when present, so a faultless run's summary is
        byte-identical to plain :func:`~repro.artc.replayer.replay`."""
        out = dict(self.report.summary())
        if self.fault_events:
            out["faults"] = {
                "events": len(self.fault_events),
                "counts": dict(self.fault_counts),
            }
        if self.crashed_at is not None:
            crash = {
                "at": self.crashed_at,
                "violations": [v.to_dict() for v in self.violations],
            }
            if self.recovered is not None:
                crash["recovered_entries"] = len(self.recovered.entries)
            if self.resume_report is not None:
                crash["resume"] = self.resume_report.summary()
            out["crash"] = crash
        return out

    def __repr__(self):
        state = "crashed@%.4f" % self.crashed_at if self.crashed else "ran"
        return "<FaultedReplayResult %s, %d faults, %d violations>" % (
            state, len(self.fault_events), len(self.violations)
        )


def _live_fd_creators(benchmark, completed):
    """Action indices whose created descriptors were still open at the
    crash -- the reopen pass re-issues exactly these (in idx order) so
    the resumed suffix finds its fds again: the creators of the slots
    a completed successful call wrote and no later completed successful
    call closed -- a close, or a dup2 over it
    (:func:`repro.artc.planir.fd_slots`)."""
    effects = planir.fd_slots(benchmark).effects
    live = {}  # slot -> creator idx
    for idx in sorted(completed):
        settle = effects[idx][1]
        if settle is not None and benchmark.actions[idx].record.ok:
            live.pop(settle[1], None)
            live.update(dict.fromkeys(settle[0], idx))
    return tuple(sorted(set(live.values())))


def replay_with_faults(
    benchmark,
    platform,
    config=None,
    plan=None,
    crash_at=None,
    recover=False,
    seed=0,
    obs=None,
):
    """Replay ``benchmark`` on a fresh fs from ``platform`` with faults.

    - ``plan``: a :class:`~repro.faults.plan.FaultPlan` (None or empty
      injects nothing and changes no outcome).
    - ``crash_at``: simulated time to kill the machine; the durability
      tracker is attached and crash recovery runs at that point.
    - ``recover``: after a crash, resume the remaining actions on a
      second fs initialized from the recovered snapshot.

    Returns a :class:`FaultedReplayResult`.
    """
    if config is None:
        config = ReplayConfig()
    injector = FaultInjector(plan) if plan is not None and plan else None
    tracker = DurabilityTracker() if crash_at is not None else None
    fs = platform.make_fs(seed=seed, obs=obs, faults=injector, tracker=tracker)
    if benchmark.snapshot is not None:
        initialize(fs, benchmark.snapshot)
    if tracker is not None:
        tracker.seed_from_fs(fs)
    if crash_at is not None:
        def _crash(_value):
            raise MachineCrashed(fs.engine.now)

        fs.engine.call_at(crash_at, _crash)
    try:
        report = replay(benchmark, fs, config)
    except MachineCrashed as crash:
        report = crash.partial_report
        report.crashed_at = crash.when
    result = FaultedReplayResult(report)
    result.fs = fs
    result.tracker = tracker
    if injector is not None:
        result.fault_events = injector.log_dicts()
        result.fault_counts = injector.counts()
    if report.crashed_at is None:
        return result
    result.crashed_at = report.crashed_at
    snapshot, violations = recovered_snapshot(fs, tracker)
    result.recovered = snapshot
    result.violations = violations
    if recover:
        completed = frozenset(r.idx for r in report.results)
        # The resumed phase needs per-action events (pre-fired for the
        # completed prefix), so whatever core ran the first phase, let
        # "auto" hand it to the events core.
        resume_config = config.replace(
            core="auto",
            jobs=1,
            resume_completed=completed,
            reopen_actions=_live_fd_creators(benchmark, completed),
        )
        # A fresh machine booted from what survived.  obs spans/metrics
        # continue on the same context so the whole story is one view.
        resume_fs = platform.make_fs(seed=seed + 1, obs=obs)
        initialize(resume_fs, snapshot)
        result.resume_fs = resume_fs
        result.resume_report = replay(benchmark, resume_fs, resume_config)
    return result
