"""Live (``--follow``) replay: the pull-fed scoreboard.

A batch replay thread iterates a complete action list; a follow
thread iterates a queue the stream compiler is still filling.  The
single divergence point is a queue that runs dry before the trace has
ended, and it is handled so that it leaves *no trace* in the
simulation: the thread's feed calls the controller's ``pull(queue)``
inline (:func:`repro.stream.follow.follow_replay`), which compiles and
feeds records in trace order until the queue holds an action.  The
pull runs inside the pulling thread's engine step, between two of its
actions, so no engine event is dispatched and no simulated time passes
while it runs -- however long the producer takes -- and the thread
continues exactly where batch replay would have continued inline.

Every other mechanism -- the two replay kernels, the per-thread gates,
pending-predecessor counters, report assembly -- is
:class:`repro.artc.replayer._ReplayRun`'s own.  A :class:`FollowRun`
owns no per-action loop: it supplies the kernels a *feed* (an iterator
over the per-thread queue that pulls when it runs dry and ends with
the input) and grows the scoreboard tables they read.  Follow replay is
therefore byte-identical to batch replay (same report, same FS state,
same simulated clock) by construction; ``tests/stream`` checks it
anyway, across modes and cores.

Scoreboard-incremental bookkeeping: feeding action ``i`` counts its
still-incomplete waits as ``pending[i]`` and registers ``i`` as a
successor of each, in wait-list order -- the same (src, dst) visit
order the batch scoreboard produces, so gate wakeups happen in the
same order and the engine's heap evolves identically.

Supported envelope: the ``follow`` row of
:data:`repro.artc.replayer.CAPABILITIES` -- the scoreboard cores
(``auto`` / ``scoreboard``), ARTC / single-threaded / unconstrained
modes, any timing, with or without attached observability.  Temporal
mode, the events and JIT cores, hardening, and crash-resume use the
deferred-start path in :mod:`repro.stream.follow` (ingest everything,
then batch replay -- still streamed ingestion, identical output, no
live overlap).
"""

from collections import deque

from repro.artc import planir
from repro.artc.replayer import _ReplayRun, ReplayError
from repro.core.deps import DependencyGraph
from repro.core.modes import ReplayMode
from repro.sim.events import Gate


class _StreamBenchmark(object):
    """The minimal benchmark-shaped shell a :class:`FollowRun` hands
    to the :class:`_ReplayRun` constructor.  It retains *no* actions
    (windowed replay owns their lifetime); batch-only affordances
    (payloads, by_thread) are absent by design."""

    content_key = None

    def __init__(self, ruleset, snapshot, platform, label, roster):
        self.actions = ()
        self.ruleset = ruleset
        self.snapshot = snapshot
        self.platform = platform
        self.label = label
        self.graph = DependencyGraph(0, program_seq=ruleset.program_seq)
        self.threads = list(roster)


class FollowRun(_ReplayRun):
    """A scoreboard replay run fed one compiled action at a time."""

    def __init__(self, ruleset, fs, config, roster, platform, label=""):
        shell = _StreamBenchmark(ruleset, None, platform, label, roster)
        _ReplayRun.__init__(self, shell, fs, config)
        if not self.scoreboard:
            raise ReplayError(
                "follow replay requires a scoreboard-core configuration"
            )
        self._artc = config.mode == ReplayMode.ARTC and not self._serial
        self._use_reduced = config.reduced_deps
        self._roster = list(roster)
        self._appeared = set()
        # One queue per replay thread (None keys the one serial thread,
        # which plays every action in trace order).
        self._queues = {
            tid: deque() for tid in ([None] if self._serial else self._roster)
        }
        self.fed = 0
        # Completion flags the incremental scoreboard consults, folded
        # in from the report rows at each pull (_retire_completed).
        self._done = []
        self._swept = 0
        # Scoreboard state, grown per fed action (built whole-graph by
        # _setup_scoreboard in batch runs).
        self._sb_pending = []
        self._sb_succs = []
        self._sb_tid = []
        self._sb_gates = {tid: Gate() for tid in self._roster}
        self._sb_waiting = {}
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self, pull):
        """Spawn the replay threads (roster order = first-appearance
        order, matching batch ``by_thread()``) over still-empty queues,
        each fed by ``pull`` whenever its queue runs dry; the engine's
        ``run`` then drives the whole replay."""
        if self._started:
            raise ReplayError("follow replay already started")
        self._started = True
        if self._fast:
            # Per-action entries compiled at feed time and freed after
            # their single use (batch precompiles the whole list).
            self._exec_plan = {}
            self._plan_key = planir.plan_key(
                self.source, self.target,
                self.config.o_excl_fix, self.config.emulation,
            )
        self.spawn_threads({
            key: self._feed(queue, pull) for key, queue in self._queues.items()
        })

    def _feed(self, queue, pull):
        """One replay thread's actions in arrival order.  ``pull(queue)``
        refills a dry queue inline and answers False once the input has
        ended first."""
        while True:
            if not queue:
                self._retire_completed()
                if not pull(queue):
                    return
            yield queue.popleft()

    def _retire_completed(self):
        """Fold the completions since the last pull into the done
        flags, and free their plan entries (each is consulted exactly
        once).  A pull runs between two actions of the pulling thread
        and nothing completes while it runs; no kernel yields between
        an action's report row and its completion broadcast.  So at a
        pull's start the report rows are the complete record of what
        has finished, and they stay so until it returns."""
        results = self.report.results
        done = self._done
        plan = self._exec_plan
        for i in range(self._swept, len(results)):
            idx = results[i].idx
            done[idx] = True
            if plan:
                plan.pop(idx, None)
        self._swept = len(results)

    def feed(self, compiled):
        """Hand one compiled action to its replay thread's queue (from
        a pull: the engine is mid-step and nothing else runs)."""
        action = compiled.action
        tid = action.record.tid
        idx = action.idx
        if tid not in self._appeared:
            # The roster must list threads in first-appearance order:
            # batch replay spawns threads in that order, and spawn
            # order decides engine scheduling.
            expected = (
                self._roster[len(self._appeared)]
                if len(self._appeared) < len(self._roster)
                else None
            )
            if tid != expected:
                raise ReplayError(
                    "trace thread %r appeared out of roster order"
                    " (roster %r expected %r next)"
                    % (tid, self._roster, expected)
                )
            self._appeared.add(tid)
        done = self._done
        succs = self._sb_succs
        pending = 0
        if self._artc:
            waits = compiled.preds
            if self._use_reduced and compiled.wait is not None:
                waits = compiled.wait
            for src in waits:
                if not done[src]:
                    pending += 1
                    succs[src].append(idx)
        done.append(False)
        succs.append([])
        self._sb_pending.append(pending)
        self._sb_tid.append(tid)
        if self._fast:
            self._exec_plan[idx] = planir.compile_entry(
                action, self._plan_key, self.config.emulation
            )
        self._queues[None if self._serial else tid].append(action)
        self.fed += 1

    @property
    def replayed(self):
        """Actions completed so far (one report row each)."""
        return len(self.report.results)

    def finalize(self):
        """Batch-identical report assembly; call after the run
        completed (or to salvage a partial report)."""
        # Reachable only if the compiled dependencies themselves are
        # cyclic (the producer wait lives in follow.py, not here).
        self._raise_if_deadlocked()
        self._finalize()
        return self.report
