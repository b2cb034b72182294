"""Live (``--follow``) replay: the freeze-the-world scoreboard.

A batch replay thread iterates a complete action list; a follow
thread iterates a queue the stream compiler is still filling.  The
single divergence point is starvation -- the queue is empty but the
trace has not ended -- and it is handled so that it leaves *no trace*
in the simulation:

- the starved thread yields a :class:`~repro.sim.events.Hold`, which
  parks it outside the engine queue (nothing scheduled, no sequence
  number consumed, simulated time untouched);
- :meth:`FollowRun.advance` drives the engine with
  :meth:`~repro.sim.engine.Engine.run_while`, which stops the instant
  a dispatch parks a process, so the engine *never runs while a
  thread is starved* (at most one thread can ever be starved -- the
  world froze the moment it happened);
- once the producer delivers the thread's next action,
  :meth:`FollowRun.feed` releases the hold, resuming the generator
  synchronously -- the exact inline continuation the batch replay
  would have executed.

Every other mechanism -- the two replay kernels, the per-thread gates,
pending-predecessor counters, report assembly -- is
:class:`repro.artc.replayer._ReplayRun`'s own.  A :class:`FollowRun`
owns no per-action loop: it supplies the kernels a *feed* (an iterator
over the per-thread queue that hands back None when it runs dry, which
the kernel turns into the ``Hold``) and grows the scoreboard tables
they read.  Follow replay is
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
from repro.sim.events import Gate, Hold


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
        self._eof = False
        self._starved = None  # (queue key, Hold) while the world is frozen
        self.fed = 0
        # Completion flags the incremental scoreboard consults, folded
        # in from the report rows at each feed (_retire_completed).
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

    def start(self):
        """Spawn the replay threads (roster order = first-appearance
        order, matching batch ``by_thread()``) over still-empty
        queues.  Call once, before the first :meth:`feed`."""
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
            key: self._queue_feed(queue) for key, queue in self._queues.items()
        })

    def _queue_feed(self, queue):
        """The feed of one replay thread: its queue in arrival order,
        None whenever it has run dry before the trace ended."""
        while True:
            if queue:
                yield queue.popleft()
            elif self._eof:
                return
            else:
                yield None

    def _starve(self, key):
        """A kernel's feed ran dry: freeze the world.  The thread parks
        on the returned hold; the next :meth:`feed` for its queue
        releases it."""
        hold = Hold()
        self._starved = (key, hold)
        return hold

    def _retire_completed(self):
        """Fold the completions since the last feed into the done
        flags, and free their plan entries (each is consulted exactly
        once).  Feeds happen only while the engine is idle, so the
        report rows are the complete record of what has finished."""
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
        """Hand one compiled action to its replay thread.  Must be
        called only while the engine is idle (between
        :meth:`advance` slices); releases the starved thread when this
        is the action it is waiting for."""
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
        self._retire_completed()
        self._done.append(False)
        self._sb_tid.append(tid)
        self._sb_pending.append(0)
        self._sb_succs.append([])
        if self._artc:
            waits = compiled.preds
            if self._use_reduced and compiled.wait is not None:
                waits = compiled.wait
            pending = 0
            done = self._done
            succs = self._sb_succs
            for src in waits:
                if not done[src]:
                    pending += 1
                    succs[src].append(idx)
            self._sb_pending[idx] = pending
        if self._fast:
            self._exec_plan[idx] = planir.compile_entry(
                action, self._plan_key, self.config.emulation
            )
        key = None if self._serial else tid
        self._queues[key].append(action)
        self.fed += 1
        starved = self._starved
        if starved is not None and starved[0] == key:
            self._starved = None
            starved[1].release()

    def finish_input(self):
        """No more actions will arrive: starved threads now terminate
        instead of parking."""
        self._eof = True
        starved = self._starved
        if starved is not None:
            self._starved = None
            starved[1].release()

    def advance(self):
        """Run the simulation until a thread starves (the world
        freezes) or the engine queue drains.  Returns True while the
        run still has live threads."""
        self.engine.run_while(lambda: self._starved is None)
        return any(process.alive for process in self._processes)

    @property
    def replayed(self):
        """Actions completed so far (one report row each)."""
        return len(self.report.results)

    @property
    def complete(self):
        return self._started and not any(
            process.alive for process in self._processes
        )

    def finalize(self):
        """Batch-identical report assembly; call after the run
        completed (or to salvage a partial report)."""
        # Reachable only if the compiled dependencies themselves are
        # cyclic (the follow-aware producer wait lives in follow.py and
        # the watchdog, not here).
        self._raise_if_deadlocked()
        self._finalize()
        return self.report
