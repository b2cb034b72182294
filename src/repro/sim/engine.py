"""The discrete-event engine and its process abstraction."""

import heapq
import random

from repro.errors import AbortSimulation, ProcessCrashed, SimulationError
from repro.sim.events import Delay, Effect, Event, Gate, WaitEvent

_FOREVER = float("inf")


class Process(object):
    """A simulated thread of control wrapping a generator.

    The generator yields :class:`~repro.sim.events.Effect` objects (or
    bare :class:`~repro.sim.events.Event` instances, treated as
    ``WaitEvent``).  When the generator returns, the returned value is
    stored in :attr:`result` and :attr:`done` fires with it, so other
    processes can join with ``yield proc.done``.
    """

    __slots__ = ("name", "engine", "_gen", "_send", "done", "result", "alive")

    def __init__(self, engine, gen, name):
        self.engine = engine
        self._gen = gen
        # Bound once: _step runs for every effect of every simulated
        # process, so the send attribute lookup is measurable.
        self._send = gen.send
        self.name = name
        self.done = Event()
        self.result = None
        self.alive = True

    def _step(self, value):
        engine = self.engine
        while True:
            try:
                effect = self._send(value)
            except StopIteration as stop:
                self.alive = False
                self.result = getattr(stop, "value", None)
                self.done.set(self.result)
                return
            except AbortSimulation:
                # Deliberate whole-simulation unwind (machine crash,
                # watchdog abort): propagate unchanged so the driver can
                # catch the precise type above ``engine.run``.
                self.alive = False
                raise
            except Exception as exc:  # surface crashes with context
                self.alive = False
                raise ProcessCrashed(self.name, exc) from exc
            # Backstop for a Delay no charging site fast-forwarded
            # itself (see Engine.advance): an uncontended one resumes
            # the generator right here instead of through the heap.
            if not isinstance(effect, Delay):
                break
            if not engine.advance(effect.seconds):
                engine._schedule(effect.seconds, self._step, None)
                return
            value = None
        # Dispatch order follows effect frequency: bare Events (a
        # convenience spelling of WaitEvent) are rarest.
        if isinstance(effect, WaitEvent):
            effect.event._add_waiter(self._resume_soon)
        elif isinstance(effect, Gate):
            effect._arm(self._resume_soon)
        elif isinstance(effect, Event):
            effect._add_waiter(self._resume_soon)
        elif isinstance(effect, Effect):
            raise SimulationError("engine cannot handle effect %r" % (effect,))
        else:
            raise SimulationError(
                "process %r yielded a non-effect: %r (forgot 'yield from'?)"
                % (self.name, effect)
            )

    def _resume_soon(self, value):
        # Resume at the current instant but through the event queue, so
        # that multiple waiters of one event wake in deterministic order
        # without reentrancy.
        self.engine._schedule(0.0, self._step, value)

    def close(self):
        """Abandon the process where it is parked (``done`` never
        fires): it and the event it waits on hold each other."""
        self.alive = False
        self._gen.close()

    def __repr__(self):
        state = "alive" if self.alive else "done"
        return "<Process %s (%s)>" % (self.name, state)


class Engine(object):
    """A deterministic discrete-event scheduler.

    Events at equal timestamps run in FIFO order of scheduling, which
    keeps every simulation reproducible for a given seed.  ``seed``
    feeds :attr:`rng`, the single source of randomness for jitter,
    workload content, and race exploration.
    """

    def __init__(self, seed=0, obs=None):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self._nproc = 0
        # The bound of the run(until=...) in progress; advance() must
        # not carry a process past it.
        self._until = _FOREVER
        self.rng = random.Random(seed)
        # Optional observability context (see repro.obs.context):
        # components discover it here via ``of_engine``.  ``None`` keeps
        # every instrumentation site disabled at zero cost.
        self.obs = obs

    # -- scheduling -------------------------------------------------

    def _schedule(self, delay, callback, value):
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback, value))

    def advance(self, seconds):
        """Charge ``seconds`` to the running process without the heap.

        Yielding a ``Delay`` costs a push at ``now + seconds``, a pop,
        and an unwind and re-entry of every ``yield from`` frame of the
        process -- only to set :attr:`now`.  When nothing is queued at
        or before that instant (and no bounded :meth:`run` ends before
        it) the round-trip is equivalent to setting ``now`` directly:
        no other event can run first (the guard is strict, so an
        equal-time event, which would precede the resume, forces the
        fallback) and none can be inserted (no other code runs in the
        window).  The sequence number the push would have taken is
        skipped, which cannot reorder anything: later insertions still
        get strictly increasing numbers in the same chronological
        order, and ties are broken only among them.

        Returns True when the clock moved; on False the caller yields
        the ``Delay`` and the heap orders the resume as ever::

            if not engine.advance(cost):
                yield Delay(cost)
        """
        when = self.now + seconds
        queue = self._queue
        if (queue and queue[0][0] <= when) or when > self._until:
            return False
        self.now = when
        return True

    def call_at(self, when, callback, value=None):
        """Run ``callback(value)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError("cannot schedule in the past")
        self._schedule(when - self.now, callback, value)

    def spawn(self, gen, name=None):
        """Start a new simulated process running generator ``gen``."""
        self._nproc += 1
        if name is None:
            name = "proc-%d" % self._nproc
        process = Process(self, gen, name)
        self._schedule(0.0, process._step, None)
        return process

    def timer(self, delay):
        """Return an event that fires ``delay`` seconds from now."""
        event = Event()
        self._schedule(delay, event.set, None)
        return event

    def wake_at(self, when, event):
        """Fire ``event`` at simulated time ``max(now, when)``.

        The cross-engine clock-reconciliation primitive (Lamport-style
        max): a timestamp carried in from *another* engine's clock may
        sit before or after this engine's ``now``, and a plain
        :meth:`call_at` would refuse the past.  Returns True when
        ``when`` was ahead of this clock (the receiver's clock jumped
        forward -- a reconciliation), False when local time already
        covered it.  Used by the sharded replay core at cross-shard
        completion gates.
        """
        if when > self.now:
            self._schedule(when - self.now, event.set, None)
            return True
        self._schedule(0.0, event.set, None)
        return False

    # -- execution --------------------------------------------------

    def run(self, until=None):
        """Run until the queue drains (or simulated time passes ``until``).

        Returns the final simulated time.
        """
        queue = self._queue
        pop = heapq.heappop
        if until is None:
            if self.obs is not None:
                return self._run_observed()
            # Hot path (every replay and every traced run): no bound
            # check, locals only.
            while queue:
                entry = pop(queue)
                self.now = entry[0]
                entry[2](entry[3])
            return self.now
        self._until = until
        try:
            while queue:
                when, _seq, callback, value = pop(queue)
                if when > until:
                    heapq.heappush(queue, (when, _seq, callback, value))
                    self.now = until
                    break
                self.now = when
                callback(value)
        finally:
            self._until = _FOREVER
        return self.now

    def _run_observed(self):
        """The unbounded run loop with engine-level metrics: heap
        dispatches (delays fast-forwarded by :meth:`advance` never
        reach the heap and are not counted), spawned processes, and
        final simulated time.  A separate loop so the disabled path
        stays branch-free."""
        queue = self._queue
        pop = heapq.heappop
        dispatched = 0
        while queue:
            entry = pop(queue)
            self.now = entry[0]
            entry[2](entry[3])
            dispatched += 1
        metrics = self.obs.metrics
        metrics.counter("sim.events_dispatched").inc(dispatched)
        metrics.gauge("sim.processes_spawned").set(self._nproc)
        metrics.gauge("sim.now_seconds").set(self.now)
        return self.now

    def run_process(self, gen, name=None):
        """Convenience: spawn ``gen``, run to completion, return its result."""
        process = self.spawn(gen, name)
        self.run()
        if process.alive:
            raise SimulationError(
                "process %r deadlocked: queue drained while still blocked"
                % (process.name,)
            )
        return process.result
