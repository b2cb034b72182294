"""Leaf effects understood by the simulation engine.

A simulated process is a generator.  Whenever it needs to block, it
yields one of the effect objects defined here; the engine resumes the
generator when the effect is satisfied.  Compound blocking operations
(e.g. a VFS ``read`` that may wait on several disk requests) are plain
generators composed with ``yield from``, so the engine only ever sees
these leaf effects.
"""


class Effect(object):
    """Base class for objects a simulated process may yield."""

    __slots__ = ()


class Delay(Effect):
    """Suspend the yielding process for ``seconds`` of simulated time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds):
        if seconds < 0:
            raise ValueError("negative delay: %r" % (seconds,))
        self.seconds = seconds

    def __repr__(self):
        return "Delay(%g)" % (self.seconds,)


class Event(object):
    """A one-shot, broadcast synchronization point.

    Processes block on an event by yielding ``WaitEvent(event)`` (or the
    event itself, as a convenience).  Once :meth:`set` is called every
    current and future waiter proceeds immediately.  Events carry an
    optional ``value`` delivered to waiters, which is how completed I/O
    requests and joined processes return results.
    """

    __slots__ = ("_fired", "value", "_waiters")

    def __init__(self):
        self._fired = False
        self.value = None
        self._waiters = []

    @property
    def is_set(self):
        return self._fired

    def set(self, value=None):
        """Fire the event, waking all waiters.  Idempotent-hostile:
        firing twice is a logic error and raises."""
        if self._fired:
            raise RuntimeError("event already fired")
        self._fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value)

    def _add_waiter(self, callback):
        if self._fired:
            callback(self.value)
        else:
            self._waiters.append(callback)

    def __repr__(self):
        state = "set" if self._fired else "pending(%d)" % len(self._waiters)
        return "<Event %s>" % state


class WaitEvent(Effect):
    """Block until ``event`` fires; the wait resumes with ``event.value``."""

    __slots__ = ("event",)

    def __init__(self, event):
        self.event = event

    def __repr__(self):
        return "WaitEvent(%r)" % (self.event,)


class Gate(Effect):
    """A reusable single-waiter wakeup latch.

    Scoreboard-style replay cores park each thread on one long-lived
    gate instead of allocating a fresh one-shot :class:`Event` per
    blocking wait: ``yield gate`` parks the process until someone calls
    :meth:`open`; an :meth:`open` with nobody parked is remembered and
    consumed by the next wait.  Unlike :class:`Event`, a gate can be
    waited on and signalled any number of times, and it never builds a
    waiter list -- it is a per-thread doorbell, not a broadcast.
    """

    __slots__ = ("_open", "_waiter")

    def __init__(self):
        self._open = False
        self._waiter = None

    def open(self):
        """Signal the gate: wake the parked process (through the engine
        queue, like an event fire), or remember the signal for the next
        wait."""
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter(None)
        else:
            self._open = True

    def _arm(self, callback):
        if self._waiter is not None:
            raise RuntimeError("gate already has a waiter")
        if self._open:
            self._open = False
            callback(None)
        else:
            self._waiter = callback

    def __repr__(self):
        if self._waiter is not None:
            state = "parked"
        elif self._open:
            state = "open"
        else:
            state = "closed"
        return "<Gate %s>" % state


def wait_all(events):
    """Generator helper: wait for every event in ``events`` (any order)."""
    for event in events:
        if not event.is_set:
            yield WaitEvent(event)
