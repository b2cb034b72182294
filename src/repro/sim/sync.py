"""A mutex built on one-shot events.

It mirrors the pthread mutex a traced application holds (Magritte's
save lock).  It is generator-based: ``yield from mutex.acquire()``.
"""

from collections import deque

from repro.sim.events import Event, WaitEvent


class Mutex(object):
    """A fair (FIFO) mutual-exclusion lock."""

    __slots__ = ("_locked", "_queue")

    def __init__(self):
        self._locked = False
        self._queue = deque()

    def acquire(self):
        if self._locked:
            event = Event()
            self._queue.append(event)
            yield WaitEvent(event)
        # Ownership is transferred by release(); when woken, the lock is
        # already ours.
        self._locked = True

    def release(self):
        if not self._locked:
            raise RuntimeError("release of unlocked mutex")
        if self._queue:
            # Hand off directly; stays locked.
            self._queue.popleft().set()
        else:
            self._locked = False

    @property
    def locked(self):
        return self._locked

