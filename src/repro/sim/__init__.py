"""Discrete-event simulation kernel.

Replaces the real multithreaded execution environment of the paper.
Simulated "threads" are generator coroutines driven by :class:`Engine`;
blocking operations are expressed by yielding effects (:class:`Delay`,
:class:`WaitEvent`) or by delegating to other generator-based operations
with ``yield from``.  All timing is virtual, which makes the feedback
loops the paper studies (queue depth, cache hits, scheduler slices)
deterministic and GIL-free.
"""

from repro.sim.engine import Engine, Process
from repro.sim.events import Delay, Event, WaitEvent
from repro.sim.sync import Mutex

__all__ = [
    "Engine",
    "Process",
    "Delay",
    "Event",
    "WaitEvent",
    "Mutex",
]
