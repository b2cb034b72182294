"""Unit tests for the simulated mutex."""

import pytest

from repro.sim import Delay, Engine, Mutex


def test_mutex_mutual_exclusion():
    engine = Engine()
    mutex = Mutex()
    active = []
    max_active = []

    def body(name):
        yield from mutex.acquire()
        active.append(name)
        max_active.append(len(active))
        yield Delay(1.0)
        active.remove(name)
        mutex.release()

    for name in range(4):
        engine.spawn(body(name))
    engine.run()
    assert max(max_active) == 1
    assert not mutex.locked


def test_mutex_fifo_handoff():
    engine = Engine()
    mutex = Mutex()
    order = []

    def body(name):
        yield from mutex.acquire()
        order.append(name)
        yield Delay(1.0)
        mutex.release()

    for name in range(3):
        engine.spawn(body(name))
    engine.run()
    assert order == [0, 1, 2]


def test_mutex_release_unlocked_raises():
    with pytest.raises(RuntimeError):
        Mutex().release()

