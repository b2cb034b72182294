"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import ProcessCrashed, SimulationError
from repro.sim import Delay, Engine, Event, WaitEvent
from repro.sim.events import wait_all


def test_time_starts_at_zero():
    assert Engine().now == 0.0


def test_delay_advances_clock():
    engine = Engine()

    def body():
        yield Delay(2.5)
        return engine.now

    assert engine.run_process(body()) == 2.5


def test_zero_delay_is_legal():
    engine = Engine()

    def body():
        yield Delay(0.0)
        return engine.now

    assert engine.run_process(body()) == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_processes_interleave_in_time_order():
    engine = Engine()
    log = []

    def body(name, delay):
        yield Delay(delay)
        log.append(name)

    engine.spawn(body("late", 3.0))
    engine.spawn(body("early", 1.0))
    engine.spawn(body("mid", 2.0))
    engine.run()
    assert log == ["early", "mid", "late"]


def test_fifo_order_at_equal_timestamps():
    engine = Engine()
    log = []

    def body(name):
        yield Delay(1.0)
        log.append(name)

    for name in "abcde":
        engine.spawn(body(name))
    engine.run()
    assert log == list("abcde")


def test_process_result_and_done_event():
    engine = Engine()

    def body():
        yield Delay(1.0)
        return 42

    process = engine.spawn(body())
    engine.run()
    assert process.result == 42
    assert not process.alive
    assert process.done.is_set
    assert process.done.value == 42


def test_join_via_done_event():
    engine = Engine()

    def worker():
        yield Delay(2.0)
        return "payload"

    def waiter(proc):
        value = yield WaitEvent(proc.done)
        return (value, engine.now)

    worker_proc = engine.spawn(worker())
    waiter_proc = engine.spawn(waiter(worker_proc))
    engine.run()
    assert waiter_proc.result == ("payload", 2.0)


def test_event_value_delivery():
    engine = Engine()
    event = Event()

    def setter():
        yield Delay(1.0)
        event.set("hello")

    def getter():
        value = yield WaitEvent(event)
        return value

    engine.spawn(setter())
    getter_proc = engine.spawn(getter())
    engine.run()
    assert getter_proc.result == "hello"


def test_wait_on_already_set_event_is_instant():
    engine = Engine()
    event = Event()
    event.set("early")

    def body():
        value = yield WaitEvent(event)
        return (value, engine.now)

    assert engine.run_process(body()) == ("early", 0.0)


def test_event_double_set_rejected():
    event = Event()
    event.set()
    with pytest.raises(RuntimeError):
        event.set()


def test_yielding_bare_event_works():
    engine = Engine()
    event = engine.timer(1.5)

    def body():
        yield event
        return engine.now

    assert engine.run_process(body()) == 1.5


def test_wait_all_any_order():
    engine = Engine()
    events = [engine.timer(3.0), engine.timer(1.0), engine.timer(2.0)]

    def body():
        yield from wait_all(events)
        return engine.now

    assert engine.run_process(body()) == 3.0


def test_crash_surfaces_with_process_name():
    engine = Engine()

    def body():
        yield Delay(1.0)
        raise ValueError("boom")

    engine.spawn(body(), name="crasher")
    with pytest.raises(ProcessCrashed) as info:
        engine.run()
    assert info.value.process_name == "crasher"
    assert isinstance(info.value.original, ValueError)


def test_yielding_garbage_is_an_error():
    engine = Engine()

    def body():
        yield 42

    engine.spawn(body())
    with pytest.raises(SimulationError):
        engine.run()


def test_run_until_pauses_cleanly():
    engine = Engine()
    log = []

    def body():
        for _ in range(5):
            yield Delay(1.0)
            log.append(engine.now)

    engine.spawn(body())
    engine.run(until=2.5)
    assert log == [1.0, 2.0]
    assert engine.now == 2.5
    engine.run()
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_bounds_a_direct_advance():
    """A charging site that fast-forwards the clock itself must stop
    at the bound exactly as a yielded Delay does."""
    engine = Engine()
    log = []

    def body():
        for _ in range(5):
            if not engine.advance(1.0):
                yield Delay(1.0)
            log.append(engine.now)

    engine.spawn(body())
    engine.run(until=2.5)
    assert log == [1.0, 2.0]
    assert engine.now == 2.5
    engine.run(until=4.0)  # a fast-forward may land on the bound itself
    assert log == [1.0, 2.0, 3.0, 4.0]
    engine.run()
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_deadlock_detected_by_run_process():
    engine = Engine()

    def body():
        yield WaitEvent(Event())  # nobody will ever set this

    with pytest.raises(SimulationError):
        engine.run_process(body())


def test_call_at_past_rejected():
    engine = Engine()

    def body():
        yield Delay(5.0)

    engine.run_process(body())
    with pytest.raises(SimulationError):
        engine.call_at(1.0, lambda v: None)


def test_rng_determinism():
    values_a = [Engine(seed=7).rng.random() for _ in range(3)]
    values_b = [Engine(seed=7).rng.random() for _ in range(3)]
    assert values_a == values_b
    assert values_a != [Engine(seed=8).rng.random() for _ in range(3)]


def test_spawn_names_are_unique_by_default():
    engine = Engine()

    def body():
        yield Delay(0.0)

    names = {engine.spawn(body()).name for _ in range(10)}
    assert len(names) == 10
