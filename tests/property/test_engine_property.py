"""Property-based test: the fast-forwarding engine against a heap-only one.

``Engine.advance`` finishes an uncontended ``Delay`` in place instead
of through the heap, at every charging site and in ``Process._step``.
The reference is the engine that never does: the subclass below sends
every delay through the heap, as the engine did before ``advance``
existed.  Random small process mixes run on both; everything observable
-- who ran which step at what time, in what order -- must be equal.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Delay, Engine, Event, WaitEvent
from repro.sim.events import Gate


class HeapOnlyEngine(Engine):
    """The reference: no delay is ever fast-forwarded, so ``_step``
    never loops and every resume is a heap dispatch."""

    def advance(self, seconds):
        return False


#: Few distinct values, so that exact ties between processes are common.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
NPROC = 4
NEVENTS = 3

LEAF = st.one_of(
    st.tuples(st.just("delay"), TIMES),
    st.tuples(st.just("advance"), TIMES),
    st.tuples(st.just("set"), st.integers(0, NEVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, NEVENTS - 1)),
    st.tuples(st.just("bare"), st.integers(0, NEVENTS - 1)),
    st.tuples(st.just("open"), st.integers(0, NPROC - 1)),
    st.tuples(st.just("gate"), st.none()),
    st.tuples(st.just("timer"), TIMES),
    st.tuples(st.just("call_at"), TIMES),
    st.tuples(st.just("wake_at"), TIMES),
)
STEPS = st.recursive(
    st.lists(LEAF, max_size=6),
    lambda inner: st.lists(
        st.one_of(LEAF, st.tuples(st.just("nested"), inner)), max_size=6
    ),
    max_leaves=12,
)
PROGRAMS = st.lists(STEPS, min_size=1, max_size=NPROC)


def run_mix(engine, programs, until):
    """Run ``programs`` (one step list per process) on ``engine``;
    returns everything the two engines must agree on."""
    log = []
    events = [Event() for _ in range(NEVENTS)]
    gates = [Gate() for _ in range(NPROC)]

    def body(me, steps, depth=0):
        for index, (op, arg) in enumerate(steps):
            if op == "delay":
                yield Delay(arg)
            elif op == "advance":
                if not engine.advance(arg):
                    yield Delay(arg)
            elif op == "set":
                if not events[arg].is_set:
                    events[arg].set(me)
            elif op == "wait":
                yield WaitEvent(events[arg])
            elif op == "bare":
                yield events[arg]
            elif op == "open":
                gates[arg].open()
            elif op == "gate":
                yield gates[me]  # each process parks on its own gate only
            elif op == "timer":
                yield WaitEvent(engine.timer(arg))
            elif op == "call_at":
                engine.call_at(
                    engine.now + arg,
                    lambda tag: log.append((engine.now, "callback", tag)),
                    (me, depth, index),
                )
            elif op == "wake_at":
                woken = Event()
                # An absolute time: in the past as often as ahead.
                log.append((engine.now, me, engine.wake_at(arg, woken)))
                yield WaitEvent(woken)
            elif op == "nested":
                yield from body(me, arg, depth + 1)
            log.append((engine.now, me, depth, index))
        return engine.now

    processes = [
        engine.spawn(body(me, steps)) for me, steps in enumerate(programs)
    ]
    paused = None
    if until is not None:
        engine.run(until=until)
        paused = (engine.now, list(log))
    final = engine.run()
    return (
        paused, log, final, engine.now,
        [(p.alive, p.result) for p in processes],
    )


@given(PROGRAMS, st.one_of(st.none(), TIMES))
@settings(max_examples=300, deadline=None)
def test_fast_forwarding_engine_equals_heap_only_engine(programs, until):
    assert run_mix(Engine(), programs, until) == run_mix(
        HeapOnlyEngine(), programs, until
    )


def test_the_fast_path_is_taken():
    """The property above would hold vacuously if ``advance`` never
    said yes: a lone process must not touch the heap after its spawn."""
    engine = Engine()
    dispatched = []
    schedule = engine._schedule

    def counting(delay, callback, value):
        dispatched.append(delay)
        schedule(delay, callback, value)

    engine._schedule = counting

    def body():
        for _ in range(10):
            yield Delay(1.0)
        return engine.now

    assert engine.run_process(body()) == 10.0
    assert dispatched == [0.0]  # the spawn itself
