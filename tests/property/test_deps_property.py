"""Property-based tests: compiled dependency graphs are sound.

For randomly generated multithreaded traces over a small namespace:

- the dependency graph is acyclic and its edges point forward;
- a topological replay order exists and satisfies every enabled rule
  (checked independently by the rule checkers);
- replaying under ARTC on a fresh target reproduces every return value.
"""

from hypothesis import given, settings, strategies as st

from repro.artc import compile_trace, replay, ReplayConfig
from repro.artc.init import initialize
from repro.core.analysis import topological_order, validate_order
from repro.core.modes import ReplayMode, RuleSet
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS
from tests.conftest import make_fs

PATHS = ["/w/a", "/w/b", "/w/c"]

OP_VOCAB = st.sampled_from(
    ["open_close", "create_write", "stat", "unlink", "rename", "mkdir_rmdir",
     "read_chunk", "fsync_one", "symlink"]
)


@st.composite
def thread_scripts(draw):
    nthreads = draw(st.integers(min_value=1, max_value=3))
    return [
        draw(st.lists(OP_VOCAB, min_size=1, max_size=6))
        for _ in range(nthreads)
    ]


def _thread_body(osapi, tid, script, rng_seed):
    import random

    rng = random.Random(rng_seed)
    for op in script:
        path = rng.choice(PATHS)
        if op == "open_close":
            fd, err = yield from osapi.call(tid, "open", path=path, flags="O_RDONLY")
            if err is None:
                yield from osapi.call(tid, "read", fd=fd, nbytes=100)
                yield from osapi.call(tid, "close", fd=fd)
        elif op == "create_write":
            fd, err = yield from osapi.call(
                tid, "open", path=path, flags="O_WRONLY|O_CREAT"
            )
            if err is None:
                yield from osapi.call(tid, "write", fd=fd, nbytes=4096)
                yield from osapi.call(tid, "close", fd=fd)
        elif op == "stat":
            yield from osapi.call(tid, "stat", path=path)
        elif op == "unlink":
            yield from osapi.call(tid, "unlink", path=path)
        elif op == "rename":
            yield from osapi.call(tid, "rename", old=path, new=path + ".moved")
        elif op == "mkdir_rmdir":
            yield from osapi.call(tid, "mkdir", path="/w/dir%d" % tid, mode=0o755)
            yield from osapi.call(tid, "rmdir", path="/w/dir%d" % tid)
        elif op == "read_chunk":
            fd, err = yield from osapi.call(tid, "open", path="/w/base", flags="O_RDONLY")
            if err is None:
                yield from osapi.call(tid, "pread", fd=fd, nbytes=4096, offset=tid * 4096)
                yield from osapi.call(tid, "close", fd=fd)
        elif op == "fsync_one":
            fd, err = yield from osapi.call(tid, "open", path="/w/base", flags="O_RDWR")
            if err is None:
                yield from osapi.call(tid, "write", fd=fd, nbytes=512)
                yield from osapi.call(tid, "fsync", fd=fd)
                yield from osapi.call(tid, "close", fd=fd)
        elif op == "symlink":
            yield from osapi.call(tid, "symlink", target="/w/base", path=path + ".ln")


def generate_trace(scripts, seed):
    fs = make_fs(seed=seed)
    fs.makedirs_now("/w")
    fs.create_file_now("/w/base", size=64 << 10)
    snapshot = Snapshot.capture(fs, roots=("/w",))
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="prop")
    for tid, script in enumerate(scripts, start=1):
        fs.engine.spawn(_thread_body(osapi, tid, script, seed * 100 + tid))
    fs.engine.run()
    return trace, snapshot


class TestGraphSoundness(object):
    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_topological_order_satisfies_all_rules(self, scripts, seed):
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot)
        if not bench.actions:
            return
        order = topological_order(bench.graph, bench.actions)  # raises on cycle
        touched = bench.touched_actions()
        assert validate_order(touched, bench.ruleset, order) == []

    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_edges_point_forward_in_trace_order(self, scripts, seed):
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot)
        for src, dst in bench.graph.edges():
            assert src < dst

    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_artc_replay_reproduces_every_return_value(self, scripts, seed):
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot)
        fs = make_fs(seed=seed + 7777)
        initialize(fs, snapshot)
        report = replay(bench, fs, ReplayConfig(mode=ReplayMode.ARTC))
        assert report.failures == 0

    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_program_seq_subsumes_everything(self, scripts, seed):
        """program_seq (total order) replay also reproduces the trace."""
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot, ruleset=RuleSet(program_seq=True))
        fs = make_fs(seed=seed + 1234)
        initialize(fs, snapshot)
        report = replay(bench, fs, ReplayConfig(mode=ReplayMode.ARTC))
        assert report.failures == 0
