"""One enforced order: every consumer of a replay mode's order reads
:func:`repro.artc.planir.enforced_order`, and agrees with it.

The agreement table walks mode x ``reduced_deps`` x ``program_seq`` x
compiled with or without reduction, and holds each consumer's own
inputs -- the replayer's kernel tables, a live follow's waits, the JIT
program, the critical path's lists, the certificate's JIT shapes -- to
the function's answer.  The structural test keeps the decision in one
place: no module that replays or analyses an order reads the graph's
``reduced_preds`` or ``program_seq`` to choose wait lists itself.
"""

import ast
import itertools
import os

import pytest

import repro
from repro.artc import codegen, planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, _ReplayRun
from repro.bench.platforms import PLATFORMS
from repro.core.analysis import thread_edges, thread_sequenced
from repro.core.modes import ReplayMode, RuleSet
from repro.obs import critpath
from repro.stream.compile import StreamCompiler
from repro.stream.replay import FollowRun
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify import transval

TARGET = PLATFORMS["hdd-ext4"]


def rec(idx, tid, name, args, ret=0):
    return TraceRecord(idx, tid, name, args, ret, None, float(idx), idx + 0.2)


# Three threads handing one descriptor around; reduction drops 0 -> 3
# (implied through 0 -> 1 -> 2 -> 3), so the two lists differ.
RECORDS = [
    rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
    rec(1, "T2", "write", {"fd": 3, "nbytes": 4096}, ret=4096),
    rec(2, "T3", "pread", {"fd": 3, "nbytes": 100, "offset": 0}, ret=100),
    rec(3, "T2", "stat", {"path": "/d/f"}),
    rec(4, "T1", "mkdir", {"path": "/d/g"}),
    rec(5, "T3", "close", {"fd": 3}),
    rec(6, "T2", "stat", {"path": "/d/g"}),
]


def snapshot():
    snap = Snapshot()
    snap.add("/d", "dir")
    return snap


TRACE = Trace(RECORDS)

CELLS = list(itertools.product(
    sorted(ReplayMode.ALL), (True, False), (False, True), (True, False),
))


def compiled(program_seq, reduce):
    bench = compile_trace(TRACE, snapshot(), reduce=reduce,
                          ruleset=RuleSet(program_seq=program_seq))
    if reduce:
        assert bench.graph.n_reduced_edges < bench.graph.n_edges
    return bench


def make_fs():
    fs = TARGET.make_fs(seed=0)
    initialize(fs, snapshot())
    return fs


def successors(lists):
    succs = [[] for _ in lists]
    for dst, plist in enumerate(lists):
        for src in plist:
            succs[src].append(dst)
    return succs


@pytest.mark.parametrize("mode,reduced,program_seq,reduce", CELLS)
def test_every_consumer_agrees_with_the_decision(mode, reduced, program_seq, reduce):
    bench = compiled(program_seq, reduce)
    serial, which = planir.enforced_order(bench.graph, mode, reduced)
    assert (serial, which) in planir.ORDERS
    waits = planir.wait_lists(bench.graph, which)
    counts = [len(plist) for plist in waits]
    succs = successors(waits)

    # The replayer's kernel inputs.
    config = ReplayConfig(mode=mode, reduced_deps=reduced)
    run = _ReplayRun(bench, make_fs(), config)
    run.spawn_threads()
    assert run._serial == serial
    assert [list(p) for p in run._preds] == [list(p) for p in waits]
    if run.scoreboard:
        assert run._sb_pending == counts
        assert run._sb_succs == succs
    names = sorted(p.name for p in run._processes)
    assert names == (["replay-single"] if serial
                     else sorted("replay-T%s" % tid for tid in bench.threads))

    # The critical path's lists.
    preds, _kind_of = critpath._enforced_preds(bench, mode, reduced)
    if serial:
        assert preds == [[idx - 1] if idx else [] for idx in range(len(bench))]
    elif which is not None:
        assert preds == thread_sequenced(waits, bench.actions)
    elif mode == ReplayMode.UNCONSTRAINED:
        assert preds == thread_edges(bench.actions)
    else:
        for plist, extra in zip(preds, thread_edges(bench.actions)):
            assert plist[:len(extra)] == extra

    # The certificate validates the program this run would ask for.
    shape = codegen.shape_of(serial, which)
    assert shape in transval._JIT_CONFIGS
    if mode == ReplayMode.TEMPORAL:
        return  # the events core only: no JIT program, no live follow

    # The JIT program: its tapes, gates and releases are the order's.
    jit = _ReplayRun(bench, make_fs(), config.replace(core="jit"))
    jit.spawn_threads()
    program = codegen.program_for(bench, jit._plan, *shape)
    assert set(program.threads) == ({None} if serial else set(bench.threads))
    for idx in range(len(bench)):
        fact = program.facts[idx]
        assert fact["gate"] == bool(counts[idx]), idx
        assert list(fact["releases"]) == succs[idx], idx

    # A live follow's waits, fed the streamed compile of the same trace.
    follow = FollowRun(bench.ruleset, make_fs(), config, bench.threads,
                       platform=bench.platform, reduce=reduce)
    follow.start(lambda queue: False)
    compiler = StreamCompiler(ruleset=bench.ruleset, snapshot=snapshot(),
                              platform=bench.platform, reduce=reduce)
    for record in TRACE.records:
        follow.feed(compiler.feed(record))
    assert set(follow._queues) == ({None} if serial else set(bench.threads))
    assert follow._sb_pending == counts
    assert follow._sb_succs == succs


# -- structure -----------------------------------------------------------


SRC = os.path.dirname(repro.__file__)

#: The modules that replay or analyse an order.
ORDER_MODULES = (
    "artc/codegen.py", "artc/planir.py", "artc/replayer.py",
    "artc/shardcore.py", "obs/critpath.py", "stream/follow.py",
    "stream/replay.py", "verify/abstract.py", "verify/transval.py",
)

#: The graph reads those modules may make, and why.
ALLOWED = {
    # The decision itself.
    "artc/planir.py:enforced_order:program_seq",
    "artc/planir.py:enforced_order:reduced_preds",
    # The capability table's program_seq row (the shard core refuses
    # such graphs with jobs > 1), not a choice of wait lists.
    "artc/replayer.py:request_features:program_seq",
    # The follow shell's graph, built for the decision to read.
    "stream/replay.py:__init__:program_seq",
}

GRAPH_FIELDS = ("reduced_preds", "program_seq")


def functions(relpath):
    with open(os.path.join(SRC, relpath)) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def graph_reads(relpath):
    """``module:function:field`` for every read of a graph field in
    ``relpath``: an attribute load, or a ``getattr`` naming it."""
    found = set()
    for func in functions(relpath):
        for node in ast.walk(func):
            field = None
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in GRAPH_FIELDS):
                field = node.attr
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in GRAPH_FIELDS):
                field = node.args[1].value
            if field is not None:
                found.add("%s:%s:%s" % (relpath, func.name, field))
    return found


def test_only_the_decision_reads_the_graph_to_choose_wait_lists():
    reads = set()
    for relpath in ORDER_MODULES:
        reads |= graph_reads(relpath)
    assert reads == ALLOWED


def test_the_decision_is_read_once_per_run():
    """Per-action code reads the run's decision, never the function:
    the kernels, the JIT's emitted bodies and a follow's feed."""
    calls = {}
    for relpath in ORDER_MODULES:
        for func in functions(relpath):
            if any(isinstance(node, ast.Attribute) and node.attr == "enforced_order"
                   for node in ast.walk(func)):
                calls.setdefault(relpath, set()).add(func.name)
    assert calls == {
        "artc/codegen.py": {"_compile_program"},
        "artc/replayer.py": {"__init__"},
        "obs/critpath.py": {"_enforced_preds"},
        "verify/abstract.py": {"predict"},
        "verify/transval.py": {"validate_program"},
    }
