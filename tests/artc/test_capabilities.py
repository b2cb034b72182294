"""The core x feature capability table, walked cell by cell.

Every cell the table calls supported must reproduce the events
oracle; every cell it refuses must raise exactly the table's message.
The structural tests at the bottom keep the replay kernel singular:
copies of the per-action loop cannot regrow unnoticed.
"""

import ast
import itertools
import os

import pytest

import repro
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import (
    CAPABILITIES, DYNAMIC, FEATURES, NO, REPLAY_CORES, YES, ReplayConfig,
    replay,
)
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode, RuleSet
from repro.errors import ReplayError
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults.harden import HardenConfig
from repro.obs import Observability
from repro.stream.follow import follow_replay
from repro.verify.abstract import fs_digest
from repro.workloads.magritte import build_suite

TARGET = PLATFORMS["hdd-ext4"]
SAMPLE = "itunes_startsmall1"  # 617 actions, 5 threads, splits in 2 shards


@pytest.fixture(scope="module")
def traced():
    return trace_application(build_suite([SAMPLE])[SAMPLE], PLATFORMS["mac-hdd"])


@pytest.fixture(scope="module")
def bench(traced):
    return compile_trace(traced.trace, traced.snapshot)


@pytest.fixture(scope="module")
def trace_file(traced, tmp_path_factory):
    path = tmp_path_factory.mktemp("capabilities") / "trace.json"
    traced.trace.save(str(path))
    open(str(path) + ".done", "w").close()
    return str(path)


def exact(report, fs):
    """Everything a single-process core must reproduce bit for bit."""
    rows = [
        (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err, r.matched, r.skipped)
        for r in report.results
    ]
    warnings = [(w.idx, w.kind, w.message) for w in report.warnings]
    return rows, warnings, report.elapsed, fs_digest(fs)


def semantic(report, fs):
    """What a multi-process run shares with the oracle: its clocks are
    per shard, so timestamps are not part of the contract."""
    rows = [(r.idx, r.err, r.matched, r.skipped) for r in report.results]
    return rows, report.failures, report.warning_counts(), fs_digest(fs)


def predicted(core, features, jobs, mode):
    """What the table says about a request: the refusal message (or
    None), and whether nothing in it forces a detour off the core's
    native path (an events hand-over, a deferred follow)."""
    direct = True
    for feature in FEATURES:
        if feature not in features:
            continue
        cell = CAPABILITIES[core][feature]
        if cell.outcome == NO:
            if jobs > 1 or not cell.jobs_only:
                return cell.message % {"core": core, "mode": mode, "jobs": jobs}, False
        elif cell.outcome not in (YES, DYNAMIC):
            direct = False
    return None, direct


def attempt(traced, bench, trace_file, follow=False, obs=False, faults=False,
            **config):
    fs = TARGET.make_fs(seed=3, obs=Observability() if obs else None)
    initialize(fs, traced.snapshot)
    if faults:
        # A rule that never fires: the run carries the feature, the
        # simulated results stay the oracle's.
        fs.stack.attach_faults(FaultInjector(FaultPlan([FaultRule("eio", at=1e9)])))
    status = None
    if follow:
        report, status = follow_replay(
            trace_file, fs, ReplayConfig(**config), snapshot=traced.snapshot,
            poll=0.001,
        )
    else:
        report = replay(bench, fs, ReplayConfig(**config))
    return report, fs, status


def test_table_is_complete():
    assert set(CAPABILITIES) == set(REPLAY_CORES)
    for core in REPLAY_CORES:
        assert tuple(CAPABILITIES[core]) == FEATURES
        for cell in CAPABILITIES[core].values():
            assert (cell.message is not None) == (cell.outcome == NO)


def test_every_mode_core_obs_timing_delivery_jobs_cell(traced, bench, trace_file):
    oracles = {}
    walked = refused = 0
    for mode, timing in itertools.product(ReplayMode.ALL, ("afap", "natural")):
        report, fs, _ = attempt(
            traced, bench, trace_file, mode=mode, timing=timing, core="events"
        )
        oracles[mode, timing] = exact(report, fs), semantic(report, fs)
    for mode, core, obs, timing, follow, jobs in itertools.product(
        ReplayMode.ALL, REPLAY_CORES, (False, True), ("afap", "natural"),
        (False, True), (1, 2),
    ):
        features = {
            "temporal": mode == ReplayMode.TEMPORAL,
            "mode": mode != ReplayMode.ARTC,
            "follow": follow,
            "jobs": jobs > 1,
            "obs": obs,
            "timed": timing != "afap",
        }
        message, direct = predicted(
            core, {name for name, on in features.items() if on}, jobs, mode
        )
        cell = (mode, core, obs, timing, follow, jobs)
        run = dict(follow=follow, obs=obs, mode=mode, timing=timing,
                   core=core, jobs=jobs)
        if message is not None:
            with pytest.raises(ReplayError) as info:
                attempt(traced, bench, trace_file, **run)
            assert str(info.value) == message, cell
            refused += 1
            continue
        report, fs, status = attempt(traced, bench, trace_file, **run)
        if jobs > 1:
            assert report.shard_stats["shards"] == 2, cell  # it really forked
            assert semantic(report, fs) == oracles[mode, timing][1], cell
        else:
            assert exact(report, fs) == oracles[mode, timing][0], cell
        if follow:
            assert status.mode == ("live" if direct else "deferred"), cell
        walked += 1
    # mode x core x obs x timing x delivery x jobs
    assert walked + refused == 4 * 5 * 2 * 2 * 2 * 2
    assert walked == 144 and refused == 176


@pytest.mark.parametrize("feature", ["harden", "resume", "faults", "program_seq"])
def test_every_remaining_feature_cell(traced, bench, trace_file, feature):
    """The columns the product above does not reach, one feature at a
    time, on every core at jobs 1 and 2."""
    extra = {}
    if feature == "harden":
        extra["harden"] = HardenConfig(degrade=True)
    elif feature == "resume":
        extra["resume_completed"] = range(5)
    elif feature == "program_seq":
        bench = compile_trace(
            traced.trace, traced.snapshot, ruleset=RuleSet(program_seq=True)
        )
    faults = feature == "faults"
    report, fs, _ = attempt(
        traced, bench, trace_file, faults=faults, core="events", **extra
    )
    oracle = exact(report, fs)
    for core, jobs in itertools.product(REPLAY_CORES, (1, 2)):
        features = {feature} | ({"jobs"} if jobs > 1 else set())
        message, _ = predicted(core, features, jobs, ReplayMode.ARTC)
        run = dict(faults=faults, core=core, jobs=jobs, **extra)
        if message is not None:
            with pytest.raises(ReplayError) as info:
                attempt(traced, bench, trace_file, **run)
            assert str(info.value) == message, (core, jobs)
        else:
            report, fs, _ = attempt(traced, bench, trace_file, **run)
            assert exact(report, fs) == oracle, (core, jobs)


# -- structure: one kernel ------------------------------------------------

SRC = os.path.dirname(repro.__file__)


def functions(path):
    with open(path) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def source_files():
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def branches_on_entry_kind(func):
    """Does ``func`` compare a variable called ``kind`` against a
    plan-IR kind: an integer, or a ``planir.<KIND>`` constant?"""
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + node.comparators
        if not any(isinstance(s, ast.Name) and s.id == "kind" for s in sides):
            continue
        for side in sides:
            if isinstance(side, ast.Constant) and isinstance(side.value, int):
                return True
            if (
                isinstance(side, ast.Attribute)
                and isinstance(side.value, ast.Name)
                and side.value.id == "planir"
            ):
                return True
    return False


def test_one_function_interprets_plan_entry_kinds():
    """Outside codegen.py (the emitter), exactly one function
    *executes* plan-IR entries by kind -- a generator, since every
    simulated call yields: the precompiled kernel.  (planir builds and
    serializes entries and verify/transval.py inspects their shape;
    neither runs one, and neither is a generator.)"""
    interpreters = []
    for path in source_files():
        if os.path.basename(path) == "codegen.py":
            continue
        for func in functions(path):
            if is_generator(func) and branches_on_entry_kind(func):
                interpreters.append(
                    "%s:%s" % (os.path.relpath(path, SRC), func.name)
                )
    assert interpreters == ["artc/replayer.py:_precompiled_thread"]


def is_generator(func):
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return False


def thread_bodies(relpath):
    """Generator functions that take a variable called ``action`` from
    a sequence (a ``for`` target) or a queue (an assignment): the
    shape of a per-action replay thread body."""
    found = []
    for func in functions(os.path.join(SRC, relpath)):
        if not is_generator(func):
            continue
        targets = []
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                targets.append(node.target)
            elif isinstance(node, ast.Assign):
                targets.extend(node.targets)
        if any(isinstance(t, ast.Name) and t.id == "action" for t in targets):
            found.append(func.name)
    return sorted(found)


def test_two_thread_bodies_and_no_copies_elsewhere():
    assert thread_bodies("artc/replayer.py") == [
        "_dynamic_thread", "_precompiled_thread",
    ]
    assert thread_bodies("artc/shardcore.py") == []
    assert thread_bodies("stream/replay.py") == []


def test_one_release_loop_beside_the_reference():
    """The scoreboard release (decrement a successor's pending counter,
    ring its owner's gate) is written out once in planir (the reference
    ``_sb_complete`` runs) and once inlined in the precompiled kernel."""
    loops = []
    for path in source_files():
        if os.path.basename(path) == "codegen.py":
            continue
        for func in functions(path):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == "succ"
                    and "pending[succ]" in ast.unparse(node)
                    and ".open()" in ast.unparse(node)
                ):
                    loops.append("%s:%s" % (os.path.relpath(path, SRC), func.name))
    assert sorted(loops) == [
        "artc/planir.py:release_serial",
        "artc/replayer.py:_precompiled_thread",
    ]
