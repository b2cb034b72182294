"""One wake order, stated once (:func:`repro.artc.planir.wake_order`).

The trace is the file-size ablation's log follower compiled with
``RuleSet.with_file_size()``, replayed on ``hdd-ext4`` at seed 700 with
no jitter.  One completion there releases several threads at one
instant.  The events core used to resume them in ``Event`` waiter
order, and the scoreboard (and the JIT, which writes out its release)
in successor-list order: the runs parted at ``fsync`` #107, with
``elapsed`` 0.7439 s under events and 0.7522 s under the other two.
Now the events core wakes what a completion finds parked in ascending
action index, and the scoreboard's successor lists are kept in that
order, so all three agree (on 0.7522 s).
"""

import json

import pytest

from repro.artc import planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.core.modes import ReplayMode, RuleSet
from repro.tracing.snapshot import Snapshot
from repro.workloads.microbench import LogFollower

PLATFORM = PLATFORMS["hdd-ext4"]


@pytest.fixture(scope="module")
def bench():
    traced = trace_application(LogFollower(), PLATFORM)
    return compile_trace(traced.trace, traced.snapshot,
                         ruleset=RuleSet.with_file_size())


def fingerprint(bench, core):
    fs = PLATFORM.make_fs(700)
    initialize(fs, bench.snapshot)
    fs.stack.drop_caches()
    report = replay(bench, fs, ReplayConfig(mode=ReplayMode.ARTC, core=core))
    rows = [(r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err, r.matched)
            for r in report.results]
    final = Snapshot.capture(fs, roots=("/",), label="final")
    return json.dumps([report.summary(), rows], sort_keys=True) + final.dumps()


def test_jit_matches_scoreboard(bench):
    assert fingerprint(bench, "jit") == fingerprint(bench, "scoreboard")


def test_events_matches_scoreboard(bench):
    assert fingerprint(bench, "events") == fingerprint(bench, "scoreboard")


def test_wake_order_is_ascending_action_index():
    assert planir.wake_order([(7, "c"), (2, "a"), (5, "b")]) == ["a", "b", "c"]


@pytest.mark.parametrize("which", ["preds", "reduced_preds"])
def test_scoreboard_successor_lists_are_in_wake_order(bench, which):
    """The scoreboard walks its successor lists as they stand."""
    _counts, succs, _tid_of = planir.order_tables(bench, which)
    assert any(len(succ_list) > 1 for succ_list in succs)
    for succ_list in succs:
        assert succ_list == planir.wake_order([(s, s) for s in succ_list])
