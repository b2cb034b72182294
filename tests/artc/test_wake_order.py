"""The known wake-order break between the events core and the
scoreboard, pinned.

The trace is the file-size ablation's log follower compiled with
``RuleSet.with_file_size()``, replayed on ``hdd-ext4`` at seed 700 with
no jitter.  When one completion releases several threads at one
instant, the events core resumes them in ``Event`` waiter order and the
scoreboard (and the JIT, which inlines its release) in successor-list
order.  The first divergence is ``fsync`` #107; ``elapsed`` is 0.7439 s
under events and 0.7522 s under the scoreboard and the JIT, with equal
failures.  ROADMAP.md's "One wake order, stated once" item is the fix:
the xfail below is strict, so the fix has to turn it into a pass.
"""

import json

import pytest

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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 'One wake order, stated once': threads released by one "
    "completion resume in Event waiter order under events, in "
    "successor-list order under the scoreboard (elapsed 0.7439 s vs 0.7522 s)"))
def test_events_matches_scoreboard(bench):
    assert fingerprint(bench, "events") == fingerprint(bench, "scoreboard")
