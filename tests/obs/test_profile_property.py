"""Property: the critical-path bound never exceeds the measured makespan.

For every Magritte sample trace and every replay mode, the longest
weighted chain over the constraints that mode enforced — weighted by
the latencies that run measured — must be <= the measured elapsed
time.  This is the soundness property that makes ``artc profile``'s
"path covers N%" line meaningful.
"""

import pytest

from repro.artc.compiler import compile_trace
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.bench.request import profile_once
from repro.core.modes import ReplayMode
from repro.workloads.magritte import build_suite

SAMPLE_APPS = ("numbers_start5", "pages_create15")


@pytest.fixture(scope="module", params=SAMPLE_APPS)
def bench(request):
    suite = build_suite([request.param])
    traced = trace_application(
        suite[request.param], PLATFORMS["mac-ssd"], seed=0, warm_cache=True
    )
    return compile_trace(traced.trace, traced.snapshot)


@pytest.mark.parametrize("mode", sorted(ReplayMode.ALL))
def test_bound_le_makespan(bench, mode):
    report, _obs, critpath = profile_once(
        {"platform": "hdd-ext4", "mode": mode, "seed": 3}, bench
    )
    assert critpath.length <= report.elapsed + 1e-9
    assert critpath.n_actions == report.n_actions
    # The serial bound dominates every chain.
    assert critpath.length <= critpath.total_weight + 1e-9


def test_single_mode_bound_is_tight(bench):
    # One replay thread: the chain is the whole program, so the bound
    # equals the makespan exactly (every action is on the path).
    report, _obs, critpath = profile_once(
        {"platform": "hdd-ext4", "mode": ReplayMode.SINGLE, "seed": 3}, bench
    )
    assert critpath.length == pytest.approx(report.elapsed)
    assert len(critpath.path) == report.n_actions


def test_full_edge_set_bound_still_sound(bench):
    report, _obs, critpath = profile_once(
        {"platform": "hdd-ext4", "mode": ReplayMode.ARTC, "seed": 3,
         "no_reduce": True},
        bench,
    )
    assert critpath.length <= report.elapsed + 1e-9
