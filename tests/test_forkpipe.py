"""The fork plumbing's one placement step: a child that streams to its
waiting parent moves off the CPU it was forked on, once."""

import os

import pytest

from repro import forkpipe

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or not os.path.exists("/proc/self/stat"),
    reason="needs Linux's /proc and affinity calls",
)


@pytest.fixture
def masks(monkeypatch):
    """Every mask ``leave_cpu`` sets, in order; the process's own mask
    is put back afterwards whatever the test did."""
    original = os.sched_getaffinity(0)
    calls = []
    real = os.sched_setaffinity

    def record(pid, mask):
        calls.append(set(mask))
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", record)
    yield calls
    real(0, original)


def test_leave_cpu_moves_off_one_cpu_and_restores_the_mask(masks):
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        pytest.skip("one CPU allowed: nowhere to move")
    forkpipe.leave_cpu()
    away, back = masks
    assert len(away) == len(mask) - 1 and away < mask
    assert back == mask
    assert os.sched_getaffinity(0) == mask


def test_leave_cpu_stays_put_with_one_cpu_allowed(masks):
    one = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, one)
    del masks[:]
    forkpipe.leave_cpu()
    assert masks == []
    assert os.sched_getaffinity(0) == one
