"""Crash/recovery: the durability contract, swept over crash points.

The two-sided invariant (the whole point of crash recovery):

- **never surface unacked writes** -- the recovered file never holds
  more bytes than the write calls that completed before the crash
  produced;
- **always surface fsync'd data** -- once an fsync acked, its bytes
  survive any later crash point, and losing them is reported as an
  acked-lost-write violation rather than silently papered over.
"""

import pytest

from repro.faults import FaultPlan, FaultRule, replay_with_faults
from repro.faults.crash import ACKED_LOST_WRITE
from tests.faults.conftest import compiled, rec

KB8 = 8192
FSYNC_IDX = 3
FSYNCED_BYTES = 2 * KB8

#: open, two writes, fsync (acks 16 KB), two more writes, close.
WRITER = [
    rec(0, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
    rec(1, "T1", "write", {"fd": 3, "nbytes": KB8}, ret=KB8),
    rec(2, "T1", "write", {"fd": 3, "nbytes": KB8}, ret=KB8),
    rec(3, "T1", "fsync", {"fd": 3}),
    rec(4, "T1", "write", {"fd": 3, "nbytes": KB8}, ret=KB8),
    rec(5, "T1", "write", {"fd": 3, "nbytes": KB8}, ret=KB8),
    rec(6, "T1", "close", {"fd": 3}),
]


def _crash_points(hdd):
    """Every action-completion barrier of a faultless run, plus the
    midpoints between them (crash mid-action)."""
    report = replay_with_faults(compiled(WRITER), hdd).report
    dones = [r.done for r in sorted(report.results, key=lambda r: r.idx)]
    points = [d + 1e-9 for d in dones]
    points += [(a + b) / 2 for a, b in zip(dones, dones[1:]) if b > a]
    return sorted(set(points))


def test_crash_at_every_barrier_honors_durability(hdd):
    bench = compiled(WRITER)
    for t in _crash_points(hdd):
        result = replay_with_faults(bench, hdd, crash_at=t, recover=True)
        assert result.crashed and result.crashed_at == pytest.approx(t)
        done = {r.idx: r for r in result.report.results}
        completed_writes = sum(
            1 for r in done.values() if r.name == "write"
        )
        entry = result.recovered.entry_for("/f")
        size = entry.size if entry is not None else 0
        # Never surface unacked writes.
        assert size <= completed_writes * KB8, (
            "crash@%g surfaced %d bytes from %d completed writes"
            % (t, size, completed_writes)
        )
        # Always surface fsync'd data -- and nothing torn here, so the
        # recovery must be violation-free.
        if FSYNC_IDX in done:
            assert entry is not None
            assert size >= FSYNCED_BYTES, (
                "crash@%g lost fsync'd bytes: %d < %d" % (t, size, FSYNCED_BYTES)
            )
        assert result.violations == [], (
            "crash@%g: %r" % (t, [v.to_dict() for v in result.violations])
        )
        # Recovery replays exactly the remaining suffix.
        assert (
            result.report.n_actions + result.resume_report.n_actions
            == len(bench)
        )


def test_crash_determinism(hdd):
    import json

    bench = compiled(WRITER)
    t = _crash_points(hdd)[4]

    def run():
        return replay_with_faults(bench, hdd, crash_at=t, recover=True)

    a, b = run(), run()
    assert json.dumps(a.summary(), sort_keys=True) == json.dumps(
        b.summary(), sort_keys=True
    )
    assert a.recovered.dumps() == b.recovered.dumps()


def test_torn_fsync_reports_acked_lost_write(hdd):
    """A torn write under an fsync breaks the ack contract: recovery
    must report it, not hide it."""
    bench = compiled(WRITER)
    plan = FaultPlan(
        [FaultRule("torn_write", rate=1.0, op="write", blocks=1)], seed=3
    )
    base = replay_with_faults(compiled(WRITER), hdd)
    fsync_done = next(
        r.done for r in base.report.results if r.idx == FSYNC_IDX
    )
    result = replay_with_faults(
        bench, hdd, plan=plan, crash_at=fsync_done + 1e-9, recover=False
    )
    assert result.fault_counts.get("torn_write", 0) > 0
    kinds = {v.kind for v in result.violations}
    assert ACKED_LOST_WRITE in kinds, [v.to_dict() for v in result.violations]
    # The recovered file is clamped to what actually survived.
    entry = result.recovered.entry_for("/f")
    assert entry is None or entry.size < FSYNCED_BYTES


def test_unlink_rolls_back_when_uncommitted(hdd):
    """A create+unlink whose journal window never committed rolls back
    to the pre-crash namespace."""
    records = [
        rec(0, "T1", "open", {"path": "/g", "flags": "O_RDWR|O_CREAT"}, ret=3),
        rec(1, "T1", "write", {"fd": 3, "nbytes": KB8}, ret=KB8),
        rec(2, "T1", "close", {"fd": 3}),
        rec(3, "T1", "unlink", {"path": "/old"}),
    ]
    bench = compiled(records, [("/old", "reg", KB8)])
    base = replay_with_faults(compiled(records, [("/old", "reg", KB8)]), hdd)
    end = base.report.finished
    result = replay_with_faults(bench, hdd, crash_at=end + 1e-9, recover=True)
    recovered = {e.path for e in result.recovered.entries}
    # Neither the create nor the unlink committed before the crash:
    # /g vanishes, /old survives.
    assert "/g" not in recovered
    assert "/old" in recovered
    assert result.violations == []


def test_dup2_over_an_open_descriptor_leaves_the_reopen_set():
    """dup2 onto a live descriptor closes it: the reopen pass re-issues
    the first open and the dup2, not the open dup2 displaced."""
    from repro.faults.recovery import _live_fd_creators

    bench = compiled([
        rec(0, "T1", "open", {"path": "/a", "flags": "O_RDWR|O_CREAT"}, ret=3),
        rec(1, "T1", "open", {"path": "/b", "flags": "O_RDWR|O_CREAT"}, ret=4),
        rec(2, "T1", "dup2", {"fd": 3, "newfd": 4}, ret=4),
        rec(3, "T1", "write", {"fd": 4, "nbytes": KB8}, ret=KB8),
    ])
    assert _live_fd_creators(bench, {0, 1}) == (0, 1)
    assert _live_fd_creators(bench, {0, 1, 2, 3}) == (0, 2)
