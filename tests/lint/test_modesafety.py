"""Mode-safety matrix: the static Table-3 prediction."""

from repro.core.model import TraceModel
from repro.core.modes import ReplayMode, named_rulesets
from repro.lint.modesafety import mode_safety_matrix
from repro.lint.report import render_mode_matrix
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord


def rec(idx, tid, name, args, ret=0, err=None):
    return TraceRecord(idx, tid, name, args, ret, err, float(idx), idx + 0.2)


# Cross-thread writers to a shared file: safe with file_seq, racy
# without it.
RECORDS = [
    rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR"}, ret=3),
    rec(1, "T1", "write", {"fd": 3, "nbytes": 10}, ret=10),
    rec(2, "T1", "close", {"fd": 3}),
    rec(3, "T2", "open", {"path": "/d/f", "flags": "O_RDWR"}, ret=4),
    rec(4, "T2", "write", {"fd": 4, "nbytes": 10}, ret=10),
    rec(5, "T2", "close", {"fd": 4}),
]


def actions():
    snap = Snapshot()
    snap.add("/d", "dir")
    snap.add("/d/f", "reg", 100)
    return TraceModel(Trace(RECORDS), snap).actions


class TestMatrix(object):
    def test_every_mode_has_a_row(self):
        rows = mode_safety_matrix(actions())
        modes = [row["mode"] for row in rows]
        assert modes[0] == ReplayMode.SINGLE
        assert modes[1] == ReplayMode.TEMPORAL
        for name in named_rulesets():
            assert name in modes

    def test_strategies_safe_by_construction(self):
        rows = mode_safety_matrix(actions())
        for row in rows[:2]:
            assert row["safe"] and row["races"] == 0
            assert "note" in row

    def test_default_safe_stage_only_unsafe(self):
        rows = {row["mode"]: row for row in mode_safety_matrix(actions())}
        assert rows["artc-default"]["safe"]
        assert not rows["stage-only"]["safe"]
        assert rows["stage-only"]["by_kind"].get("file", 0) > 0
        assert not rows["unconstrained"]["safe"]

    def test_truncation_marks_lower_bound(self):
        rows = {
            row["mode"]: row
            for row in mode_safety_matrix(actions(), max_races=1)
        }
        racy = rows["unconstrained"]
        assert racy["truncated"] and racy["races"] == 1

    def test_render_matrix_shape(self):
        rendered = render_mode_matrix(mode_safety_matrix(actions()))
        lines = rendered.splitlines()
        assert "mode-safety matrix" in lines[0]
        assert "UNSAFE" in rendered and "safe" in rendered
        # strategy rows have no graph, shown as '-'
        assert any(line.strip().startswith("single-threaded") for line in lines)

    def test_truncated_count_renders_as_lower_bound(self):
        rendered = render_mode_matrix(mode_safety_matrix(actions(), max_races=1))
        assert ">=1" in rendered
