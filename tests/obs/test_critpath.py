"""Tests for the critical-path profiler (repro.obs.critpath)."""

import json

import pytest

from repro.obs.critpath import START, longest_chain


def label(edges):
    """kind_of callback from an explicit {(src, dst): kind} table."""
    return lambda src, dst: edges.get((src, dst), "thread")


class TestLongestChain(object):
    def test_diamond_picks_the_heavier_arm(self):
        #   0 -> 1 -> 3       weights: 1, 2, 3, 1
        #   0 -> 2 -> 3       chain: 0, 2, 3 with length 5
        preds = [[], [0], [0], [1, 2]]
        weights = [1.0, 2.0, 3.0, 1.0]
        result = longest_chain(
            4, preds, weights,
            label({(0, 2): "file_seq", (2, 3): "name"}),
        )
        assert result.length == pytest.approx(5.0)
        assert result.path == [0, 2, 3]

    def test_attribution_per_edge_kind(self):
        preds = [[], [0], [0], [1, 2]]
        weights = [1.0, 2.0, 3.0, 1.0]
        result = longest_chain(
            4, preds, weights,
            label({(0, 2): "file_seq", (2, 3): "name"}),
        )
        # Head weight goes to START; each later node's weight goes to
        # the kind of its critical in-edge.
        assert result.time_by_kind == {START: 1.0, "file_seq": 3.0, "name": 1.0}
        assert result.edges_by_kind == {"file_seq": 1, "name": 1}

    def test_disconnected_nodes_still_counted(self):
        result = longest_chain(
            3, [[], [], []], [1.0, 5.0, 2.0], label({}),
        )
        assert result.length == pytest.approx(5.0)
        assert result.path == [1]
        assert result.total_weight == pytest.approx(8.0)

    def test_empty_graph(self):
        result = longest_chain(0, [], [], label({}))
        assert result.length == 0.0
        assert result.path == []

    def test_backward_edge_raises(self):
        with pytest.raises(ValueError):
            longest_chain(2, [[1], []], [1.0, 1.0], label({}))

    def test_parallelism_and_slack(self):
        preds = [[], [], [0, 1]]
        weights = [2.0, 1.0, 1.0]
        result = longest_chain(3, preds, weights, label({}))
        assert result.length == pytest.approx(3.0)
        assert result.parallelism == pytest.approx(4.0 / 3.0)
        assert result.slack(3.5) == pytest.approx(0.5)

    def test_to_dict_is_json_serializable(self):
        result = longest_chain(2, [[], [0]], [1.0, 1.0], label({}))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["length"] == 2.0
        assert payload["path"] == [0, 1]
        assert payload["weights"] == "trace"

    def test_render_mentions_kinds_and_makespan(self):
        result = longest_chain(
            2, [[], [0]], [1.0, 1.0], label({(0, 1): "file_seq"}),
        )
        text = result.render(makespan=2.5)
        assert "critical path:" in text
        assert "file_seq" in text
        assert "slack" in text


class TestTraceCriticalPath(object):
    def make_benchmark(self):
        from repro.artc.compiler import compile_trace
        from repro.tracing.snapshot import Snapshot
        from repro.tracing.trace import Trace, TraceRecord

        records = [
            TraceRecord(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"},
                        3, None, 0.0, 0.1),
            TraceRecord(1, 2, "open", {"path": "/g", "flags": "O_RDONLY"},
                        4, None, 0.0, 0.2),
            TraceRecord(2, 1, "pread", {"fd": 3, "nbytes": 10, "offset": 0},
                        10, None, 0.1, 0.4),
            TraceRecord(3, 2, "close", {"fd": 4}, 0, None, 0.2, 0.3),
            TraceRecord(4, 1, "close", {"fd": 3}, 0, None, 0.4, 0.5),
        ]
        snap = Snapshot()
        snap.add("/f", "reg", 4096)
        snap.add("/g", "reg", 4096)
        return compile_trace(Trace(records), snap)

    def test_bounded_by_serial_time_and_longest_call(self):
        from repro.obs import trace_critical_path

        bench = self.make_benchmark()
        result = trace_critical_path(bench)
        durations = [
            a.record.t_return - a.record.t_enter for a in bench.actions
        ]
        assert result.length <= sum(durations) + 1e-12
        assert result.length >= max(durations)
        assert result.n_actions == 5

    def test_full_graph_bound_at_least_reduced(self):
        from repro.obs import trace_critical_path

        bench = self.make_benchmark()
        reduced = trace_critical_path(bench, reduced=True)
        full = trace_critical_path(bench, reduced=False)
        # Reduction removes no constraints, so the chains agree.
        assert full.length == pytest.approx(reduced.length)


def uncapped_temporal_edges(actions):
    """The temporal edges as first written: the completed-before-issue
    prefix not capped at the action's own completion."""
    import bisect

    from repro.core.analysis import thread_edges

    order = sorted(range(len(actions)), key=lambda i: actions[i].record.t_return)
    returns = [actions[i].record.t_return for i in order]
    preds = thread_edges(actions)
    for idx, action in enumerate(actions):
        prefix = bisect.bisect_right(returns, action.record.t_enter)
        for completed in reversed(order[:prefix]):
            if completed < idx:
                if completed not in preds[idx]:
                    preds[idx].append(completed)
                break
    return preds


class TestTemporalEdges(object):
    """Critical-path temporal edges come from the replayer's own
    completed-before-issue prefix, capped at the action's position in
    completion order; the cap changes no edge, since every action past
    that position that completed by the issue ties the action's own
    completion and so comes later in the trace."""

    def test_same_edges_on_every_magritte_benchmark(self, magritte):
        from repro.core.modes import ReplayMode
        from repro.obs.critpath import _enforced_preds

        for name, bench in sorted(magritte.items()):
            preds, _kind = _enforced_preds(bench, ReplayMode.TEMPORAL)
            assert preds == uncapped_temporal_edges(bench.actions), name

    def test_same_edges_with_zero_duration_ties(self):
        import random

        from repro.artc.compiler import compile_trace
        from repro.core.modes import ReplayMode
        from repro.obs.critpath import _enforced_preds
        from repro.tracing.trace import Trace, TraceRecord

        rng = random.Random(7)
        records = []
        for idx in range(300):
            t_enter = rng.randrange(40) / 10.0
            t_return = t_enter + rng.choice((0.0, 0.0, 0.1, 0.3))
            records.append(TraceRecord(idx, rng.choice("ABC"), "stat",
                                       {"path": "/"}, 0, None, t_enter, t_return))
        bench = compile_trace(Trace(records))
        preds, _kind = _enforced_preds(bench, ReplayMode.TEMPORAL)
        assert preds == uncapped_temporal_edges(bench.actions)
        assert any(len(p) > 1 for p in preds)
