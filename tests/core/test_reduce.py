"""Tests for the transitive reduction pass (repro.core.reduce)."""

from repro.core.deps import DependencyGraph, build_dependencies
from repro.core.modes import RuleSet
from repro.core.reduce import closure_matrix, reduce_graph, thread_prev_of
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.core.model import TraceModel


def _record(idx, tid, name, args, ret=0, err=None):
    t = float(idx)
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.5)


def make_model(records, snapshot_entries=()):
    snapshot = Snapshot()
    for entry in snapshot_entries:
        snapshot.add(*entry)
    return TraceModel(Trace(records), snapshot)


def _graph(n, edges, tids):
    graph = DependencyGraph(n)
    for src, dst in edges:
        graph.add_edge(src, dst, "test")
    removed = reduce_graph(graph, tids)
    return graph, removed


class TestThreadPrev(object):
    def test_interleaved_threads(self):
        assert thread_prev_of(["A", "B", "A", "B", "A"]) == [
            None, None, 0, 1, 2,
        ]

    def test_empty(self):
        assert thread_prev_of([]) == []


class TestReduceGraph(object):
    def test_explicit_transitive_edge_removed(self):
        # 0 -> 1 -> 2 plus the implied 0 -> 2 (three threads, so thread
        # order contributes nothing).
        graph, removed = _graph(
            3, [(0, 1), (1, 2), (0, 2)], ["A", "B", "C"]
        )
        assert removed == 1
        assert graph.reduced_preds == [[], [0], [1]]
        assert graph.n_reduced_edges == 2

    def test_thread_chain_implies_edge(self):
        # 0 -> 1, and thread B plays 1 then 2 in order, so 0 -> 2 is
        # implied by the thread chain even with no explicit 1 -> 2 edge.
        graph, removed = _graph(3, [(0, 1), (0, 2)], ["A", "B", "B"])
        assert removed == 1
        assert graph.reduced_preds == [[], [0], []]

    def test_independent_edges_kept(self):
        graph, removed = _graph(
            4, [(0, 3), (1, 3), (2, 3)], ["A", "B", "C", "D"]
        )
        assert removed == 0
        assert sorted(graph.reduced_preds[3]) == [0, 1, 2]

    def test_earlier_same_thread_pred_redundant(self):
        # Both actions 0 and 1 are thread A; an edge from each to 2
        # needs only the later one (0 is implied through A's order).
        graph, removed = _graph(3, [(0, 2), (1, 2)], ["A", "A", "B"])
        assert removed == 1
        assert graph.reduced_preds[2] == [1]

    def test_full_edge_set_untouched(self):
        graph, _ = _graph(3, [(0, 1), (1, 2), (0, 2)], ["A", "B", "C"])
        assert graph.n_edges == 3
        assert set(graph.edge_kinds) == {(0, 1), (1, 2), (0, 2)}
        assert graph.preds == [[], [0], [1, 0]]

    def test_reduced_is_subset_preserving_order(self):
        graph, _ = _graph(
            5,
            [(0, 4), (1, 4), (2, 4), (3, 4), (0, 3), (1, 2)],
            ["A", "B", "C", "D", "E"],
        )
        for full, reduced in zip(graph.preds, graph.reduced_preds):
            kept = set(reduced)
            assert kept <= set(full)
            assert reduced == [src for src in full if src in kept]

    def test_closure_preserved(self):
        edges = [(0, 2), (0, 4), (1, 4), (2, 5), (3, 5), (1, 5), (0, 5)]
        tids = ["A", "B", "A", "C", "B", "C"]
        graph, _ = _graph(6, edges, tids)
        assert closure_matrix(6, graph.preds, tids) == closure_matrix(
            6, graph.reduced_preds, tids
        )


class TestBuilderWatermarks(object):
    def _delete_fanin_model(self):
        """Three T1 reads then a T2 unlink: the unlink's fan-in to the
        first two reads is implied by T1's thread order."""
        records = [
            _record(0, "T1", "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3),
            _record(1, "T1", "read", {"fd": 3, "nbytes": 10}, ret=10),
            _record(2, "T1", "read", {"fd": 3, "nbytes": 10}, ret=10),
            _record(3, "T1", "close", {"fd": 3}),
            _record(4, "T2", "unlink", {"path": "/f"}),
        ]
        return make_model(records, snapshot_entries=[("/f", "reg", 100)])

    def test_delete_fanin_collapses_to_last_use(self):
        model = self._delete_fanin_model()
        graph = build_dependencies(model.actions, RuleSet.artc_default())
        tids = [a.record.tid for a in model.actions]
        reduce_graph(graph, tids)
        # Full graph still records the whole fan-in (Figure-8 parity)...
        full_delete_preds = set(graph.preds[4])
        assert {0, 3} <= full_delete_preds
        # ...but the replayer waits only on T1's last action before the
        # unlink.
        assert graph.reduced_preds[4] == [max(graph.preds[4])]

    def test_primary_closure_covers_full_closure(self):
        model = self._delete_fanin_model()
        candidates = []
        graph = build_dependencies(
            model.actions, RuleSet.artc_default(), candidates
        )
        tids = [a.record.tid for a in model.actions]
        n = len(model.actions)
        assert not hasattr(graph, "primary_preds")
        assert closure_matrix(n, candidates, tids) == closure_matrix(
            n, graph.preds, tids
        )

    def test_candidates_give_the_full_scans_wait_lists(self):
        model = self._delete_fanin_model()
        tids = [a.record.tid for a in model.actions]
        candidates = []
        fast = build_dependencies(
            model.actions, RuleSet.artc_default(), candidates
        )
        full = build_dependencies(model.actions, RuleSet.artc_default())
        reduce_graph(fast, tids, candidates)
        reduce_graph(full, tids)
        assert fast.reduced_preds == full.reduced_preds


class TestSuccsCache(object):
    def test_succs_cached_and_invalidated_by_add_edge(self):
        graph = DependencyGraph(3)
        graph.add_edge(0, 1, "test")
        first = graph.succs()
        assert first[0] == [1]
        # Cached: same object until the graph changes.
        assert graph.succs() is first
        assert graph.add_edge(1, 2, "test")
        second = graph.succs()
        assert second is not first
        assert second[1] == [2]

    def test_duplicate_edge_keeps_cache(self):
        graph = DependencyGraph(2)
        graph.add_edge(0, 1, "test")
        cached = graph.succs()
        assert not graph.add_edge(0, 1, "other")  # duplicate: no-op
        assert graph.succs() is cached
