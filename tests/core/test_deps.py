"""Tests for dependency-graph construction."""

import pytest

from repro.core.analysis import topological_order, validate_order
from repro.core.deps import DependencyBuilder, build_dependencies, temporal_graph
from repro.core.model import TraceModel
from repro.core.modes import RuleSet, named_rulesets
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord


def _record(idx, tid, name, args, ret=0, err=None):
    t = float(idx)
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.5)


def make_model(records, snapshot_entries=()):
    snapshot = Snapshot()
    for entry in snapshot_entries:
        snapshot.add(*entry)
    return TraceModel(Trace(records), snapshot)


def _reaches(actions, graph, src, dst):
    """Is ``src`` ordered before ``dst`` by graph edges + thread order?"""
    per_thread = {}
    for action in actions:
        per_thread.setdefault(action.record.tid, []).append(action.idx)
    preds = [list(p) for p in graph.preds]
    for acts in per_thread.values():
        for earlier, later in zip(acts, acts[1:]):
            preds[later].append(earlier)
    frontier = [dst]
    seen = set()
    while frontier:
        node = frontier.pop()
        if node == src:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(preds[node])
    return False


@pytest.fixture
def handoff_model():
    """T1 opens and writes; T2 reads via the same descriptor and closes."""
    records = [
        _record(0, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
        _record(1, "T1", "write", {"fd": 3, "nbytes": 100}, ret=100),
        _record(2, "T2", "read", {"fd": 3, "nbytes": 100}, ret=100),
        _record(3, "T2", "close", {"fd": 3}),
    ]
    return make_model(records)


class TestBasicEdges(object):
    def test_cross_thread_fd_dependency(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.artc_default())
        # T2's read must wait for T1's open (directly or transitively
        # through T1's thread order).
        assert _reaches(handoff_model.actions, graph, 0, 2)
        # T2's close must wait for T1's write.
        assert _reaches(handoff_model.actions, graph, 1, 3)

    def test_same_thread_edges_elided(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.artc_default())
        assert 0 not in graph.preds[1]  # same thread: implied
        assert 2 not in graph.preds[3]

    def test_unconstrained_has_no_edges(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.unconstrained())
        assert graph.n_edges == 0

    def test_edges_deduplicated(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.artc_default())
        for preds in graph.preds:
            assert len(preds) == len(set(preds))

    def test_edge_kinds_recorded(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.artc_default())
        kinds = set(graph.edge_kinds.values())
        assert kinds <= {"file_seq", "fd_seq", "fd_stage", "path_stage", "name"}
        assert kinds


class TestRuleSelection(object):
    def test_fd_stage_weaker_than_fd_seq(self):
        # Two reads on the same fd from different threads: fd_seq chains
        # them, fd_stage does not.
        records = [
            _record(0, "T1", "open", {"path": "/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
            _record(1, "T1", "pread", {"fd": 3, "nbytes": 10, "offset": 0}, ret=10),
            _record(2, "T2", "pread", {"fd": 3, "nbytes": 10, "offset": 50}, ret=10),
        ]
        model = make_model(records)
        seq_rules = RuleSet(fd_seq=True, file_seq=False)
        stage_rules = RuleSet(fd_seq=False, fd_stage=True, file_seq=False)
        graph_seq = build_dependencies(model.actions, seq_rules)
        graph_stage = build_dependencies(model.actions, stage_rules)
        assert 1 in graph_seq.preds[2]  # chained
        assert 1 not in graph_stage.preds[2]  # only create -> use
        assert 0 in graph_stage.preds[2]

    def test_file_seq_orders_accesses_via_different_paths(self):
        # Symlink awareness: /link and /f are the same file, so file_seq
        # must chain accesses through both names (section 4.3.1).
        records = [
            _record(0, "T1", "open", {"path": "/f", "flags": "O_RDWR"}, ret=3),
            _record(1, "T1", "write", {"fd": 3, "nbytes": 10}, ret=10),
            _record(2, "T2", "open", {"path": "/link", "flags": "O_RDONLY"}, ret=4),
            _record(3, "T2", "read", {"fd": 4, "nbytes": 10}, ret=10),
        ]
        model = make_model(
            records,
            snapshot_entries=[
                ("/f", "reg", 100),
                ("/link", "symlink", 0, "/f"),
            ],
        )
        graph = build_dependencies(model.actions, RuleSet.artc_default())
        assert 1 in graph.preds[3] or 1 in graph.preds[2]

    def test_path_name_rule_orders_reuse(self):
        # Same path name used for two different files: generations must
        # not be reordered.
        records = [
            _record(0, "T1", "open", {"path": "/tmp/x", "flags": "O_WRONLY|O_CREAT"}, ret=3),
            _record(1, "T1", "close", {"fd": 3}),
            _record(2, "T1", "unlink", {"path": "/tmp/x"}),
            _record(3, "T2", "open", {"path": "/tmp/x", "flags": "O_WRONLY|O_CREAT"}, ret=3),
        ]
        model = make_model(records)
        graph = build_dependencies(model.actions, RuleSet.artc_default())
        assert 2 in graph.preds[3]

    def test_failed_stat_ordered_into_absence_generation(self):
        # A stat that failed in the trace must replay after the unlink
        # that emptied the name and before the recreation.
        records = [
            _record(0, "T1", "open", {"path": "/d/f", "flags": "O_WRONLY|O_CREAT"}, ret=3),
            _record(1, "T1", "close", {"fd": 3}),
            _record(2, "T1", "unlink", {"path": "/d/f"}),
            _record(3, "T2", "stat", {"path": "/d/f"}, ret=-1, err="ENOENT"),
            _record(4, "T1", "open", {"path": "/d/f", "flags": "O_WRONLY|O_CREAT"}, ret=3),
        ]
        model = make_model(records, snapshot_entries=[("/d", "dir")])
        graph = build_dependencies(model.actions, RuleSet.artc_default())
        assert 2 in graph.preds[3]  # stat waits for unlink
        assert 3 in graph.preds[4]  # recreation waits for the failed stat

    def test_program_seq_flag_propagates(self, handoff_model):
        graph = build_dependencies(
            handoff_model.actions, RuleSet(program_seq=True)
        )
        assert graph.program_seq


class TestGraphShape(object):
    def test_all_edges_point_forward(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.artc_default())
        for src, dst in graph.edges():
            assert src < dst

    def test_acyclic_and_admissible(self, handoff_model):
        actions = handoff_model.actions
        rules = RuleSet.artc_default()
        graph = build_dependencies(actions, rules)
        order = topological_order(graph, actions)
        assert validate_order(actions, rules, order) == []

    def test_succs_inverse_of_preds(self, handoff_model):
        graph = build_dependencies(handoff_model.actions, RuleSet.artc_default())
        succs = graph.succs()
        for dst, sources in enumerate(graph.preds):
            for src in sources:
                assert dst in succs[src]


class TestTemporalGraph(object):
    def test_chain_skips_same_thread(self):
        records = [
            _record(0, "T1", "stat", {"path": "/"}, ret=0),
            _record(1, "T1", "stat", {"path": "/"}, ret=0),
            _record(2, "T2", "stat", {"path": "/"}, ret=0),
            _record(3, "T1", "stat", {"path": "/"}, ret=0),
        ]
        model = make_model(records)
        graph = temporal_graph(model.actions)
        assert graph.preds[1] == []  # same thread
        assert graph.preds[2] == [1]
        assert graph.preds[3] == [2]

    def test_temporal_usually_has_more_edges_than_artc(self):
        # Alternating threads reading their own files: ARTC sees no
        # cross-thread resources, temporal chains every alternation.
        records = []
        for index in range(20):
            tid = "T%d" % (index % 2)
            records.append(
                _record(
                    index,
                    tid,
                    "pread",
                    {"fd": 3 + (index % 2), "nbytes": 10, "offset": index},
                    ret=10,
                )
            )
        model = make_model(records)
        artc = build_dependencies(model.actions, RuleSet.artc_default())
        temporal = temporal_graph(model.actions)
        assert temporal.n_edges > artc.n_edges


def pruned_graph(actions, ruleset):
    """The graph of the windowed compile's builder, which drops a
    retired resource's state."""
    builder = DependencyBuilder(ruleset, prune_dead=True)
    for action in actions:
        builder.feed(action, action.touches)
    return builder.graph


class TestPrunedBuilder(object):
    def test_use_recorded_after_its_close_keeps_its_edge(self):
        # T2's fsync overlapped T1's close and was recorded after it.
        records = [
            _record(0, "T1", "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3),
            _record(1, "T1", "close", {"fd": 3}, ret=0),
            _record(2, "T2", "fsync", {"fd": 3}, ret=0),
        ]
        model = make_model(records, [("/f", "reg", 10)])
        ruleset = RuleSet.artc_default()
        batch = build_dependencies(model.actions, ruleset)
        assert batch.edge_kinds[(1, 2)] == "fd_seq"
        assert pruned_graph(model.actions, ruleset).edge_kinds == batch.edge_kinds

    def test_next_generation_releases_the_closed_one(self):
        records = [
            _record(0, "T1", "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3),
            _record(1, "T1", "close", {"fd": 3}, ret=0),
            _record(2, "T2", "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3),
        ]
        model = make_model(records, [("/f", "reg", 10)])
        builder = DependencyBuilder(RuleSet.artc_default(), prune_dead=True)
        for action in model.actions[:2]:
            builder.feed(action, action.touches)
        assert 1 in builder.live_refs()
        builder.feed(model.actions[2], model.actions[2].touches)
        assert 1 not in builder.live_refs()
        assert len(builder.closed_fd) == 0

    def test_pruned_edges_equal_batch_edges_on_every_profile(self, magritte):
        for name, bench in sorted(magritte.items()):
            trace = Trace([action.record for action in bench.actions])
            actions = TraceModel(trace, bench.snapshot).actions
            for mode, ruleset in named_rulesets().items():
                batch = build_dependencies(actions, ruleset)
                pruned = pruned_graph(actions, ruleset)
                assert pruned.edge_kinds == batch.edge_kinds, (name, mode)
