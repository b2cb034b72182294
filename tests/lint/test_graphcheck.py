"""Graph sanity pass: clean compiles certify, corrupted graphs are
caught (the regression gate for the edge-reduction pass)."""

import pytest

from repro.artc import artifact
from repro.artc.benchmark import CompiledBenchmark
from repro.artc.compiler import compile_trace
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.deps import DependencyGraph, build_dependencies
from repro.core.model import TraceModel
from repro.core.modes import RuleSet
from repro.core.reduce import reduce_graph
from repro.lint import lint_benchmark
from repro.lint.graphcheck import check_graph
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.workloads.magritte import build_suite


def rec(idx, tid, name, args, ret=0, err=None):
    return TraceRecord(idx, tid, name, args, ret, err, float(idx), idx + 0.2)


# The paper's introductory hazard: open/write/close handed across three
# threads, every edge cross-thread (so none is implied by sequencing).
HANDOFF = [
    rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
    rec(1, "T2", "write", {"fd": 3, "nbytes": 4096}, ret=4096),
    rec(2, "T3", "close", {"fd": 3}),
    rec(3, "T2", "stat", {"path": "/d/f"}),
]


RULES = RuleSet.artc_default()


def compiled(records=HANDOFF, reduce=True):
    snap = Snapshot()
    snap.add("/d", "dir")
    model = TraceModel(Trace(records), snap)
    graph = build_dependencies(model.actions, RULES)
    if reduce:
        reduce_graph(graph, [a.record.tid for a in model.actions])
    return model.actions, graph


def checks_of(findings):
    return sorted(finding.check for finding in findings)


class TestCleanGraph(object):
    def test_compiled_graph_certifies(self):
        actions, graph = compiled()
        findings, stats = check_graph(graph, actions, RULES)
        assert findings == []
        assert stats["acyclic"]
        assert stats["reduction_checked"]
        assert stats["primary_checked"]
        assert stats["edges"] == graph.n_edges

    def test_unreduced_graph_skips_reduction_check(self):
        actions, graph = compiled(reduce=False)
        findings, stats = check_graph(graph, actions, RULES)
        assert findings == []
        assert not stats["reduction_checked"]


class TestCorruptedReduction(object):
    def _drop_cross_thread_wait(self, actions, graph):
        tid_of = [a.record.tid for a in actions]
        for dst, wait in enumerate(graph.reduced_preds):
            for src in wait:
                if tid_of[src] != tid_of[dst]:
                    wait.remove(src)
                    return src, dst
        raise AssertionError("no cross-thread reduced edge to drop")

    def test_dropped_wait_is_caught(self):
        actions, graph = compiled()
        src, dst = self._drop_cross_thread_wait(actions, graph)
        findings, stats = check_graph(graph, actions, RULES)
        assert "closure-mismatch" in checks_of(findings)
        witness = [f for f in findings if f.check == "closure-mismatch"][0]
        assert witness.detail["lost"]

    def test_foreign_wait_is_caught(self):
        actions, graph = compiled()
        # A wait on an action that is not a materialized edge.
        graph.reduced_preds[3].append(1)
        findings, _stats = check_graph(graph, actions, RULES)
        assert "reduced-not-subset" in checks_of(findings)

    def test_intact_reduction_stays_clean(self):
        actions, graph = compiled()
        findings, stats = check_graph(graph, actions, RULES)
        assert findings == [] and stats["reduction_checked"]


class TestStructure(object):
    def test_cycle_reported_with_members(self):
        actions, _ = compiled()
        graph = DependencyGraph(len(actions))
        graph.add_edge(1, 2, "fake")
        # add_edge refuses backward edges' bookkeeping errors, so forge
        # the corrupt state the way a buggy builder would.
        graph.edge_kinds[(2, 1)] = "fake"
        graph.preds[1].append(2)
        findings, stats = check_graph(graph, actions, RULES)
        assert not stats["acyclic"]
        cycle = [f for f in findings if f.check == "cycle"][0]
        assert set(cycle.detail["members"]) == {1, 2}
        assert "->" in cycle.message

    def test_self_edge_reported(self):
        actions, _ = compiled()
        graph = DependencyGraph(len(actions))
        graph.edge_kinds[(2, 2)] = "fake"
        graph.preds[2].append(2)
        findings, _stats = check_graph(graph, actions, RULES)
        assert "self-edge" in checks_of(findings)

    def test_orphaned_and_unattributed_edges_reported(self):
        actions, _ = compiled()
        graph = DependencyGraph(len(actions))
        graph.edge_kinds[(0, 2)] = "fake"  # attributed but not in preds
        graph.preds[3].append(1)           # in preds but unattributed
        findings, _stats = check_graph(graph, actions, RULES)
        checks = checks_of(findings)
        assert "orphaned-edge" in checks
        assert "unattributed-edge" in checks

    def test_out_of_range_edge_reported(self):
        actions, _ = compiled()
        graph = DependencyGraph(len(actions))
        graph.edge_kinds[(0, 99)] = "fake"
        findings, _stats = check_graph(graph, actions, RULES)
        assert "edge-out-of-range" in checks_of(findings)

    def test_duplicate_pred_reported(self):
        actions, _ = compiled()
        graph = DependencyGraph(len(actions))
        graph.add_edge(0, 2, "fake")
        graph.preds[2].append(0)
        findings, _stats = check_graph(graph, actions, RULES)
        assert "duplicate-pred" in checks_of(findings)


def graph_pass(report):
    return [p for p in report.passes if p.name == "graph"][0]


@pytest.fixture(scope="module")
def magritte_bench():
    app = "numbers_start5"
    traced = trace_application(
        build_suite([app])[app], PLATFORMS["mac-ssd"], seed=0, warm_cache=True
    )
    return compile_trace(traced.trace, traced.snapshot)


class TestLoadedArtifact(object):
    """No benchmark keeps its reduction candidates: the graph pass
    derives them from the touches under the benchmark's rule set, so a
    loaded ``.artcb`` is checked exactly as a fresh compile is."""

    def test_loaded_artcb_checks_the_candidate_cover(self, magritte_bench,
                                                     tmp_path):
        path = str(tmp_path / "sample.artcb")
        artifact.save(magritte_bench, path)
        loaded = lint_benchmark(artifact.load(path), modes=False)
        assert graph_pass(loaded).stats["primary_checked"] is True
        assert loaded.clean
        fresh = lint_benchmark(magritte_bench, modes=False)
        assert loaded.to_dict() == fresh.to_dict()

    def test_artifact_missing_a_builder_edge_is_caught(self, magritte_bench):
        payload = magritte_bench.to_payload()
        edges = payload["edges"]
        # Drop one of the builder's edges, a reduced wait, from the
        # edges and from the reduced waits alike.
        dst = next(d for d, wait in enumerate(payload["reduced_preds"]) if wait)
        src = payload["reduced_preds"][dst].pop()
        at = next(i for i, edge in enumerate(zip(edges["src"], edges["dst"]))
                  if edge == (src, dst))
        for column in edges.values():
            del column[at]
        mutant = artifact.unpack_bytes(
            artifact.pack_bytes(CompiledBenchmark.from_payload(payload))
        )
        report = lint_benchmark(mutant, modes=False)
        checks = checks_of(report.findings)
        assert "primary-closure-mismatch" in checks
