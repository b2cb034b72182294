"""Graph sanity: structural invariants of compiled dependency graphs.

The edge-reduction pass (:mod:`repro.core.reduce`) and any future
optimization of the builder must preserve three invariants this pass
certifies:

- **structure**: ``edge_kinds`` and ``preds`` describe the same edge
  set -- no self edges, no backward edges (construction guarantees
  ``src < dst``), no out-of-range endpoints, no duplicate or orphaned
  entries;
- **acyclicity**: the graph plus implicit thread sequencing admits a
  replay order; a violation is reported with the actual cycle members
  (via :func:`repro.core.analysis.find_cycle`);
- **reduction soundness**: ``reduced_preds`` is a subset of ``preds``
  whose closure (union thread sequencing) equals the full closure, so
  the replayer's smaller wait sets enforce exactly the same partial
  order;
- **candidate cover**: the builder's reduction candidates, re-derived
  from the actions' touches under the benchmark's rule set (no
  benchmark keeps them), have the closure of ``preds`` -- so the
  reducer's starting set covers every edge, and an edge missing from
  ``preds`` shows as ``primary-closure-mismatch``.
"""

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.analysis import find_cycle, thread_edges
from repro.core.deps import build_dependencies
from repro.core.reduce import closure_matrix
from repro.lint.report import ERROR, Finding


def _structure_findings(graph: Any) -> List[Finding]:
    findings: List[Finding] = []
    n = graph.n_actions
    pred_pairs: Dict[Tuple[int, int], int] = {}
    for dst, sources in enumerate(graph.preds):
        for src in sources:
            pred_pairs[(src, dst)] = pred_pairs.get((src, dst), 0) + 1
    for (src, dst), count in sorted(pred_pairs.items()):
        if count > 1:
            findings.append(Finding(
                "duplicate-pred", ERROR,
                "edge %d->%d appears %d times in preds" % (src, dst, count),
                actions=(src, dst),
            ))
    for src, dst in sorted(graph.edge_kinds):
        kind = graph.edge_kinds[(src, dst)]
        if not (0 <= src < n and 0 <= dst < n):
            findings.append(Finding(
                "edge-out-of-range", ERROR,
                "%s edge %d->%d outside action range [0, %d)"
                % (kind, src, dst, n),
                actions=tuple(a for a in (src, dst) if 0 <= a < n),
            ))
            continue
        if src == dst:
            findings.append(Finding(
                "self-edge", ERROR,
                "%s edge %d->%d is a self edge" % (kind, src, dst),
                actions=(src,),
            ))
            continue
        if src > dst:
            findings.append(Finding(
                "backward-edge", ERROR,
                "%s edge %d->%d points backward in trace order"
                % (kind, src, dst),
                actions=(src, dst),
            ))
        if (src, dst) not in pred_pairs:
            findings.append(Finding(
                "orphaned-edge", ERROR,
                "%s edge %d->%d attributed in edge_kinds but absent "
                "from preds" % (kind, src, dst),
                actions=(src, dst),
            ))
    for (src, dst) in sorted(pred_pairs):
        if (src, dst) not in graph.edge_kinds:
            findings.append(Finding(
                "unattributed-edge", ERROR,
                "edge %d->%d in preds has no edge_kinds attribution"
                % (src, dst),
                actions=(src, dst),
            ))
    return findings


def _merge_thread_edges(pred_lists: Sequence[Sequence[int]],
                        implicit: Sequence[Sequence[int]]
                        ) -> List[List[int]]:
    return [
        list(preds) + list(extra)
        for preds, extra in zip(pred_lists, implicit)
    ]


def check_graph(graph: Any, actions: Sequence[Any], ruleset: Any
                ) -> Tuple[List[Finding], Dict[str, Any]]:
    """Run every graph invariant; returns (findings, stats).  ``actions``
    carry their touches (``touched_actions()``) and ``ruleset`` is the
    one the graph was built under: the candidate cover re-derives the
    builder's candidates from them."""
    findings = _structure_findings(graph)
    n = graph.n_actions
    tid_of = [action.record.tid for action in actions]
    implicit = thread_edges(actions)

    cycle = None
    if all(f.check != "edge-out-of-range" for f in findings):
        cycle = find_cycle(_merge_thread_edges(graph.preds, implicit))
    if cycle is not None:
        findings.append(Finding(
            "cycle", ERROR,
            "dependency cycle of %d actions: %s"
            % (len(cycle), " -> ".join(str(c) for c in cycle + cycle[:1])),
            actions=tuple(cycle),
            detail={"members": list(cycle)},
        ))

    closures_equal = None
    reduced_checked = False
    if graph.reduced_preds is not None and cycle is None:
        reduced_checked = True
        subset_ok = True
        for dst, wait in enumerate(graph.reduced_preds):
            extra = set(wait) - set(graph.preds[dst])
            for src in sorted(extra):
                subset_ok = False
                findings.append(Finding(
                    "reduced-not-subset", ERROR,
                    "reduced wait %d->%d is not a materialized edge"
                    % (src, dst),
                    actions=(src, dst),
                ))
        closures_equal = False
        if subset_ok:
            full = closure_matrix(n, graph.preds, tid_of)
            reduced = closure_matrix(n, graph.reduced_preds, tid_of)
            closures_equal = full == reduced
        if subset_ok and not closures_equal:
            for idx in range(n):
                if full[idx] != reduced[idx]:
                    missing = full[idx] & ~reduced[idx]
                    lost = [b for b in range(n) if (missing >> b) & 1]
                    gained_bits = reduced[idx] & ~full[idx]
                    gained = [b for b in range(n) if (gained_bits >> b) & 1]
                    parts = []
                    if lost:
                        parts.append("drops ancestors %s" % lost[:8])
                    if gained:
                        parts.append("invents ancestors %s" % gained[:8])
                    findings.append(Finding(
                        "closure-mismatch", ERROR,
                        "reduced_preds closure differs at action %d: %s"
                        % (idx, "; ".join(parts)),
                        actions=(idx,),
                        detail={"lost": lost[:32], "gained": gained[:32]},
                    ))
                    break  # one witness is enough; the rest follows

    primary_checked = False
    if cycle is None and len(actions) == n:
        primary_checked = True
        candidates: List[List[int]] = []
        build_dependencies(actions, ruleset, candidates)
        full = closure_matrix(n, graph.preds, tid_of)
        primary = closure_matrix(n, candidates, tid_of)
        if full != primary:
            for idx in range(n):
                if full[idx] != primary[idx]:
                    findings.append(Finding(
                        "primary-closure-mismatch", ERROR,
                        "the rule set's reduction candidates differ in "
                        "closure from preds at action %d (an edge is "
                        "missing or invented, or the candidates no longer "
                        "cover the full edge set)" % idx,
                        actions=(idx,),
                    ))
                    break

    stats = {
        "actions": n,
        "edges": graph.n_edges,
        "reduced_edges": graph.n_reduced_edges,
        "acyclic": cycle is None,
        "reduction_checked": reduced_checked,
        "primary_checked": primary_checked,
    }
    return findings, stats
