"""Graph sanity: structural invariants of compiled dependency graphs.

The edge-reduction pass (:mod:`repro.core.reduce`) and any future
optimization of the builder must preserve the invariants this pass
certifies.  The graph's own three (:func:`graph_invariants`) are also
the graph obligations of ``artc verify``'s certificates:

- **structure**: ``edge_kinds`` and ``preds`` describe the same edge
  set -- no self edges, no backward edges (construction guarantees
  ``src < dst``), no out-of-range endpoints, no duplicate or orphaned
  entries -- and no list, ``reduced_preds`` included, names an action
  out of range or twice (a pending counter would be decremented twice);
- **acyclicity**: the graph plus implicit thread sequencing admits a
  replay order; a violation is reported with the actual cycle members
  (via :func:`repro.core.analysis.find_cycle`);
- **reduction soundness**: ``reduced_preds`` is a subset of ``preds``
  whose closure (union thread sequencing) equals the full closure, so
  the replayer's smaller wait sets enforce exactly the same partial
  order.

The fourth needs the actions' touches, so only :func:`check_graph`
runs it:

- **candidate cover**: the builder's reduction candidates, re-derived
  from the actions' touches under the benchmark's rule set (no
  benchmark keeps them), have the closure of ``preds`` -- so the
  reducer's starting set covers every edge, and an edge missing from
  ``preds`` shows as ``primary-closure-mismatch``.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import find_cycle, thread_sequenced
from repro.core.deps import build_dependencies
from repro.core.reduce import closure_matrix
from repro.lint.report import ERROR, Finding


def _list_findings(name: str, lists: Sequence[Sequence[int]], n: int
                   ) -> Tuple[List[Finding], Dict[Tuple[int, int], int]]:
    """Entries of the predecessor lists ``name`` outside ``[0, n)`` or
    listed twice; returns the findings and each in-range pair's count."""
    findings: List[Finding] = []
    pairs: Dict[Tuple[int, int], int] = {}
    for dst, sources in enumerate(lists):
        for src in sources:
            if 0 <= src < n:
                pairs[(src, dst)] = pairs.get((src, dst), 0) + 1
            else:
                findings.append(Finding(
                    "pred-out-of-range", ERROR,
                    "%s[%d] names predecessor %d outside [0, %d)"
                    % (name, dst, src, n),
                    actions=(dst,),
                ))
    for (src, dst), count in sorted(pairs.items()):
        if count > 1:
            findings.append(Finding(
                "duplicate-pred", ERROR,
                "edge %d->%d appears %d times in %s" % (src, dst, count, name),
                actions=(src, dst),
            ))
    return findings, pairs


def _structure_findings(graph: Any) -> List[Finding]:
    n = graph.n_actions
    findings, pred_pairs = _list_findings("preds", graph.preds, n)
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
    if graph.reduced_preds is not None:
        findings.extend(_list_findings("reduced_preds", graph.reduced_preds, n)[0])
    return findings


def _first_difference(closure: List[int], other: List[int]) -> Optional[int]:
    """The first action whose closure rows differ, or None."""
    return next((idx for idx, (row, mine) in enumerate(zip(closure, other))
                 if row != mine), None)


def graph_invariants(graph: Any, actions: Sequence[Any]
                     ) -> Tuple[List[Finding], Dict[str, Any]]:
    """The graph's own invariants: structure, acyclicity under thread
    sequencing, and reduction soundness.  Returns (findings, stats);
    ``stats["lists"]`` counts the predecessor lists checked."""
    findings = _structure_findings(graph)
    n = graph.n_actions
    tid_of = [action.record.tid for action in actions]

    cycle = None
    if all(f.check != "pred-out-of-range" for f in findings):
        cycle = find_cycle(thread_sequenced(graph.preds, actions))
    if cycle is not None:
        findings.append(Finding(
            "cycle", ERROR,
            "dependency cycle of %d actions: %s"
            % (len(cycle), " -> ".join(str(c) for c in cycle + cycle[:1])),
            actions=tuple(cycle),
            detail={"members": list(cycle)},
        ))

    reduced_checked = graph.reduced_preds is not None and cycle is None
    if reduced_checked:
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
        idx = None
        if subset_ok:
            full = closure_matrix(n, graph.preds, tid_of)
            reduced = closure_matrix(n, graph.reduced_preds, tid_of)
            idx = _first_difference(full, reduced)
        if idx is not None:  # one witness is enough; the rest follows
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
    stats = {
        "lists": len(graph.preds) + len(graph.reduced_preds or ()),
        "acyclic": cycle is None,
        "reduction_checked": reduced_checked,
    }
    return findings, stats


def check_graph(graph: Any, actions: Sequence[Any], ruleset: Any
                ) -> Tuple[List[Finding], Dict[str, Any]]:
    """Run every graph invariant; returns (findings, stats).  ``actions``
    carry their touches (``touched_actions()``) and ``ruleset`` is the
    one the graph was built under: the candidate cover re-derives the
    builder's candidates from them."""
    findings, invariants = graph_invariants(graph, actions)
    n = graph.n_actions
    tid_of = [action.record.tid for action in actions]
    primary_checked = False
    if invariants["acyclic"] and len(actions) == n:
        primary_checked = True
        candidates: List[List[int]] = []
        build_dependencies(actions, ruleset, candidates)
        idx = _first_difference(closure_matrix(n, graph.preds, tid_of),
                                closure_matrix(n, candidates, tid_of))
        if idx is not None:
            findings.append(Finding(
                "primary-closure-mismatch", ERROR,
                "the rule set's reduction candidates differ in "
                "closure from preds at action %d (an edge is "
                "missing or invented, or the candidates no longer "
                "cover the full edge set)" % idx,
                actions=(idx,),
            ))

    stats = {
        "actions": n,
        "edges": graph.n_edges,
        "reduced_edges": graph.n_reduced_edges,
        "acyclic": invariants["acyclic"],
        "reduction_checked": invariants["reduction_checked"],
        "primary_checked": primary_checked,
    }
    return findings, stats
