"""The critical-path profiler: replay-makespan lower bounds.

Replay enforcement delays an action's *issue* until every enforced
predecessor's *completion*, and each replay thread plays its own
actions in order.  Both constraint families have the same shape —
``issue(v) >= done(u)`` — so the longest weighted chain through the
enforced dependency graph, with each action weighted by its service
time, is a hard lower bound on the replay makespan: no scheduler, no
matter how parallel the hardware, can finish faster.

Comparing that bound to the measured makespan answers "is this replay
mode bound by its dependency structure or by resource contention?",
which is the mechanical content of the paper's Figure 8 (edge shape)
and Figure 9 (achievable concurrency) discussions.  Attribution tells
*which rule* put each link on the chain: a critical path dominated by
``thread`` edges is limited by the application's own threading; one
dominated by ``path_stage``/``file_seq`` edges is limited by ROOT's
ordering rules and would speed up under a weaker rule set.

Which constraints a mode enforces is not decided here: it is the
replayer's own decision (:func:`repro.artc.planir.enforced_order` --
serial, the graph's reduced or full lists plus thread sequencing, or
thread sequencing alone), and the temporal mode's completed-before-issue
prefix is the replayer's too
(:func:`repro.core.analysis.completed_before_issue`).

Weights come either from a replay report (measured per-action service
times — the bound is then exact for *that* run) or from the original
trace's call durations (a prediction available at compile time, used
by ``artc stats``, over the ARTC-mode order).
"""

from repro.artc import planir
from repro.core.analysis import completed_before_issue, thread_edges, thread_sequenced
from repro.core.modes import ReplayMode

#: Attribution label for the chain head (no incoming critical edge).
START = "start"
#: Attribution label for implicit same-thread sequencing.
THREAD = "thread"


class CriticalPathResult(object):
    """The longest weighted chain and its per-rule attribution.

    - ``length``: total weight along the chain — the makespan lower
      bound, in simulated seconds.
    - ``path``: action indices on the chain, in dependency order.
    - ``time_by_kind``: seconds of chain weight attributed to the rule
      kind of each action's critical in-edge (``thread`` for implicit
      sequencing, ``start`` for the chain head).
    - ``edges_by_kind``: count of chain links per rule kind.
    - ``total_weight``: sum of every action's weight (the serial
      bound; ``length / total_weight`` is the inherent parallelism).
    """

    __slots__ = ("length", "path", "time_by_kind", "edges_by_kind",
                 "total_weight", "n_actions", "weights_label")

    def __init__(self, length, path, time_by_kind, edges_by_kind,
                 total_weight, n_actions, weights_label):
        self.length = length
        self.path = path
        self.time_by_kind = time_by_kind
        self.edges_by_kind = edges_by_kind
        self.total_weight = total_weight
        self.n_actions = n_actions
        self.weights_label = weights_label

    @property
    def parallelism(self):
        """Best-case mean concurrency: serial time over chain time."""
        return self.total_weight / self.length if self.length > 0 else 0.0

    def slack(self, makespan):
        """Measured makespan minus the bound (>= 0 when the bound is
        computed from the same run's service times)."""
        return makespan - self.length

    def to_dict(self):
        return {
            "length": self.length,
            "path": list(self.path),
            "path_actions": len(self.path),
            "n_actions": self.n_actions,
            "total_weight": self.total_weight,
            "parallelism": self.parallelism,
            "time_by_kind": dict(self.time_by_kind),
            "edges_by_kind": dict(self.edges_by_kind),
            "weights": self.weights_label,
        }

    def render(self, makespan=None):
        lines = [
            "critical path:   %.6f s over %d of %d actions (%s weights)"
            % (self.length, len(self.path), self.n_actions, self.weights_label),
            "serial time:     %.6f s (inherent parallelism %.2fx)"
            % (self.total_weight, self.parallelism),
        ]
        if makespan is not None:
            share = (self.length / makespan * 100.0) if makespan > 0 else 0.0
            lines.append(
                "measured:        %.6f s (path covers %.1f%%, slack %.6f s)"
                % (makespan, share, self.slack(makespan))
            )
        for kind, seconds in sorted(
            self.time_by_kind.items(), key=lambda kv: -kv[1]
        ):
            share = (seconds / self.length * 100.0) if self.length > 0 else 0.0
            lines.append(
                "  %-12s %.6f s  (%5.1f%%, %d links)"
                % (kind, seconds, share, self.edges_by_kind.get(kind, 0))
            )
        return "\n".join(lines)

    def __repr__(self):
        return "<CriticalPathResult %.6fs over %d actions>" % (
            self.length, len(self.path),
        )


def longest_chain(n, pred_lists, weights, kind_of, weights_label="trace"):
    """Longest weighted path over forward-pointing predecessor lists.

    ``pred_lists[i]`` must only contain indices ``< i`` (true for
    compiled graphs — every rule edge points forward in trace order —
    and for thread sequencing), which makes index order a topological
    order and the DP a single linear scan.  ``kind_of(src, dst)``
    labels each edge for attribution.
    """
    dist = [0.0] * n
    via = [None] * n
    best_end, best_len = None, 0.0
    for idx in range(n):
        longest, argmax = 0.0, None
        for pred in pred_lists[idx]:
            if pred >= idx:
                raise ValueError(
                    "edge %d -> %d is not forward in index order" % (pred, idx)
                )
            if dist[pred] > longest:
                longest, argmax = dist[pred], pred
        dist[idx] = longest + weights[idx]
        via[idx] = argmax
        if dist[idx] > best_len:
            best_len, best_end = dist[idx], idx
    path = []
    cursor = best_end
    while cursor is not None:
        path.append(cursor)
        cursor = via[cursor]
    path.reverse()
    time_by_kind = {}
    edges_by_kind = {}
    previous = None
    for idx in path:
        kind = START if previous is None else kind_of(previous, idx)
        time_by_kind[kind] = time_by_kind.get(kind, 0.0) + weights[idx]
        if previous is not None:
            edges_by_kind[kind] = edges_by_kind.get(kind, 0) + 1
        previous = idx
    return CriticalPathResult(
        best_len, path, time_by_kind, edges_by_kind,
        sum(weights), n, weights_label,
    )


def _enforced_preds(benchmark, mode, reduced=True):
    """The dependency structure a replay mode actually enforces, as
    forward predecessor lists + an attribution function.

    Every returned constraint is of the form ``issue(dst) >= done(src)``
    and is genuinely enforced by the replayer in that mode, so the
    chain bound is valid for measured runs.  (For temporally-ordered
    replay the additional issue-order constraint is not representable
    as a done->issue edge; omitting it only weakens — never breaks —
    the bound.)
    """
    actions = benchmark.actions
    graph = benchmark.graph
    serial, which = planir.enforced_order(graph, mode, reduced)
    if serial:
        # A single replay thread: total order, the serial bound.
        preds = [[idx - 1] if idx else [] for idx in range(len(actions))]
        return preds, lambda src, dst: "program"
    if which is not None:
        edge_kinds = graph.edge_kinds
        preds = thread_sequenced(planir.wait_lists(graph, which), actions)
        return preds, lambda src, dst: edge_kinds.get((src, dst), THREAD)
    preds = thread_edges(actions)
    if mode != ReplayMode.TEMPORAL:
        return preds, lambda src, dst: THREAD
    # Thread order plus a sound subset of the completed-before-issue
    # relation the temporal replayer waits on (the full relation is
    # quadratic; one edge from the most recently completed action per
    # issue captures the serialization chain).
    order, prefix = completed_before_issue(actions)
    for idx in range(len(actions)):
        for completed in reversed(order[:prefix[idx]]):
            if completed < idx:
                if completed not in preds[idx]:
                    preds[idx].append(completed)
                break
    return preds, lambda src, dst: "temporal"


def replay_critical_path(benchmark, report, mode=None, reduced=True):
    """The makespan lower bound for one measured replay.

    Weighted by the per-action service times the replay actually
    observed, over the constraints its mode actually enforced — so
    ``result.length <= report.elapsed`` always holds for the run that
    produced ``report``.
    """
    if mode is None:
        mode = report.mode
    weights = [0.0] * len(benchmark.actions)
    for result in report.results:
        weights[result.idx] = result.latency
    preds, kind_of = _enforced_preds(benchmark, mode, reduced=reduced)
    return longest_chain(
        len(benchmark.actions), preds, weights, kind_of,
        weights_label="measured",
    )


def trace_critical_path(benchmark, reduced=True):
    """The compile-time prediction: the ARTC-mode chain, weighted by
    the original trace's call durations (``artc stats`` view)."""
    actions = benchmark.actions
    weights = [
        max(0.0, action.record.t_return - action.record.t_enter)
        for action in actions
    ]
    preds, kind_of = _enforced_preds(benchmark, ReplayMode.ARTC, reduced)
    return longest_chain(
        len(actions), preds, weights, kind_of, weights_label="trace",
    )
