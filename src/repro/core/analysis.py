"""Trace/graph analysis: action series, edge statistics, validation.

Supports the paper's Figure 2 (action series), Figure 3 (valid/invalid
orderings), and Figure 8 (edge counts and lengths), plus the
property-based validation used by the test suite: given a replay order,
check that every enabled rule is respected.
"""

import bisect
import heapq

from repro.core import rules as root_rules
from repro.core.resources import AIOCB, FD, FILE, PATH, THREAD, Role, name_of
from repro.errors import CycleError


def action_series(actions, include_thread=True):
    """Materialize the per-resource action series (Figure 2b): an
    ordered dict-like mapping resource key -> list of action indices in
    original trace order."""
    series = {}
    for action in actions:
        seen_here = set()
        for key, _role in action.touches:
            if not include_thread and key[0] == THREAD:
                continue
            if key in seen_here:
                continue
            seen_here.add(key)
            series.setdefault(key, []).append(action.idx)
    return series


def series_roles(actions):
    """For each resource, whether its first touch is a create and its
    last touch is a delete (stage-rule applicability)."""
    first_role = {}
    last_role = {}
    for action in actions:
        for key, role in action.touches:
            if key not in first_role:
                first_role[key] = role
            last_role[key] = role
    return {
        key: (first_role[key] == Role.CREATE, last_role[key] == Role.DELETE)
        for key in first_role
    }


def generations_by_name(actions):
    """Group path/fd/aiocb series by shared name:
    ``{(kind, name): [series_of_gen0, series_of_gen1, ...]}``."""
    series = action_series(actions)
    grouped = {}
    for key, acts in series.items():
        name = name_of(key)
        if name is None:
            continue
        grouped.setdefault(name, []).append((key[2], acts))
    return {
        name: [acts for _gen, acts in sorted(entries)]
        for name, entries in grouped.items()
    }


def validate_order(actions, ruleset, order):
    """Check a replay ordering against every enabled rule.

    ``order`` is a list of action indices in replay-issue order (a
    permutation of all actions).  Returns a list of human-readable
    violation strings; empty means the ordering is admissible.
    """
    position = {idx: pos for pos, idx in enumerate(order)}
    series = action_series(actions)
    roles = series_roles(actions)
    violations = []

    def _record(kind, key, pairs):
        for first, second in pairs:
            violations.append(
                "%s violated on %r: action %d must precede %d"
                % (kind, key, first, second)
            )

    # thread_seq and program_seq
    per_thread = {}
    for action in actions:
        per_thread.setdefault(action.record.tid, []).append(action.idx)
    for tid, acts in per_thread.items():
        _record(
            "thread_seq", ("thread", tid), root_rules.check_sequential(acts, position)
        )
    if ruleset.program_seq:
        all_idx = [a.idx for a in actions]
        _record("program_seq", ("prog",), root_rules.check_sequential(all_idx, position))

    for key, acts in series.items():
        kind = key[0]
        has_create, has_delete = roles[key]
        if kind == FILE:
            if ruleset.file_seq:
                _record("file_seq", key, root_rules.check_sequential(acts, position))
            elif ruleset.file_stage:
                _record(
                    "file_stage",
                    key,
                    root_rules.check_stage(acts, position, has_create, has_delete),
                )
        elif kind == PATH and ruleset.path_stage:
            _record(
                "path_stage",
                key,
                root_rules.check_stage(acts, position, has_create, has_delete),
            )
        elif kind == FD:
            if ruleset.fd_seq:
                _record("fd_seq", key, root_rules.check_sequential(acts, position))
            elif ruleset.fd_stage:
                _record(
                    "fd_stage",
                    key,
                    root_rules.check_stage(acts, position, has_create, has_delete),
                )
        elif kind == AIOCB:
            if ruleset.aio_seq:
                _record("aio_seq", key, root_rules.check_sequential(acts, position))
            elif ruleset.aio_stage:
                _record(
                    "aio_stage",
                    key,
                    root_rules.check_stage(acts, position, has_create, has_delete),
                )

    if ruleset.path_name:
        for name, gen_series in generations_by_name(actions).items():
            if name[0] != PATH:
                continue
            _record(
                "path_name", name, root_rules.check_name(gen_series, position)
            )
    return violations


def edge_stats(graph, actions):
    """Count and mean time-length of a dependency graph's edges
    (Figure 8: ARTC's edges are fewer but far *longer* than temporal
    ordering's)."""
    lengths = []
    for src, dst in graph.edges():
        lengths.append(
            actions[dst].record.t_enter - actions[src].record.t_enter
        )
    count = len(lengths)
    mean = sum(lengths) / count if count else 0.0
    return {"edges": count, "mean_length": mean}


def enumerate_io_space(actions, ruleset, limit=100_000):
    """All admissible replay orderings of a (small) action set.

    This is section 2's I/O-space formalism made executable: the
    replay benchmark's I/O space is one I/O set (the traced actions)
    plus the set of orderings the rules admit.  Enumeration walks every
    interleaving consistent with thread order and keeps those
    :func:`validate_order` accepts.  Exponential by nature -- intended
    for tests and teaching on traces of a dozen actions or fewer;
    ``limit`` caps the number of interleavings examined.
    """
    per_thread = {}
    for action in actions:
        per_thread.setdefault(action.record.tid, []).append(action.idx)
    queues = list(per_thread.values())
    admissible = []
    examined = [0]

    def _walk(prefix, positions):
        if examined[0] >= limit:
            raise ValueError("interleaving limit exceeded; use fewer actions")
        if len(prefix) == len(actions):
            examined[0] += 1
            if validate_order(actions, ruleset, prefix) == []:
                admissible.append(tuple(prefix))
            return
        for index, queue in enumerate(queues):
            position = positions[index]
            if position < len(queue):
                prefix.append(queue[position])
                positions[index] += 1
                _walk(prefix, positions)
                positions[index] -= 1
                prefix.pop()

    _walk([], [0] * len(queues))
    return admissible


def find_cycle(pred_lists, restrict=None):
    """One cycle in the graph given by predecessor lists, or None.

    ``pred_lists[i]`` are the nodes that must precede node ``i``;
    ``restrict`` optionally limits the search to a subset of nodes
    (e.g. the nodes a topological sort could not place).  The returned
    list gives the cycle members in dependency order: each member
    depends on the one before it, and the first depends on the last.
    """
    nodes = range(len(pred_lists)) if restrict is None else restrict
    allowed = None if restrict is None else set(restrict)
    color = {}  # node -> 1 (on stack) | 2 (done)
    for start in nodes:
        if color.get(start) == 2:
            continue
        # Iterative DFS along predecessor edges, keeping the path so a
        # back edge can be unwound into the cycle it closes.
        path = [start]
        iters = [iter(pred_lists[start])]
        color[start] = 1
        while iters:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                color[path.pop()] = 2
                iters.pop()
                continue
            if allowed is not None and nxt not in allowed:
                continue
            state = color.get(nxt)
            if state == 1:
                cycle = path[path.index(nxt):]
                # ``path`` follows predecessor edges, so each element
                # precedes the one before it; reverse into "each
                # depends on the previous" order.
                cycle.reverse()
                return cycle
            if state is None:
                color[nxt] = 1
                path.append(nxt)
                iters.append(iter(pred_lists[nxt]))
        # all reachable nodes finished
    return None


def thread_edges(actions):
    """The implicit thread_seq predecessor lists: for each action, the
    previous action of the same thread (empty for thread heads)."""
    out = [[] for _ in actions]
    last = {}
    for action in actions:
        tid = action.record.tid
        prev = last.get(tid)
        if prev is not None:
            out[action.idx].append(prev)
        last[tid] = action.idx
    return out


def thread_sequenced(pred_lists, actions):
    """``pred_lists`` plus implicit thread sequencing: the full set of
    completions each action waits on in a replay enforcing those lists
    (one replay thread per traced thread)."""
    return [
        list(preds) + extra
        for preds, extra in zip(pred_lists, thread_edges(actions))
    ]


def completed_before_issue(actions):
    """The trace's completed-before-issue relation, as ``(order,
    prefix)``: ``order`` lists the actions by completion time, and
    ``order[:prefix[idx]]`` are the actions that had completed before
    action ``idx`` was issued (temporally-ordered replay waits on
    them).  A prefix is capped at the action's own position: a
    zero-duration call (``t_enter == t_return``, e.g. an fsync with
    nothing dirty) would otherwise sit in its own prefix."""
    order = sorted(range(len(actions)), key=lambda i: actions[i].record.t_return)
    returns = [actions[i].record.t_return for i in order]
    prefix = [0] * len(actions)
    for pos, idx in enumerate(order):
        before_issue = bisect.bisect_right(returns, actions[idx].record.t_enter)
        prefix[idx] = min(before_issue, pos)
    return order, prefix


def weak_components(n_actions, edge_groups):
    """Weakly-connected components over ``n_actions`` nodes.

    ``edge_groups`` is an iterable of index groups; every pair of
    indices appearing in one group is merged (a group is typically one
    resource's action series, or one graph edge as a 2-tuple).  Returns
    a label per action: the smallest action index in its component --
    a canonical, deterministic component id.

    This is the partition primitive behind the sharded replay core
    (:mod:`repro.artc.shardplan`): a component is the unit of work
    that can move between shards without splitting any resource's
    series.
    """
    parent = list(range(n_actions))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for group in edge_groups:
        it = iter(group)
        try:
            first = find(next(it))
        except StopIteration:
            continue
        for other in it:
            root = find(other)
            if root != first:
                # Union by smaller root so the final label is the
                # smallest member without a second normalization pass.
                if root < first:
                    first, root = root, first
                parent[root] = first
    return [find(idx) for idx in range(n_actions)]


def topological_order(graph, actions):
    """One valid replay order under the graph + thread_seq (used by
    tests to confirm the graph is acyclic and admissible).

    Raises :class:`~repro.errors.CycleError` naming the members of one
    dependency cycle when no such order exists.
    """
    n = graph.n_actions
    preds = [set(p) for p in graph.preds]
    per_thread = {}
    for action in actions:
        per_thread.setdefault(action.record.tid, []).append(action.idx)
    for acts in per_thread.values():
        for earlier, later in zip(acts, acts[1:]):
            preds[later].add(earlier)
    out = []
    succs = [[] for _ in range(n)]
    for dst, sources in enumerate(preds):
        for src in sources:
            succs[src].append(dst)
    remaining = [len(p) for p in preds]
    heap = [i for i in range(n) if not preds[i]]
    heapq.heapify(heap)
    while heap:
        idx = heapq.heappop(heap)
        out.append(idx)
        for nxt in succs[idx]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                heapq.heappush(heap, nxt)
    if len(out) != n:
        placed = set(out)
        stuck = [i for i in range(n) if i not in placed]
        cycle = find_cycle(preds, restrict=stuck)
        if cycle is None:  # pragma: no cover - stuck nodes imply a cycle
            cycle = stuck
        raise CycleError(cycle)
    return out
