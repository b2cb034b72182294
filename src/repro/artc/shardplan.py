"""Shard plans: partitioning a compiled benchmark across processes.

The sharded replay core (:mod:`repro.artc.shardcore`) runs one forked
worker per shard, each with its own scoreboard inner loop over a
private copy-on-write fs-simulation replica.  For that to reproduce
the single-process replay, the partition must respect two invariants:

1. **Resource atomicity.**  Every action series of one resource (file,
   path generation, descriptor, aiocb) stays inside one shard: a
   resource's state lives in exactly one worker's replica, so every
   materialized dependency edge is intra-shard and every worker's view
   of the data it touches is complete.  The unit of placement is
   therefore a *weak component* of the resource-sharing relation
   (:func:`repro.core.analysis.weak_components`) -- series that share
   an action transitively share a component.

2. **Thread sequencing across shards.**  Threads may span shards (a
   thread's actions follow its resources).  The only cross-shard
   ordering the runner must enforce is thread sequencing between
   *consecutive* actions of one thread that land in different shards;
   transitivity covers the rest.  Each such pair has exactly one
   producer, which is what lets the runner use lock-free single-writer
   completion flags in shared memory.

The partitioner minimizes those cross-shard transitions: components
are greedily assigned to the shard holding the most transition-adjacent
already-placed work (subject to a load cap), then improved by local
move sweeps -- a lightweight greedy min-cut over the reduced graph's
component/transition structure.

Traces that mutate global replay state shared by all threads (the
process cwd, via chdir/fchdir) cannot be split: each worker replica
would see a different cwd.  Such traces fall back to one shard, with
the reason recorded in the plan stats.
"""

import math

from repro.core.analysis import weak_components
from repro.core.resources import AIOCB, FD, FILE, PATH

#: Syscalls that mutate process-global replay state (the shared cwd);
#: a trace containing any of these is never split across shards.
CWD_MUTATORS = frozenset(("chdir", "fchdir"))

#: Greedy-assignment load headroom over the perfectly balanced shard.
_CAP_SLACK = 1.10

#: Local-improvement sweeps after the greedy pass.
_REFINE_SWEEPS = 6


class ShardPlan(object):
    """One partition of a compiled benchmark into ``n_shards`` shards.

    - ``shard_actions[s]`` -- ascending action indices of shard ``s``
      (the explicit per-shard sub-plans; together an exact partition
      of the action set);
    - ``assign[idx]`` -- the shard of action ``idx`` (derived view);
    - ``cross_edges`` -- ``(producer_idx, consumer_idx)`` pairs, one
      per thread-sequencing transition that crosses shards, sorted by
      consumer; each pair is backed by exactly one completion flag at
      run time;
    - ``stats`` -- ``shards``, ``cross_edges``, ``cut_fraction``,
      ``actions_per_shard``, ``components``, plus ``fallback`` when
      the partitioner clamped to one shard.
    """

    __slots__ = ("n_shards", "shard_actions", "assign", "cross_edges", "stats")

    def __init__(self, n_shards, shard_actions, cross_edges, stats):
        self.n_shards = n_shards
        self.shard_actions = [list(acts) for acts in shard_actions]
        self.cross_edges = [tuple(edge) for edge in cross_edges]
        self.stats = dict(stats)
        # Sized by the largest index so even malformed plans (validated
        # separately by check_plan) can be represented; -1 = unassigned.
        n = 1 + max(
            (idx for acts in self.shard_actions for idx in acts), default=-1
        )
        self.assign = [-1] * n
        for shard, acts in enumerate(self.shard_actions):
            for idx in acts:
                self.assign[idx] = shard

    @property
    def n_workers(self):
        """Shards that actually hold work (forked at run time)."""
        return sum(1 for acts in self.shard_actions if acts)

    def to_payload(self):
        return {
            "format": "artc-shardplan-v1",
            "n_shards": self.n_shards,
            "shard_actions": [list(acts) for acts in self.shard_actions],
            "cross_edges": [list(edge) for edge in self.cross_edges],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != "artc-shardplan-v1":
            raise ValueError("not an ARTC shard plan (bad header)")
        return cls(
            payload["n_shards"],
            payload["shard_actions"],
            [tuple(edge) for edge in payload["cross_edges"]],
            payload.get("stats", {}),
        )

    def __repr__(self):
        return "<ShardPlan %d shards, %d cross edges>" % (
            self.n_shards,
            len(self.cross_edges),
        )


def _touch_keys(benchmark):
    """Per-action resource keys (file/path/fd/aiocb touches only --
    thread sequencing is handled separately), from
    ``benchmark.touched_actions()``."""
    kinds = (FILE, PATH, FD, AIOCB)
    return [
        [key for key, _role in action.touches if key[0] in kinds]
        for action in benchmark.touched_actions()
    ]


def _components(benchmark, touch_keys=None):
    """Component label per action (smallest member index): the
    transitive closure of resource sharing, plus every materialized
    graph edge and the file-size annotation edges as a safety net."""
    n = len(benchmark.actions)
    if touch_keys is None:
        touch_keys = _touch_keys(benchmark)
    series = {}
    for idx, keys in enumerate(touch_keys):
        for key in keys:
            series.setdefault(key, []).append(idx)

    def groups():
        for members in series.values():
            if len(members) > 1:
                yield members
        for edge in benchmark.graph.edge_kinds:
            yield edge
        for idx, action in enumerate(benchmark.actions):
            for ann_key in ("size_dep", "size_chain"):
                dep = action.ann.get(ann_key)
                if dep is not None:
                    yield (dep, idx)

    return weak_components(n, groups())


def _thread_order(benchmark):
    """Action indices per thread, in trace order (insertion-ordered)."""
    order = {}
    for action in benchmark.actions:
        order.setdefault(action.record.tid, []).append(action.idx)
    return order


def _cross_edges_for(assign, thread_order):
    """The thread-seq transitions crossing shards under ``assign``:
    one ``(producer, consumer)`` per consecutive same-thread pair in
    different shards, sorted by consumer index."""
    cross = []
    for acts in thread_order.values():
        for prev, idx in zip(acts, acts[1:]):
            if assign[prev] != assign[idx]:
                cross.append((prev, idx))
    cross.sort(key=lambda edge: edge[1])
    return cross


def _single_shard(benchmark, fallback=None):
    n = len(benchmark.actions)
    stats = {
        "shards": 1,
        "cross_edges": 0,
        "cut_fraction": 0.0,
        "actions_per_shard": [n],
        "components": None,
    }
    if fallback:
        stats["fallback"] = fallback
    return ShardPlan(1, [list(range(n))], [], stats)


def build_shard_plan(benchmark, jobs):
    """Partition ``benchmark`` into at most ``jobs`` shards.

    Deterministic for a given (benchmark, jobs).  Returns a
    :class:`ShardPlan`; plans that cannot be split (one job, empty
    trace, cwd-mutating trace) come back as a single shard with the
    reason in ``stats["fallback"]``.
    """
    n = len(benchmark.actions)
    jobs = max(1, int(jobs))
    if jobs == 1 or n == 0:
        return _single_shard(benchmark)
    cwd_hits = [
        action.record.name
        for action in benchmark.actions
        if action.record.name in CWD_MUTATORS
    ]
    if cwd_hits:
        return _single_shard(
            benchmark,
            fallback="trace mutates the process-global cwd (%s)"
            % ", ".join(sorted(set(cwd_hits))),
        )
    labels = _components(benchmark)
    thread_order = _thread_order(benchmark)

    comp_members = {}
    for idx, label in enumerate(labels):
        comp_members.setdefault(label, []).append(idx)

    # Transition multigraph between components: consecutive same-thread
    # actions in different components contribute one unit of potential
    # cut weight to that component pair.
    weight = {}
    for acts in thread_order.values():
        for prev, idx in zip(acts, acts[1:]):
            a, b = labels[prev], labels[idx]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            weight[(a, b)] = weight.get((a, b), 0) + 1
    neighbors = {}
    for (a, b), w in weight.items():
        neighbors.setdefault(a, {})[b] = w
        neighbors.setdefault(b, {})[a] = w

    # Greedy placement: big components first, each to the shard with
    # the highest transition affinity among shards with headroom.
    order = sorted(comp_members, key=lambda c: (-len(comp_members[c]), c))
    cap = max(
        int(math.ceil(n * _CAP_SLACK / jobs)),
        max(len(m) for m in comp_members.values()),
    )
    load = [0] * jobs
    shard_of = {}

    def affinity(comp, shard):
        total = 0
        for other, w in neighbors.get(comp, {}).items():
            if shard_of.get(other) == shard:
                total += w
        return total

    for comp in order:
        size = len(comp_members[comp])
        best, best_key = 0, None
        for shard in range(jobs):
            if load[shard] + size > cap and load[shard] > 0:
                continue
            key = (affinity(comp, shard), -load[shard])
            if best_key is None or key > best_key:
                best, best_key = shard, key
        shard_of[comp] = best
        load[best] += size

    # Local refinement: move components toward their transition
    # neighbors while the load cap holds; stop at a fixed sweep budget
    # or the first sweep with no improving move.
    for _sweep in range(_REFINE_SWEEPS):
        moved = False
        for comp in order:
            current = shard_of[comp]
            size = len(comp_members[comp])
            here = affinity(comp, current)
            best_gain, best_shard = 0, current
            for shard in range(jobs):
                if shard == current or load[shard] + size > cap:
                    continue
                gain = affinity(comp, shard) - here
                if gain > best_gain:
                    best_gain, best_shard = gain, shard
            if best_shard != current:
                shard_of[comp] = best_shard
                load[current] -= size
                load[best_shard] += size
                moved = True
        if not moved:
            break

    assign = [shard_of[label] for label in labels]
    cross = _cross_edges_for(assign, thread_order)
    shard_actions = [[] for _ in range(jobs)]
    for idx, shard in enumerate(assign):
        shard_actions[shard].append(idx)
    transitions = n - len(thread_order)
    stats = {
        # Workers that will actually fork: requested shards minus any
        # a coarse component structure left empty.
        "shards": sum(1 for acts in shard_actions if acts),
        "cross_edges": len(cross),
        "cut_fraction": (len(cross) / transitions) if transitions else 0.0,
        "actions_per_shard": [len(acts) for acts in shard_actions],
        "components": len(comp_members),
        "largest_component": max(len(m) for m in comp_members.values()),
    }
    return ShardPlan(jobs, shard_actions, cross, stats)


def plan_for(benchmark, jobs):
    """The cached shard plan for ``(benchmark, jobs)``; plans are pure
    functions of the compiled benchmark, so repeat replays of one
    loaded artifact partition once."""
    jobs = max(1, int(jobs))
    plan = benchmark.derived.get(("shards", jobs))
    if plan is None:
        plan = benchmark.derived["shards", jobs] = build_shard_plan(benchmark, jobs)
    return plan


def check_plan(benchmark, plan):
    """Validate ``plan`` against ``benchmark``; returns a list of
    human-readable problems (empty means certified).

    Checks the contract the runner relies on: the shard sub-plans
    partition the action set exactly (no dropped, duplicated, or
    out-of-range actions; per-shard order preserved), no resource
    component is split across shards, every cross-shard thread
    transition is covered by exactly one completion flag (and no flag
    covers a non-edge), and multi-shard plans never carry a
    cwd-mutating trace.
    """
    problems = []
    n = len(benchmark.actions)
    if plan.n_shards < 1:
        return ["plan has %d shards" % plan.n_shards]
    if len(plan.shard_actions) != plan.n_shards:
        return [
            "plan declares %d shards but carries %d sub-plans"
            % (plan.n_shards, len(plan.shard_actions))
        ]
    seen = {}
    for shard, acts in enumerate(plan.shard_actions):
        previous = -1
        for idx in acts:
            if not (0 <= idx < n):
                problems.append(
                    "shard %d references out-of-range action %d" % (shard, idx)
                )
                continue
            if idx in seen:
                problems.append(
                    "action %d assigned to shards %d and %d (duplicate)"
                    % (idx, seen[idx], shard)
                )
            else:
                seen[idx] = shard
            if idx <= previous:
                problems.append(
                    "shard %d breaks trace order at action %d" % (shard, idx)
                )
            previous = idx
    missing = n - len(seen)
    if missing:
        for idx in range(n):
            if idx not in seen:
                problems.append("action %d is assigned to no shard" % idx)
                break
        if missing > 1:
            problems.append(
                "%d actions are assigned to no shard in total" % missing
            )
    if problems:
        return problems

    multi = plan.n_workers > 1
    if multi:
        cwd_hits = sorted(
            {
                action.record.name
                for action in benchmark.actions
                if action.record.name in CWD_MUTATORS
            }
        )
        if cwd_hits:
            problems.append(
                "multi-shard plan over a cwd-mutating trace (%s); such "
                "traces must replay in one shard" % ", ".join(cwd_hits)
            )
        labels = _components(benchmark)
        comp_shard = {}
        for idx, label in enumerate(labels):
            shard = seen[idx]
            first = comp_shard.setdefault(label, (shard, idx))
            if first[0] != shard:
                problems.append(
                    "resource component split across shards: actions %d "
                    "(shard %d) and %d (shard %d) share resources"
                    % (first[1], first[0], idx, shard)
                )
                break

    assign = [seen[idx] for idx in range(n)]
    required = set(_cross_edges_for(assign, _thread_order(benchmark)))
    declared = [tuple(edge) for edge in plan.cross_edges]
    declared_set = set(declared)
    if len(declared) != len(declared_set):
        problems.append("duplicate completion flags in plan")
    consumers = [edge[1] for edge in declared]
    if len(consumers) != len(set(consumers)):
        problems.append(
            "a consumer action is covered by more than one completion flag"
        )
    for edge in sorted(required - declared_set):
        problems.append(
            "cross-shard thread transition %d -> %d has no completion flag"
            % edge
        )
    for edge in sorted(declared_set - required):
        problems.append(
            "completion flag %d -> %d covers no cross-shard transition" % edge
        )
    return problems
