"""Dependency-graph construction: applying the ordering rules.

Given the per-action resource touches and a :class:`RuleSet`, build the
partial order the replayer enforces.  Edges implied by thread
sequencing (both endpoints in the same thread) are never materialized
-- each replay thread already plays its own actions in order -- and
duplicate edges are collapsed.

Rule application per resource kind (Table 2):

- file:  ``file_seq`` chains every touch; otherwise ``file_stage``.
- path:  ``path_stage`` + ``path_name`` jointly (``path_stage+``).
- fd:    ``fd_seq`` chains; otherwise ``fd_stage``.
- aiocb: ``aio_stage``.
- program: ``program_seq`` is not materialized; it is a replayer
  strategy (single global thread), recorded as a flag.
"""

from repro.core.resources import AIOCB, FD, FILE, PATH, Role


class DependencyGraph(object):
    """Cross-thread replay dependencies.

    ``preds[i]`` lists the action indices that must complete before
    action ``i`` may be issued.  ``edge_kinds`` maps ``(src, dst)`` to
    the rule that introduced the edge (for Figure-8 analysis).

    ``reduced_preds``, when set (by :mod:`repro.core.reduce`), is the
    transitive reduction of ``preds`` under implicit thread sequencing:
    a smaller wait set enforcing the same partial order.  The replayer
    prefers it; analysis keeps using the full attributed edge set.
    """

    def __init__(self, n_actions, program_seq=False):
        self.n_actions = n_actions
        self.program_seq = program_seq
        self.preds = [[] for _ in range(n_actions)]
        self.edge_kinds = {}
        self.reduced_preds = None
        self._succs = None

    def add_action(self):
        """Grow the graph by one action slot (incremental builds)."""
        self.n_actions += 1
        self.preds.append([])
        self._succs = None

    def add_edge(self, src, dst, kind):
        """Record an edge; returns True if it was new."""
        if src == dst or src is None:
            return False
        key = (src, dst)
        if key in self.edge_kinds:
            return False
        self.edge_kinds[key] = kind
        self.preds[dst].append(src)
        self._succs = None
        return True

    @property
    def n_edges(self):
        return len(self.edge_kinds)

    @property
    def n_reduced_edges(self):
        if self.reduced_preds is None:
            return self.n_edges
        return sum(len(p) for p in self.reduced_preds)

    def edges(self):
        return list(self.edge_kinds)

    def succs(self):
        """Successor lists (cached; invalidated by ``add_edge``).

        The returned lists are shared with the cache -- treat them as
        read-only.
        """
        if self._succs is None:
            out = [[] for _ in range(self.n_actions)]
            for src, dst in self.edge_kinds:
                out[src].append(dst)
            self._succs = out
        return self._succs

    def __repr__(self):
        return "<DependencyGraph %d actions, %d edges%s>" % (
            self.n_actions,
            self.n_edges,
            " (program_seq)" if self.program_seq else "",
        )


class _ResourceTracker(object):
    """Per-resource incremental state for the three rules."""

    __slots__ = ("last", "create", "uses", "last_use_by_tid", "seen_any")

    def __init__(self):
        self.last = None
        self.create = None
        self.uses = []
        self.last_use_by_tid = {}
        self.seen_any = False


class DependencyBuilder(object):
    """Incremental application of the ordering rules, one action at a
    time.

    This is the single implementation behind both compilation paths:
    the batch compiler (:func:`repro.artc.compiler.compile_trace`) feeds
    a whole trace through one builder, and the streaming compiler
    (:mod:`repro.stream.compile`) feeds actions as a live trace tail
    delivers them -- sharing the code is what makes streamed and batch
    graphs identical by construction.  Each ``feed`` takes the action's
    resource touches beside it, so they live only as long as that call.
    Edges always target the action being fed (every rule orders
    *earlier* work before the current action), so the builder's own
    state is only per-resource trackers plus integer indices: nothing
    about an already-fed action is ever re-read, which is what lets a
    windowed caller release old actions.

    Alongside the full attributed edge set, the builder separates
    *primary* edges from edges it can prove redundant on the spot: a
    stage-rule DELETE waits on every prior use, but only each thread's
    *last* use matters -- earlier uses are implied by thread
    sequencing.  A per-thread last-use watermark identifies those
    edges in O(threads) instead of O(uses) per delete; the redundant
    fan-in is still recorded (Figure-8 accounting is unchanged) but
    excluded from :attr:`candidates`, the current action's candidate
    set the transitive reduction (:mod:`repro.core.reduce`) starts
    from.  Candidates are compile-time data: each ``feed`` replaces the
    previous action's, and no graph keeps them.

    ``prune_dead=True`` drops a resource's tracker once a DELETE role
    retires it.  Generation-scoped keys (path, fd, aiocb) never recur
    after their delete, so pruning cannot change the graph -- it only
    bounds tracker memory and advances :meth:`ref_floor`; file keys
    are exempt (an orphaned descriptor may touch the file after its
    unlink).  The batch path leaves it off.
    """

    def __init__(self, ruleset, graph=None, prune_dead=False):
        self.ruleset = ruleset
        self.graph = (
            graph
            if graph is not None
            else DependencyGraph(0, program_seq=ruleset.program_seq)
        )
        self.tid_of = []
        self.trackers = {}
        self.name_last = {}  # (kind, name) -> [generation, last action idx]
        self.candidates = []  # the last fed action's primary sources
        self.prune_dead = prune_dead

    # -- rule mechanics (kept in lockstep with the class docstring) ----

    def _edge(self, src, dst, kind, is_primary=True):
        if src is None or src == dst:
            return
        if self.tid_of[src] == self.tid_of[dst]:
            return  # implied by thread_seq
        self.graph.add_edge(src, dst, kind)
        # An edge first seen as redundant fan-in may later be needed as
        # a primary (watermark) edge; promote it then.
        if is_primary and src not in self.candidates:
            self.candidates.append(src)

    def _seq(self, key, idx, kind):
        tracker = self.trackers.get(key)
        if tracker is None:
            tracker = self.trackers[key] = _ResourceTracker()
        self._edge(tracker.last, idx, kind)
        tracker.last = idx

    def _stage(self, key, idx, role, kind):
        tracker = self.trackers.get(key)
        if tracker is None:
            tracker = self.trackers[key] = _ResourceTracker()
        if role == Role.CREATE and not tracker.seen_any:
            tracker.create = idx
        elif role == Role.DELETE:
            # The delete waits for the create and every use so far; only
            # each thread's last use (the watermark) is primary.
            self._edge(tracker.create, idx, kind)
            watermarks = tracker.last_use_by_tid
            tid_of = self.tid_of
            for use in tracker.uses:
                self._edge(use, idx, kind,
                           is_primary=watermarks.get(tid_of[use]) == use)
        else:
            self._edge(tracker.create, idx, kind)
            tracker.uses.append(idx)
            tracker.last_use_by_tid[self.tid_of[idx]] = idx
        tracker.seen_any = True
        tracker.last = idx

    def _name_rule(self, kind_tag, name, gen, idx):
        state = self.name_last.get((kind_tag, name))
        if state is None:
            self.name_last[(kind_tag, name)] = [gen, idx]
            return
        if gen > state[0]:
            self._edge(state[1], idx, "name")
            state[0] = gen
            state[1] = idx
        else:
            state[1] = idx

    def feed(self, action, touches):
        """Apply every rule to one action (``action.idx`` must be the
        next index) given its resource ``touches``.  The action's full
        predecessor list is final on return,
        ``self.graph.preds[action.idx]``, and :attr:`candidates` holds
        its reduction candidates until the next call."""
        idx = action.idx
        ruleset = self.ruleset
        self.graph.add_action()
        self.tid_of.append(action.record.tid)
        self.candidates = []
        if ruleset.file_size:
            # Size-exposure dependencies: a read of bytes beyond the
            # initial size waits for the write that produced them, and
            # size-changing actions chain among themselves.
            size_dep = action.ann.get("size_dep")
            if size_dep is not None:
                self._edge(size_dep, idx, "file_size")
            size_chain = action.ann.get("size_chain")
            if size_chain is not None:
                self._edge(size_chain, idx, "file_size")
        for touch in touches:
            kind = touch.kind
            key = touch.key
            if kind == FILE:
                if ruleset.file_seq:
                    self._seq(key, idx, "file_seq")
                elif ruleset.file_stage:
                    self._stage(key, idx, touch.role, "file_stage")
            elif kind == PATH:
                if ruleset.path_stage:
                    self._stage(key, idx, touch.role, "path_stage")
                if ruleset.path_name:
                    self._name_rule(PATH, key[1], key[2], idx)
            elif kind == FD:
                if ruleset.fd_seq:
                    self._seq(key, idx, "fd_seq")
                elif ruleset.fd_stage:
                    self._stage(key, idx, touch.role, "fd_stage")
            elif kind == AIOCB:
                if ruleset.aio_seq:
                    self._seq(key, idx, "aio_seq")
                elif ruleset.aio_stage:
                    self._stage(key, idx, touch.role, "aio_stage")
        if self.prune_dead:
            for touch in touches:
                if touch.role == Role.DELETE and touch.kind != FILE:
                    self.trackers.pop(touch.key, None)

    def live_refs(self):
        """The action indices still citable as future *candidate* edge
        sources (tracker create / last / per-thread watermarks,
        name-rule last).  Every field only ever moves forward, so an
        index absent from this set can never re-enter a candidate list
        -- a windowed caller may release every other reach vector.  A
        set rather than a floor: one long-lived file's ``create`` must
        not pin the whole prefix (``uses`` fan-in is cited only as
        non-primary edges, which reduction never consults)."""
        live = set()
        for tracker in self.trackers.values():
            if tracker.create is not None:
                live.add(tracker.create)
            if tracker.last is not None:
                live.add(tracker.last)
            live.update(tracker.last_use_by_tid.values())
        for state in self.name_last.values():
            live.add(state[1])
        return live


def build_dependencies(actions, ruleset, candidates=None):
    """Apply ``ruleset`` to ``actions`` (a :class:`TraceModel`'s, which
    carry their touches) and return a DependencyGraph.  A ``candidates``
    list, when given, receives each action's reduction candidates in
    order (what :func:`repro.core.reduce.reduce_graph` starts from).

    A thin batch wrapper over :class:`DependencyBuilder` (one ``feed``
    per action); both compilers drive the same builder record by
    record.
    """
    builder = DependencyBuilder(ruleset)
    for action in actions:
        builder.feed(action, action.touches)
        if candidates is not None:
            candidates.append(builder.candidates)
    return builder.graph


def temporal_graph(actions):
    """The temporally-ordered baseline's implicit graph: each action
    depends on the *issue* of the previous action in global trace
    order (same-thread edges elided, as for ROOT graphs).

    Returned as a DependencyGraph for Figure-8 comparisons; note the
    temporal replayer enforces issue-order directly rather than
    through this graph.
    """
    graph = DependencyGraph(len(actions))
    previous = None
    for action in actions:
        if previous is not None and (
            actions[previous].record.tid != action.record.tid
        ):
            graph.add_edge(previous, action.idx, "temporal")
        previous = action.idx
    return graph
