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

from repro.core.resources import AIOCB, FD, FILE, KINDS, PATH, Role

CREATE, DELETE = Role.CREATE, Role.DELETE


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
    """Per-resource incremental state of the stage rule (a sequential
    rule keeps only its resource's last action, in
    ``DependencyBuilder.seq_last``)."""

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

    ``prune_dead=True`` drops a resource's state once a DELETE role
    retires it, which bounds tracker memory and shrinks
    :meth:`live_refs`; the batch path leaves it off.  Path and aiocb
    generations never recur after their delete, so they go at once.
    A descriptor generation can: calls are recorded at completion, so
    a use of descriptor ``n`` that overlapped its close can follow the
    close in the trace.  A closed descriptor's state is therefore kept
    until the next generation of its number appears (one per number);
    after that no record names it.  File keys are never pruned (an
    orphaned descriptor may touch the file after its unlink).  The
    pruned graph equals the batch one.
    """

    def __init__(self, ruleset, graph=None, prune_dead=False):
        self.ruleset = ruleset
        self.graph = (
            graph
            if graph is not None
            else DependencyGraph(0, program_seq=ruleset.program_seq)
        )
        self.tid_of = []
        self.trackers = {}  # stage-rule resource -> _ResourceTracker
        self.seq_last = {}  # sequential-rule resource -> last action idx
        self.name_last = {}  # path name -> [generation, last action idx]
        self.candidates = []  # the last fed action's primary sources
        self.prune_dead = prune_dead
        self.closed_fd = {}  # fd number -> its closed generation's key
        # Resource kind -> (rule name, sequential?) of the one ordering
        # rule its touches get (Table 2), or None.  A path's name rule
        # rides beside its stage rule (``path_name``).
        self._rule_of = dict.fromkeys(KINDS)
        for kind, rule in ((FILE, "file"), (FD, "fd"), (AIOCB, "aio")):
            if getattr(ruleset, rule + "_seq"):
                self._rule_of[kind] = (rule + "_seq", True)
            elif getattr(ruleset, rule + "_stage"):
                self._rule_of[kind] = (rule + "_stage", False)
        if ruleset.path_stage:
            self._rule_of[PATH] = ("path_stage", False)

    # -- rule mechanics (kept in lockstep with the class docstring) ----

    def _edge(self, src, dst, kind, is_primary=True):
        """The edge ``src -> dst`` (``dst`` the action being fed) unless
        thread order implies it; ``feed`` writes this test in place on
        its hot paths."""
        if src is None or src == dst:
            return
        if self.tid_of[src] == self.tid_of[dst]:
            return  # implied by thread_seq
        self.graph.add_edge(src, dst, kind)
        # An edge first seen as redundant fan-in may later be needed as
        # a primary (watermark) edge; promote it then.
        if is_primary and src not in self.candidates:
            self.candidates.append(src)

    def _delete(self, tracker, idx, kind):
        """A stage-rule DELETE waits for the create and every use so
        far; only each thread's last use (the watermark) is primary."""
        self._edge(tracker.create, idx, kind)
        watermarks = tracker.last_use_by_tid
        tid_of = self.tid_of
        for use in tracker.uses:
            self._edge(use, idx, kind,
                       is_primary=watermarks.get(tid_of[use]) == use)

    def feed(self, action, touches):
        """Apply every rule to one action (``action.idx`` must be the
        next index) given its resource ``touches``.  The action's full
        predecessor list is final on return,
        ``self.graph.preds[action.idx]``, and :attr:`candidates` holds
        its reduction candidates until the next call.

        The sequential and stage rules run inline, with :meth:`_edge`'s
        test written in place: this loop runs once per touch of every
        compiled record.  Edges are added in touch order (size edges
        first, a path's stage edges before its name edge); that order
        is each ``preds`` list's, so it fixes the wait lists."""
        idx = action.idx
        graph = self.graph
        graph.add_action()
        tid = action.record.tid
        tid_of = self.tid_of
        tid_of.append(tid)
        candidates = self.candidates = []
        if self.ruleset.file_size:
            # Size-exposure dependencies: a read of bytes beyond the
            # initial size waits for the write that produced them, and
            # size-changing actions chain among themselves.
            size_dep = action.ann.get("size_dep")
            if size_dep is not None:
                self._edge(size_dep, idx, "file_size")
            size_chain = action.ann.get("size_chain")
            if size_chain is not None:
                self._edge(size_chain, idx, "file_size")
        rule_of = self._rule_of
        trackers = self.trackers
        name_rule = self.ruleset.path_name
        name_last = self.name_last
        edge_kinds = graph.edge_kinds
        preds = graph.preds[idx]
        seq_last = self.seq_last
        for key, role in touches:
            rule = rule_of[key[0]]
            if rule is not None:
                kind, sequential = rule
                if sequential:
                    src = seq_last.get(key)
                    seq_last[key] = idx
                else:
                    tracker = trackers.get(key)
                    if tracker is None:
                        tracker = trackers[key] = _ResourceTracker()
                    if role == DELETE:
                        self._delete(tracker, idx, kind)
                        src = None
                    elif role == CREATE and not tracker.seen_any:
                        tracker.create = idx
                        src = None
                    else:
                        src = tracker.create
                        tracker.uses.append(idx)
                        tracker.last_use_by_tid[tid] = idx
                    tracker.seen_any = True
                    tracker.last = idx
                if src is not None and tid_of[src] != tid:
                    edge = (src, idx)
                    if edge not in edge_kinds:
                        edge_kinds[edge] = kind
                        preds.append(src)
                    if src not in candidates:
                        candidates.append(src)
            if name_rule and key[0] == PATH:
                # The name rule: a path name's next generation waits
                # for the last action of its previous one.
                state = name_last.get(key[1])
                if state is None:
                    name_last[key[1]] = [key[2], idx]
                    continue
                if key[2] > state[0]:
                    self._edge(state[1], idx, "name")
                    state[0] = key[2]
                state[1] = idx
        graph._succs = None
        if self.prune_dead:
            closed_fd = self.closed_fd
            for key, role in touches:
                if key[0] == FD:
                    old = closed_fd.get(key[1])
                    if old is not None and old != key:
                        del closed_fd[key[1]]
                        trackers.pop(old, None)
                        seq_last.pop(old, None)
                    if role == DELETE:
                        closed_fd[key[1]] = key
                elif role == DELETE and key[0] != FILE:
                    trackers.pop(key, None)
                    seq_last.pop(key, None)

    def live_refs(self):
        """The action indices still citable as future *candidate* edge
        sources (tracker create / last / per-thread watermarks,
        sequential last, name-rule last).  Every field only ever moves
        forward, so an index absent from this set can never re-enter a
        candidate list -- a windowed caller may release every other
        reach vector.  A set rather than a floor: one long-lived file's
        ``create`` must not pin the whole prefix (``uses`` fan-in is
        cited only as non-primary edges, which reduction never
        consults)."""
        live = set()
        for tracker in self.trackers.values():
            if tracker.create is not None:
                live.add(tracker.create)
            if tracker.last is not None:
                live.add(tracker.last)
            live.update(tracker.last_use_by_tid.values())
        live.update(self.seq_last.values())
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
