"""Transitive reduction of compiled dependency graphs.

Replay enforcement waits on one completion event per predecessor edge
(section 4.3.3), so every edge implied by other edges is pure replay
overhead.  Two sources of implication exist:

- *explicit* transitivity: if ``p -> q`` and ``q -> v`` are in the
  graph, ``p -> v`` adds nothing;
- *implicit thread sequencing*: each replay thread plays its own
  actions in order, so a path may hop for free from an action to any
  later action of the same thread.

This pass computes, for every action, the minimal predecessor set
whose closure (union the implicit thread chains) equals the closure of
the full graph.  The full attributed edge set (``edge_kinds``,
``preds``) is left untouched: Figure-8 edge accounting and the
``preds``-based replay path are unchanged, and the reduction is purely
a replay fast path.

Two structural facts make the pass near-linear:

1. Every edge points forward in trace order (``src < dst``, guaranteed
   by construction), so actions can be processed in index order with
   all predecessor state already final.
2. Reachability is *prefix-closed per thread*: if action ``a`` of
   thread ``t`` reaches ``v``, every earlier ``t``-action reaches ``v``
   too (it reaches ``a`` through the thread chain).  The whole
   reach-set of an action therefore compresses to one watermark per
   thread -- the highest reaching index -- and set union becomes an
   elementwise max over a length-``T`` vector.

Greedily scanning each action's candidate predecessors in descending
index order and keeping only those not covered by the running
watermark vector yields exactly the unique transitive reduction of a
DAG, restricted to materialized edges, in O((V + E) * T) time.
"""


def thread_prev_of(tid_of):
    """For each action, the index of the previous same-thread action
    (or None): the implicit thread_seq predecessor."""
    prev = [None] * len(tid_of)
    last = {}
    for idx, tid in enumerate(tid_of):
        prev[idx] = last.get(tid)
        last[tid] = idx
    return prev


class IncrementalReducer(object):
    """One-action-at-a-time transitive reduction.

    The single implementation behind both paths: :func:`reduce_graph`
    feeds a finished graph through one reducer (batch), and the
    streaming compiler feeds each action as it is compiled.  Both
    produce identical ``wait`` lists because the greedy scan only ever
    consults *earlier* state, already final in either driving order.

    Thread slots are assigned on first appearance, so a reducer fed
    incrementally discovers threads as it goes: its watermark vectors
    grow over time where the batch pass used full-length vectors.  The
    two are equivalent -- a batch vector's entry for a thread not yet
    seen at index ``i`` is necessarily ``-1`` (edges point forward, so
    no action of an unseen thread reaches ``i``) -- which is exactly
    what the lazy ``-1`` padding reproduces.

    Memory is bounded by retirement: a windowed caller may call
    :meth:`retire_except` with the set of indices still citable as
    candidate sources (``DependencyBuilder.live_refs``); every other
    reach vector below the ceiling is dropped, except each thread's
    current frontier (needed to seed its next action's cover), which
    is dropped lazily on that next feed.
    """

    def __init__(self):
        self.tindex = {}  # tid -> dense slot
        self.tid_slots = []  # action idx -> dense slot
        self.reach = {}  # action idx -> watermark vector
        self.last_by_thread = []  # slot -> latest action idx (or -1)
        self.removed = 0
        self.retired = 0  # reach vectors released, by a sweep or lazily
        self._retired_to = 0
        self._pinned = frozenset()  # retained past the ceiling as live refs

    def feed(self, idx, tid, preds, candidates):
        """Reduce one action's predecessor list; ``idx`` must be the
        next index.  Returns the wait list (``preds`` order preserved,
        redundant entries dropped)."""
        own = self.tindex.get(tid)
        if own is None:
            own = self.tindex[tid] = len(self.tindex)
            self.last_by_thread.append(-1)
        nthreads = len(self.tindex)
        reach = self.reach
        tid_slots = self.tid_slots
        prev = self.last_by_thread[own]
        if prev >= 0:
            cover = list(reach[prev])
            if prev < self._retired_to and prev not in self._pinned:
                # Was kept past the ceiling only as this thread's
                # frontier; the new action supersedes it.
                del reach[prev]
                self.retired += 1
        else:
            cover = []
        if len(cover) < nthreads:
            cover.extend([-1] * (nthreads - len(cover)))
        wait = []
        if preds:
            kept = set()
            for src in sorted(candidates, reverse=True):
                if src <= cover[tid_slots[src]]:
                    continue  # implied by a kept pred or thread order
                kept.add(src)
                source_reach = reach[src]
                for t in range(len(source_reach)):
                    if source_reach[t] > cover[t]:
                        cover[t] = source_reach[t]
            # Filter the full pred list (preserving its order) so the
            # replayer's wait sequence is the old one minus the
            # redundant waits.
            wait = [src for src in preds if src in kept]
            self.removed += len(preds) - len(wait)
        cover[own] = idx
        reach[idx] = cover
        self.last_by_thread[own] = idx
        tid_slots.append(own)
        return wait

    def retire_except(self, live, ceiling):
        """Drop reach vectors for indices below ``ceiling`` that are
        neither in ``live`` (still citable as candidate sources) nor a
        thread frontier.  Returns the number of vectors released.
        Re-sweeping is sound: an index unpinned since the last sweep is
        released then."""
        frontier = set(self.last_by_thread)
        reach = self.reach
        released = 0
        for idx in list(reach):
            if idx < ceiling and idx not in live and idx not in frontier:
                del reach[idx]
                released += 1
        self.retired += released
        self._retired_to = max(self._retired_to, ceiling)
        self._pinned = live
        return released

    @property
    def live_vectors(self):
        return len(self.reach)


def reduce_graph(graph, tid_of):
    """Attach ``graph.reduced_preds`` and return the number of edges
    removed.

    ``tid_of`` maps action index -> thread id (implicit sequencing).
    The candidate set is ``graph.primary_preds`` when the builder
    provided one (its closure provably covers the full edge set --
    see ``build_dependencies``), otherwise the full ``preds``.  A thin
    batch wrapper over :class:`IncrementalReducer`.
    """
    preds = graph.preds
    candidates = graph.primary_preds
    if candidates is None:
        candidates = preds
    reducer = IncrementalReducer()
    reduced = [
        reducer.feed(idx, tid_of[idx], preds[idx], candidates[idx])
        for idx in range(graph.n_actions)
    ]
    graph.reduced_preds = reduced
    return reducer.removed


def closure_matrix(n, pred_lists, tid_of):
    """Reachability bitsets (over all actions) of a graph plus implicit
    thread sequencing; used by tests to check reduction soundness."""
    thread_prev = thread_prev_of(tid_of)
    reach = [0] * n
    for idx in range(n):
        cover = 1 << idx
        prev = thread_prev[idx]
        if prev is not None:
            cover |= reach[prev]
        for src in pred_lists[idx]:
            cover |= reach[src]
        reach[idx] = cover
    return reach
