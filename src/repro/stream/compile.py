"""Incremental trace compilation over a live record stream.

:class:`StreamCompiler` drives the exact builders the batch compiler
uses -- :class:`~repro.core.model.ModelBuilder` ->
:class:`~repro.core.deps.DependencyBuilder` ->
:class:`~repro.core.reduce.IncrementalReducer` -- one record at a
time, so the per-action output (annotations, predelay, predecessor
set, reduced wait list) is identical to ``artc compile`` of the same
prefix by construction.  Every fed action is mixed into an
:class:`~repro.stream.digest.ActionChain`, the O(1)-memory digest
both sides of the identity tests compare.

Two retention modes; in both, an action's resource touches and
reduction candidates live only while it is fed, as in the batch
compiler:

- ``retain=True`` (default): actions and the full attributed graph
  are kept, actions with equal annotations sharing one ``ann`` dict as
  in the batch compiler; :meth:`finish_benchmark` packages them into
  the same :class:`~repro.artc.benchmark.CompiledBenchmark` the batch
  compiler returns.  Used by ``artc compile --stream`` and by the
  deferred-start follow path.
- ``retain=False`` (windowed): :meth:`feed` returns a
  :class:`CompiledAction` whose lifetime the caller owns, and the
  compiler keeps only the sliding tail of its own state: per-resource
  trackers (pruned on delete), the reducer's reach vectors for
  indices still citable as candidate edge sources (everything else is
  released by :meth:`retire`), and the current action's edge
  bookkeeping (:class:`TailGraph`); no annotation is shared, so no
  table of them grows.  The residual footprint per
  retired action is a few machine words (thread-slot ints); all heavy
  state is bounded by the window plus the live resource count.
"""

import time

from repro.artc.benchmark import CompiledBenchmark
from repro.core.deps import DependencyBuilder, DependencyGraph
from repro.core.model import ModelBuilder
from repro.core.modes import RuleSet
from repro.core.reduce import IncrementalReducer
from repro.stream.digest import ActionChain


class TailGraph(DependencyGraph):
    """A :class:`DependencyGraph` that keeps only the action being fed.
    Edges always target the newest action, so its predecessor list and
    edge keys are all the builder ever reads back: each new action
    starts both afresh (``preds`` maps just its index) and the earlier
    edges collapse into a count, so ``n_edges`` stays exact.  Full edge
    iteration is a batch affordance windowed mode gives up."""

    def __init__(self, program_seq=False):
        DependencyGraph.__init__(self, 0, program_seq=program_seq)
        self.preds = {}
        self._earlier = 0  # edges into every action before the newest

    def add_action(self):
        self._earlier += len(self.edge_kinds)
        self.edge_kinds.clear()
        self.preds.clear()
        self.preds[self.n_actions] = []
        self.n_actions += 1

    @property
    def n_edges(self):
        return self._earlier + len(self.edge_kinds)


class CompiledAction(object):
    """One streamed compile result: the action, its full predecessor
    list, and its reduced wait list (None when reduction is off)."""

    __slots__ = ("action", "preds", "wait")

    def __init__(self, action, preds, wait):
        self.action = action
        self.preds = preds
        self.wait = wait

    @property
    def idx(self):
        return self.action.idx

    @property
    def tid(self):
        return self.action.record.tid


class StreamCompiler(object):
    """Feed records, get compiled actions; see the module docstring
    for the retention modes."""

    def __init__(
        self,
        ruleset=None,
        snapshot=None,
        platform="linux",
        label="",
        retain=True,
        reduce=True,
    ):
        self.ruleset = ruleset if ruleset is not None else RuleSet.artc_default()
        self.snapshot = snapshot
        self.platform = platform
        self.label = label
        self.retain = retain
        self.reduce = reduce
        self.model = ModelBuilder(snapshot, share=retain)
        graph = None if retain else TailGraph(program_seq=self.ruleset.program_seq)
        self.deps = DependencyBuilder(
            self.ruleset, graph=graph, prune_dead=not retain
        )
        self.reducer = IncrementalReducer() if reduce else None
        self.chain = ActionChain()
        self.chain.header(platform, label, self.ruleset, snapshot)
        self.fed = 0
        self.actions = [] if retain else None
        self._reduced = [] if (retain and reduce) else None
        self._tids = set()
        self._started = time.perf_counter()

    def feed(self, record):
        """Compile one record; returns its :class:`CompiledAction`.
        Records must arrive in trace order (``idx`` dense from 0)."""
        action, touches = self.model.feed(record)
        self.deps.feed(action, touches)
        idx = action.idx
        preds = self.deps.graph.preds[idx]
        wait = None
        if self.reducer is not None:
            wait = self.reducer.feed(idx, record.tid, preds, self.deps.candidates)
        self.chain.update(record, action.ann, action.predelay, preds, wait)
        self.fed += 1
        self._tids.add(record.tid)
        if self.retain:
            self.actions.append(action)
            if self._reduced is not None:
                self._reduced.append(wait)
        return CompiledAction(action, preds, wait)

    def retire(self):
        """Windowed-mode memory release: drop reducer reach vectors no
        future candidate edge can cite (everything below the feed
        ceiling except the builder's live refs and thread frontiers).
        Returns the number of reach vectors released this call."""
        if self.reducer is None:
            return 0
        return self.reducer.retire_except(self.deps.live_refs(), self.fed)

    @property
    def retired(self):
        """Reach vectors released so far.  After a sweep this is
        ``fed - live_vectors`` whatever the sweep schedule was."""
        return self.reducer.retired if self.reducer is not None else 0

    @property
    def live_vectors(self):
        return self.reducer.live_vectors if self.reducer is not None else 0

    def digest(self):
        """The running :class:`ActionChain` digest at this boundary."""
        return self.chain.hexdigest()

    def stats(self):
        """Batch-shaped compile stats (``compile_seconds`` measures the
        streaming span, and is excluded from digests as volatile)."""
        n_edges = self.deps.graph.n_edges
        removed = self.reducer.removed if self.reducer is not None else 0
        return {
            "model_misses": self.model.model_misses,
            "n_actions": self.fed,
            "n_edges": n_edges,
            "n_threads": len(self._tids),
            "n_edges_reduced": n_edges - removed,
            "edges_removed": removed,
            "compile_seconds": time.perf_counter() - self._started,
        }

    def finish_benchmark(self):
        """Retain-mode only: package into the same
        :class:`CompiledBenchmark` the batch compiler returns."""
        if not self.retain:
            raise ValueError("windowed stream compile retains no benchmark")
        graph = self.deps.graph
        if self._reduced is not None:
            graph.reduced_preds = self._reduced
        return CompiledBenchmark(
            self.actions,
            graph,
            self.ruleset,
            self.snapshot,
            self.platform,
            self.label,
            self.stats(),
        )
