"""The ARTC compiler: trace + snapshot -> compiled benchmark.

Pipeline (paper section 4.3.1), one pass over the records, record by
record as :class:`repro.stream.compile.StreamCompiler` feeds them:

1. interpret each record against the symbolic file-system model,
   producing the action's resource touches and replay annotations
   (:class:`repro.core.model.ModelBuilder`);
2. apply the configured ordering rules to those touches, growing the
   dependency graph (:class:`repro.core.deps.DependencyBuilder`);
3. reduce the action's wait set from the builder's candidates
   (:class:`repro.core.reduce.IncrementalReducer`) -- a replay fast
   path; the full attributed edge set is kept for analysis;

then package actions + graph + snapshot into a
:class:`repro.artc.benchmark.CompiledBenchmark`.  Touches and
reduction candidates are compile-time data: both live for one
record, and the benchmark keeps neither
(:meth:`~repro.artc.benchmark.CompiledBenchmark.touched_actions`
re-derives the touches).
"""

import time

from repro.artc.benchmark import CompiledBenchmark
from repro.core.deps import DependencyBuilder
from repro.core.model import ModelBuilder, time_origin
from repro.core.modes import RuleSet
from repro.core.reduce import IncrementalReducer


def compile_trace(trace, snapshot=None, ruleset=None, label=None, reduce=True):
    """Compile ``trace`` into a replayable benchmark.

    ``snapshot`` initializes the compiler's symbolic namespace (and is
    carried along for target initialization); ``ruleset`` defaults to
    ARTC's standard modes (every supported constraint except
    ``program_seq``).  ``reduce=False`` skips the edge-reduction pass
    (the replayer then waits on the raw ``preds``); used by the
    compile-speed microbenchmark and for before/after comparisons.
    """
    if ruleset is None:
        ruleset = RuleSet.artc_default()
    started = time.perf_counter()
    model = ModelBuilder(snapshot, origin=time_origin(trace), share=True)
    deps = DependencyBuilder(ruleset)
    preds = deps.graph.preds
    reducer = IncrementalReducer() if reduce else None
    actions = []
    reduced = []
    for record in trace.records:
        action, touches = model.feed(record)
        deps.feed(action, touches)
        if reducer is not None:
            idx = action.idx
            reduced.append(reducer.feed(
                idx, record.tid, preds[idx], deps.candidates
            ))
        actions.append(action)
    graph = deps.graph
    edges_removed = 0
    if reducer is not None:
        graph.reduced_preds = reduced
        edges_removed = reducer.removed
    stats = {
        "model_misses": model.model_misses,
        "n_actions": len(actions),
        "n_edges": graph.n_edges,
        "n_threads": len(trace.threads),
        "n_edges_reduced": graph.n_edges - edges_removed,
        "edges_removed": edges_removed,
        "compile_seconds": time.perf_counter() - started,
    }
    return CompiledBenchmark(
        actions,
        graph,
        ruleset,
        snapshot,
        trace.platform,
        label if label is not None else trace.label,
        stats,
    )
