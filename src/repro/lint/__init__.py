"""Static race & divergence analysis over compiled traces (``artc lint``).

Four passes, each independently usable and aggregated by
:func:`lint_trace`:

- **races** (:mod:`repro.lint.conflicts`): cross-thread conflicting
  resource touches left unordered by the chosen rule set -- each is a
  potential replay divergence, reported with the weakest rule that
  would order it;
- **graph** (:mod:`repro.lint.graphcheck`): structural invariants of
  the dependency graph, including cycle membership reporting and
  reduction-soundness (closure equality) verification;
- **fsmodel** (:mod:`repro.lint.fscheck`): resource-lifecycle
  anomalies in the symbolic file-system interpretation;
- **modes** (:mod:`repro.lint.modesafety`): the per-mode safety matrix
  statically predicting Table 3's error cells.

The passes prove (or refute) mode safety *before* any replay runs, and
serve as the correctness oracle for optimizations of the dependency
builder, the reduction pass, and the replayer: whatever they change,
the certified partial order must not.
"""

from typing import Any, List, Sequence

from repro.core.deps import build_dependencies
from repro.core.model import TraceModel
from repro.core.modes import RuleSet
from repro.core.reduce import reduce_graph
from repro.lint.conflicts import RaceScan, find_races, touch_table
from repro.lint.fscheck import check_fs_model
from repro.lint.graphcheck import check_graph
from repro.lint.modesafety import mode_safety_matrix
from repro.lint.report import (
    ERROR,
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    INFO,
    WARNING,
    Finding,
    LintReport,
    PassResult,
)

__all__ = [
    "ERROR", "EXIT_CLEAN", "EXIT_FINDINGS", "EXIT_INTERNAL", "INFO",
    "WARNING", "Finding", "LintReport", "PassResult", "RaceScan",
    "check_fs_model", "check_graph", "find_races", "lint_benchmark",
    "lint_trace", "mode_safety_matrix", "touch_table",
]


def _race_pass(actions: Sequence[Any], graph: Any,
               max_findings: int) -> PassResult:
    scan = find_races(actions, graph, max_findings=max_findings)
    findings: List[Finding] = []
    for race in scan.races:
        findings.append(Finding(
            "unordered-conflict", ERROR,
            "#%d %s (%s) races #%d %s (%s) on %r across threads %s/%s"
            % (race["a"], race["a_call"], race["a_role"],
               race["b"], race["b_call"], race["b_role"],
               race["resource"], race["a_tid"], race["b_tid"]),
            actions=(race["a"], race["b"]),
            resource=race["resource"],
            rule=race["rule"],
        ))
    return PassResult("races", findings, scan.stats())


def lint_trace(trace: Any, snapshot: Any = None, ruleset: Any = None,
               modes: bool = True, max_findings: int = 25,
               reduce: bool = True) -> LintReport:
    """Run every lint pass over ``trace``; returns a
    :class:`~repro.lint.report.LintReport`.

    ``ruleset`` is the compile mode being certified (ARTC default when
    omitted); ``modes=False`` skips the mode-safety matrix;
    ``reduce=False`` skips edge reduction (the graph pass then has no
    reduction to verify).
    """
    if ruleset is None:
        ruleset = RuleSet.artc_default()
    model = TraceModel(trace, snapshot)
    candidates: List[List[int]] = []
    graph = build_dependencies(model.actions, ruleset, candidates)
    if reduce:
        reduce_graph(graph, [a.record.tid for a in model.actions], candidates)
    return lint_compiled(
        model.actions, graph, ruleset,
        snapshot=snapshot,
        label=trace.label,
        modes=modes,
        max_findings=max_findings,
    )


def lint_benchmark(benchmark: Any, modes: bool = True,
                   max_findings: int = 25) -> LintReport:
    """Lint an already-compiled benchmark.

    No benchmark keeps its touches, so the actions are
    :meth:`~repro.artc.benchmark.CompiledBenchmark.touched_actions`,
    the trace model re-run once over the benchmark's trace; the
    dependency graph and rule set are taken from the benchmark as
    compiled, so a loaded ``.artcb`` is checked exactly as a fresh
    compile is.
    """
    return lint_compiled(
        benchmark.touched_actions(),
        benchmark.graph,
        benchmark.ruleset,
        snapshot=benchmark.snapshot,
        label=benchmark.label,
        modes=modes,
        max_findings=max_findings,
    )


def lint_compiled(actions: Sequence[Any], graph: Any, ruleset: Any,
                  snapshot: Any = None, label: str = "",
                  modes: bool = True,
                  max_findings: int = 25) -> LintReport:
    """Lint pre-built actions + graph (the shared driver)."""
    report = LintReport(label=label, ruleset=ruleset)
    report.add(_race_pass(actions, graph, max_findings))
    findings, stats = check_graph(graph, actions, ruleset)
    report.add(PassResult("graph", findings, stats))
    findings, stats = check_fs_model(actions, snapshot)
    report.add(PassResult("fsmodel", findings, stats))
    if modes:
        report.mode_matrix = mode_safety_matrix(actions)
    return report
