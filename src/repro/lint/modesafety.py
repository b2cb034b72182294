"""Mode safety: the static prediction of Table 3's error cells.

For each named rule set (:func:`repro.core.modes.named_rulesets`) the
detector compiles the trace's dependency graph under that rule set and
counts the unordered conflicting pairs it leaves behind.  Zero races
means every admissible replay schedule is semantically equivalent to
the traced one -- the mode is *statically safe* for this trace; any
races mean some admissible schedule diverges, which is exactly when
the dynamic Table-3 experiment observes replay errors.  The static
verdict over-approximates (predicted-unsafe is a superset of
dynamically-erroring: a race may need unlucky scheduling, or diverge
only in data the failure counters do not compare), which is the useful
direction for a lint gate.

The two non-rule replay strategies are included for completeness:
single-threaded and temporally-ordered replay enforce a total order
containing the traced one, so every conflicting pair is ordered and
they are safe by construction.
"""

from typing import Any, Dict, List, Sequence

from repro.core.deps import build_dependencies
from repro.core.modes import ReplayMode, named_rulesets
from repro.lint.conflicts import find_races, touch_table

#: Per-mode scan caps: the matrix needs verdicts and rough magnitudes,
#: not an exhaustive enumeration of a quadratic race set.
MATRIX_MAX_RACES = 5000
MATRIX_PAIR_BUDGET = 2_000_000


def mode_safety_matrix(actions: Sequence[Any],
                       max_races: int = MATRIX_MAX_RACES,
                       pair_budget: int = MATRIX_PAIR_BUDGET
                       ) -> List[Dict[str, Any]]:
    """Race-count rows, one per replay mode, strongest first.

    Returns a list of dicts with ``mode``, ``safe``, ``races``,
    ``by_kind``, ``edges``, and ``truncated`` keys (strategy rows have
    ``races`` of 0 and a ``note``).
    """
    rows: List[Dict[str, Any]] = [
        {
            "mode": ReplayMode.SINGLE,
            "safe": True,
            "races": 0,
            "by_kind": {},
            "edges": None,
            "truncated": False,
            "note": "total order (trace order); safe by construction",
        },
        {
            "mode": ReplayMode.TEMPORAL,
            "safe": True,
            "races": 0,
            "by_kind": {},
            "edges": None,
            "truncated": False,
            "note": "preserves traced issue order; safe by construction",
        },
    ]
    table = touch_table(actions)
    for name, ruleset in named_rulesets().items():
        graph = build_dependencies(actions, ruleset)
        scan = find_races(
            actions,
            graph,
            max_findings=0,
            max_races=max_races,
            pair_budget=pair_budget,
            table=table,
        )
        rows.append({
            "mode": name,
            "safe": scan.n_races == 0,
            "races": scan.n_races,
            "by_kind": scan.by_kind,
            "edges": graph.n_edges,
            "truncated": scan.truncated,
        })
    return rows

