"""Static race detection over a compiled dependency graph.

A *conflicting pair* is two actions in different threads touching the
same FILE/PATH/FD/AIOCB resource where at least one touch mutates the
resource's replay-visible state.  A pair left unordered by the chosen
rule set -- neither action reaches the other through materialized
edges plus implicit thread sequencing -- can replay in either order,
so the two orders may produce different outcomes: each such pair is a
potential replay divergence (the static analogue of the dynamic
failures Table 3 counts).

Because every materialized edge points forward in trace order and
thread sequencing does too, "ordered" reduces to: the earlier action
is an ancestor of the later one in the closure.  The closure is the
bitset reachability matrix :func:`repro.core.reduce.closure_matrix`
already computes for reduction soundness checks.

Each reported race names the action indices, system calls, resource,
and the *weakest* Table-2 rule that would order the pair -- the lint
answer to "which mode do I need for this trace to replay faithfully".
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.reduce import closure_matrix
from repro.core.resources import AIOCB, FD, FILE, PATH, Role
from repro.syscalls.registry import spec_for

_LINT_KINDS = (FILE, PATH, FD, AIOCB)

_ROLE_RANK = {Role.USE: 0, Role.CREATE: 1, Role.DELETE: 2}


def _open_truncates(record: Any) -> bool:
    flags = record.args.get("flags", 0)
    if isinstance(flags, str):
        return "O_TRUNC" in flags
    try:
        from repro.vfs.flags import O_TRUNC

        return bool(flags & O_TRUNC)
    except Exception:
        return False


def touch_mutates(kind: str, role: Any, spec: Any, record: Any) -> bool:
    """Does this touch mutate replay-visible state of the resource?

    A create or delete always does.  A USE touch does when the call's
    registry row says it ``mutates`` that kind of resource: data, size
    or metadata for a file (namespace operations too, for the parent
    directory's file and, for rename, every descendant), the cursor
    for a descriptor (the state ``fd_seq`` exists to protect), the
    state of an AIO control block.  An open mutates its file when it
    asks to truncate.  A PATH's mutation happens through generation
    create/delete."""
    if role != Role.USE or kind in spec.mutates:
        return True
    return kind == FILE and spec.kind == "open" and _open_truncates(record)


def touch_table(actions: Sequence[Any]
                ) -> Dict[Any, List[Tuple[int, Any, Any, bool]]]:
    """Per-resource touch series, one merged entry per action:
    ``{key: [(idx, tid, role, mutating), ...]}`` in trace order."""
    table: Dict[Any, List[Tuple[int, Any, Any, bool]]] = {}
    for action in actions:
        spec = spec_for(action.record.name)
        merged: Dict[Any, List[Any]] = {}
        for touch in action.touches:
            kind = touch.key[0]
            if kind not in _LINT_KINDS:
                continue
            mutates = touch_mutates(kind, touch.role, spec, action.record)
            previous = merged.get(touch.key)
            if previous is None:
                merged[touch.key] = [touch.role, mutates]
            else:
                if _ROLE_RANK[touch.role] > _ROLE_RANK[previous[0]]:
                    previous[0] = touch.role
                previous[1] = previous[1] or mutates
        tid = action.record.tid
        for key, (role, mutates) in merged.items():
            table.setdefault(key, []).append((action.idx, tid, role, mutates))
    return table


def weakest_ordering_rule(kind: str, role_a: Any, role_b: Any,
                          size_linked: bool = False) -> str:
    """The weakest Table-2 rule that would order a conflicting pair.

    Stage suffices whenever one side is the resource's create or
    delete; otherwise only sequential ordering helps (for files, the
    future-work ``file_size`` mode when the pair is linked by a size
    dependency).
    """
    staged = Role.CREATE in (role_a, role_b) or Role.DELETE in (role_a, role_b)
    if kind == PATH:
        return "path_stage+"
    if kind == FILE:
        if staged:
            return "file_stage"
        return "file_size" if size_linked else "file_seq"
    if kind == FD:
        return "fd_stage" if staged else "fd_seq"
    if kind == AIOCB:
        return "aio_stage" if staged else "aio_seq"
    raise ValueError("no ordering rule for resource kind %r" % (kind,))


class RaceScan(object):
    """Outcome of one race-detection run."""

    __slots__ = ("races", "n_races", "by_kind", "pairs_examined", "truncated")

    def __init__(self, races: List[Dict[str, Any]], n_races: int,
                 by_kind: Dict[str, int], pairs_examined: int,
                 truncated: bool) -> None:
        self.races = races
        self.n_races = n_races
        self.by_kind = by_kind
        self.pairs_examined = pairs_examined
        self.truncated = truncated

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "races": self.n_races,
            "pairs_examined": self.pairs_examined,
        }
        for kind in sorted(self.by_kind):
            out["races_%s" % kind] = self.by_kind[kind]
        if self.truncated:
            out["truncated"] = True
        return out


def _size_linked(actions: Sequence[Any], earlier: int,
                 later: int) -> bool:
    ann = actions[later].ann
    return ann.get("size_dep") == earlier or ann.get("size_chain") == earlier


def find_races(actions: Sequence[Any], graph: Any,
               max_findings: int = 25,
               max_races: Optional[int] = None,
               pair_budget: int = 2_000_000,
               table: Optional[Dict[Any, List[Tuple[int, Any, Any, bool]]]] = None,
               closure: Optional[List[int]] = None) -> RaceScan:
    """Enumerate unordered conflicting pairs under ``graph``.

    ``max_findings`` caps the *detailed* race records returned;
    counting continues past it.  ``max_races`` optionally stops the
    scan entirely once that many races are found (mode-matrix use) and
    ``pair_budget`` bounds total pair examinations; hitting either
    marks the scan truncated, so ``n_races`` is a lower bound.
    ``table``/``closure`` let callers reuse the touch table across
    rule sets (the touch stream is independent of the rules).
    """
    n = graph.n_actions
    tid_of = [action.record.tid for action in actions]
    if closure is None:
        closure = closure_matrix(n, graph.preds, tid_of)
    if table is None:
        table = touch_table(actions)
    races: List[Dict[str, Any]] = []
    n_races = 0
    by_kind: Dict[str, int] = {}
    pairs = 0
    truncated = False

    for key, series in table.items():
        if truncated:
            break
        if len(series) < 2:
            continue
        mutators = [entry for entry in series if entry[3]]
        if not mutators:
            continue
        kind = key[0]
        for m_idx, m_tid, m_role, _m in mutators:
            if truncated:
                break
            for o_idx, o_tid, o_role, o_mutates in series:
                if o_idx == m_idx or o_tid == m_tid:
                    continue
                if o_mutates and o_idx < m_idx:
                    continue  # mutator-mutator pair counted once
                pairs += 1
                earlier, later = (
                    (m_idx, o_idx) if m_idx < o_idx else (o_idx, m_idx)
                )
                if not (closure[later] >> earlier) & 1:
                    n_races += 1
                    by_kind[kind] = by_kind.get(kind, 0) + 1
                    if len(races) < max_findings:
                        role_of = {m_idx: m_role, o_idx: o_role}
                        rule = weakest_ordering_rule(
                            kind,
                            role_of[earlier],
                            role_of[later],
                            size_linked=_size_linked(actions, earlier, later),
                        )
                        races.append({
                            "resource": key,
                            "a": earlier,
                            "b": later,
                            "a_call": actions[earlier].record.name,
                            "b_call": actions[later].record.name,
                            "a_tid": tid_of[earlier],
                            "b_tid": tid_of[later],
                            "a_role": role_of[earlier],
                            "b_role": role_of[later],
                            "rule": rule,
                        })
                if max_races is not None and n_races >= max_races:
                    truncated = True
                    break
                if pairs >= pair_budget:
                    truncated = True
                    break
    return RaceScan(races, n_races, by_kind, pairs, truncated)
