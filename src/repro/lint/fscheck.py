"""FS-model consistency: lifecycle anomalies in the action stream.

The compiler's trace model (:mod:`repro.core.fsstate`) assigns
every FILE/PATH/FD/AIOCB touch a role in the resource's lifecycle.  A
well-formed compile yields, per resource generation, at most one
create, at most one delete, uses strictly between them, and no
interleaving between generations of the same name.  Violations mean
either the trace is internally inconsistent (concurrent tracing
artifacts, truncated capture) or the model mis-tracked state -- both
are exactly the conditions under which replay diverges even with every
rule enabled, so they surface here rather than mid-replay.

Checks:

- ``use-before-create``: a resource touched before the action that
  creates it;
- ``double-create`` / ``double-delete``: a generation created or
  deleted twice (for descriptors, a double close);
- ``use-after-delete``: a touch after the generation's delete (for
  descriptors, a write-after-close);
- ``stale-generation-reuse``: touches of an old fd/aiocb generation
  after a newer generation of the same name exists;
- ``rename-shadow``: a rename whose destination names a live file --
  advisory normally, a warning when descriptors are still open on the
  displaced file (replayed stale reads would hit the wrong data).
"""

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.fsstate import FsState
from repro.core.resources import AIOCB, FD, FILE, PATH, Role, name_of
from repro.lint.report import INFO, WARNING, Finding

_CHECK_KINDS = (FILE, PATH, FD, AIOCB)


def _series_by_key(actions: Sequence[Any]
                   ) -> Dict[Any, List[Tuple[int, Any]]]:
    table: Dict[Any, List[Tuple[int, Any]]] = {}
    for action in actions:
        seen: Set[Tuple[Any, Tuple[int, Any]]] = set()
        for key, role in action.touches:
            if key[0] not in _CHECK_KINDS:
                continue
            entry = (action.idx, role)
            if (key, entry) in seen:
                continue
            seen.add((key, entry))
            table.setdefault(key, []).append(entry)
    return table


def _call(actions: Sequence[Any], idx: int) -> str:
    return actions[idx].record.name


def _lifecycle_findings(actions: Sequence[Any],
                        table: Dict[Any, List[Tuple[int, Any]]]
                        ) -> List[Finding]:
    findings: List[Finding] = []
    for key, series in sorted(table.items()):
        kind = key[0]
        creates = [idx for idx, role in series if role == Role.CREATE]
        deletes = [idx for idx, role in series if role == Role.DELETE]
        if creates:
            first_create = creates[0]
            early = [idx for idx, role in series
                     if idx < first_create and role != Role.CREATE]
            if early:
                findings.append(Finding(
                    "use-before-create", WARNING,
                    "%r used by #%d %s before its create #%d %s"
                    % (key, early[0], _call(actions, early[0]),
                       first_create, _call(actions, first_create)),
                    actions=(early[0], first_create),
                    resource=key,
                ))
            for extra in creates[1:]:
                findings.append(Finding(
                    "double-create", WARNING,
                    "%r created again by #%d %s (first create #%d %s)"
                    % (key, extra, _call(actions, extra),
                       creates[0], _call(actions, creates[0])),
                    actions=(creates[0], extra),
                    resource=key,
                ))
        if deletes:
            check = "double-close" if kind == FD else "double-delete"
            for extra in deletes[1:]:
                findings.append(Finding(
                    check, WARNING,
                    "%r deleted again by #%d %s (first delete #%d %s)"
                    % (key, extra, _call(actions, extra),
                       deletes[0], _call(actions, deletes[0])),
                    actions=(deletes[0], extra),
                    resource=key,
                ))
            first_delete = deletes[0]
            late = [idx for idx, role in series
                    if idx > first_delete and role != Role.DELETE]
            if late:
                check = "write-after-close" if kind == FD else "use-after-delete"
                findings.append(Finding(
                    check, WARNING,
                    "%r touched by #%d %s after its delete #%d %s"
                    % (key, late[0], _call(actions, late[0]),
                       first_delete, _call(actions, first_delete)),
                    actions=(first_delete, late[0]),
                    resource=key,
                ))
    return findings


def _stale_generation_findings(actions: Sequence[Any],
                               table: Dict[Any, List[Tuple[int, Any]]]
                               ) -> List[Finding]:
    """Touches of generation ``g`` after generation ``g+1``'s create:
    the numeric name was reused while the old binding was still being
    driven (fd and aiocb names; path generations legitimately
    interleave only through their shared transition actions)."""
    findings: List[Finding] = []
    first_touch: Dict[Any, int] = {}
    for key, series in table.items():
        if key[0] not in (FD, AIOCB):
            continue
        first_touch[key] = min(idx for idx, _role in series)
    by_name: Dict[Any, List[Any]] = {}
    for key in first_touch:
        by_name.setdefault(name_of(key), []).append(key)
    for name, keys in sorted(by_name.items()):
        keys.sort(key=lambda k: k[2])  # generation order
        for older, newer in zip(keys, keys[1:]):
            boundary = first_touch[newer]
            stale = [
                idx for idx, role in table[older]
                if idx > boundary and role != Role.DELETE
            ]
            if stale:
                findings.append(Finding(
                    "stale-generation-reuse", WARNING,
                    "generation %d of %s still used by #%d %s after "
                    "generation %d began at #%d %s"
                    % (older[2], name, stale[0], _call(actions, stale[0]),
                       newer[2], boundary, _call(actions, boundary)),
                    actions=(boundary, stale[0]),
                    resource=older,
                ))
    return findings


def _rename_shadow_findings(actions: Sequence[Any], snapshot: Any
                            ) -> Tuple[List[Finding], FsState]:
    """Replay the trace model and flag renames whose destination is
    occupied at rename time."""
    findings: List[Finding] = []
    state = FsState(snapshot)
    for action in actions:
        record = action.record
        if record.name.startswith("rename") and record.ok:
            new = record.args.get("new")
            displaced = None if new is None else state.fs.lookup(new, follow=False)
            if displaced is not None:
                open_fds = state.open_descriptors_of(displaced.ino)
                severity = WARNING if open_fds else INFO
                extra = (
                    " with descriptors %s still open" % open_fds
                    if open_fds else ""
                )
                findings.append(Finding(
                    "rename-shadow", severity,
                    "#%d rename %s -> %s shadows a live path%s"
                    % (record.idx, record.args.get("old"), new, extra),
                    actions=(record.idx,),
                    detail={"open_fds": open_fds},
                ))
        state.apply(record)
    return findings, state


def check_fs_model(actions: Sequence[Any], snapshot: Any = None
                   ) -> Tuple[List[Finding], Dict[str, Any]]:
    """Run every FS-model check; returns (findings, stats)."""
    table = _series_by_key(actions)
    findings = _lifecycle_findings(actions, table)
    findings.extend(_stale_generation_findings(actions, table))
    shadow_findings, state = _rename_shadow_findings(actions, snapshot)
    findings.extend(shadow_findings)
    findings.sort(key=lambda f: f.actions[0] if f.actions else -1)
    stats = {
        "resources": len(table),
        "model_misses": state.model_misses,
    }
    return findings, stats
