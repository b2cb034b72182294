"""Translation validation for replay cores (``artc verify`` engine a).

The JIT core (:mod:`repro.artc.codegen`) emits straight-line Python per
thread with three load-bearing specializations: gate checks elided for
actions whose enforced predecessors are all earlier same-thread
actions, completion broadcast batched into per-run decrement passes,
and constants (argument dicts, fd-remap keys, expected return values,
conformance-check forms) bound at codegen time.  Each of those is an
*obligation* this module discharges statically, per replay, instead of
trusting the sampled dynamic byte-identity suite:

- **gate domination**: a gate may be elided only when every enforced
  predecessor (reduced graph when the core waits on it) is an earlier
  action of the same thread;
- **release partition**: the claimed batched-release runs, flattened,
  must equal the serial successor list element-for-element, every run
  member must be owned by the run's thread, adjacent runs must change
  owners (maximality), and a waiting-table probe must be present
  exactly when the run's owner is another thread;
- **constant binding**: the bound kind/step/argument/fd-key/update
  claims must match the installed execution plan -- and the installed
  plan itself must match an independent recompile of every entry
  (:func:`repro.artc.planir.compile_entry`), which catches a plan
  edited, or gone stale against edited actions, after it was built;
- **conformance coverage**: every non-META action must carry the
  correct outcome check for its ``(ok, is_read)`` shape, with the
  expected-ret constant equal to the traced return value.

The validator walks the emitter's *claims table*
(:attr:`repro.artc.codegen.JitProgram.facts` -- the IR-derived plan
sequence, not the generated Python text) against obligations derived
independently from the dependency graph and the trace.  The scoreboard
and event cores interpret rather than specialize, so their
certificates cover the shared obligations: plan faithfulness plus the
graph invariants their wait machinery relies on (in-range
duplicate-free predecessor lists, acyclicity under thread sequencing,
and reduction-closure equality).

The result is a :class:`Certificate` per (benchmark, core): a
machine-checkable record of the obligations discharged and every
violation found, embeddable in the ``.artcb`` wrapper.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.artc import codegen, planir
from repro.core.analysis import find_cycle, thread_edges
from repro.core.reduce import closure_matrix
from repro.lint.report import ERROR, WARNING, Finding

#: Certificate serialization format tag.
CERT_FORMAT = "artc-cert-v1"

#: The replay cores a certificate can cover.
CORES = ("events", "scoreboard", "jit")

#: (variant, reduced) program configurations the jit certificate
#: validates -- every shape ``_ReplayRun._jit_body`` can ask for.
_JIT_CONFIGS = (("artc", True), ("artc", False), ("free", False),
                ("seq", False))


class Certificate(object):
    """One core's verification outcome for one benchmark.

    ``obligations`` counts the checks discharged by category;
    ``findings`` holds the :class:`~repro.lint.report.Finding` objects
    for every violated obligation.  ``ok`` is True when no finding at
    warning severity or above survived.
    """

    __slots__ = ("core", "label", "key", "obligations", "findings")

    def __init__(self, core: str, label: str, key: Any,
                 obligations: Dict[str, int],
                 findings: Sequence[Finding]) -> None:
        if core not in CORES:
            raise ValueError("unknown replay core %r" % (core,))
        self.core = core
        self.label = label
        self.key = key  # planir.PlanKey
        self.obligations = dict(obligations)
        self.findings = list(findings)

    @property
    def ok(self) -> bool:
        return not any(f.severity in (WARNING, ERROR) for f in self.findings)

    @property
    def n_obligations(self) -> int:
        return sum(self.obligations.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CERT_FORMAT,
            "core": self.core,
            "label": self.label,
            "key": self.key._asdict(),
            "ok": self.ok,
            "obligations": dict(self.obligations),
            "violations": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Certificate":
        if payload.get("format") != CERT_FORMAT:
            raise ValueError(
                "not a serialized certificate (format %r)"
                % (payload.get("format"),)
            )
        raw = payload["key"]
        key = planir.PlanKey(
            raw["source"], raw["target"], bool(raw["o_excl_fix"]), raw["fsync_mode"]
        )
        findings = [
            Finding(
                item["check"], item["severity"], item["message"],
                actions=item.get("actions", ()),
                detail=item.get("detail"),
            )
            for item in payload.get("violations", ())
        ]
        return cls(payload["core"], payload.get("label", ""), key,
                   payload.get("obligations", {}), findings)

    def __repr__(self) -> str:
        return "<Certificate %s %s: %d obligations, %d violations>" % (
            self.core, "ok" if self.ok else "REJECTED",
            self.n_obligations, len(self.findings),
        )


# -- obligation derivation (independent of the emitter) ------------------


def enforced_preds(benchmark: Any, reduced: bool) -> List[List[int]]:
    """The predecessor lists a core enforces under ``reduced`` -- the
    same selection rule as ``_ReplayRun._enforced``."""
    graph = benchmark.graph
    if reduced and graph.reduced_preds is not None:
        return graph.reduced_preds
    return graph.preds


def successor_lists(preds: Sequence[Sequence[int]]) -> List[List[int]]:
    """Invert predecessor lists into per-action successor lists, in
    the destination order the serial release walks them."""
    succs: List[List[int]] = [[] for _ in preds]
    for dst, plist in enumerate(preds):
        for src in plist:
            succs[src].append(dst)
    return succs


def _gate_required(preds: Sequence[int], tid_of: Sequence[Any],
                   idx: int) -> Optional[int]:
    """The witness predecessor forcing a gate at ``idx``, or None when
    every enforced predecessor is an earlier same-thread action."""
    tid = tid_of[idx]
    for src in preds:
        if tid_of[src] != tid or src >= idx:
            return src
    return None


# -- plan faithfulness ---------------------------------------------------


def _entry_shape(entry: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """A comparable summary of one runtime plan entry (bound calls
    dropped: they are a pure function of the step kind and its
    arguments)."""
    kind, payload, is_read, upd = entry
    fd_key = None
    steps: Optional[Tuple[Any, ...]] = None
    if kind == planir.STATIC:
        _call, args, step_name, step_kind = payload
        steps = ((step_name, step_kind, args),)
    elif kind == planir.FDREMAP:
        _call, args, fd_key, step_name, step_kind = payload
        fd_key = tuple(fd_key)
        steps = ((step_name, step_kind, args),)
    elif kind == planir.MULTI:
        steps = tuple(
            (step_name, step_kind, args)
            for _call, args, step_name, step_kind in payload
        )
    return (kind, bool(is_read), bool(upd), fd_key, steps)


def verify_plan(benchmark: Any, plan: Any,
                max_findings: int = 25) -> Tuple[List[Finding], int]:
    """Recompile every entry of ``plan`` from the trace and diff it
    against the installed entries.  An installed plan normally *is*
    the recompile (same code path, built once and kept in
    ``benchmark.derived``), so any difference means the plan or the
    actions were changed since -- the stale-bound-constant hazard."""
    findings: List[Finding] = []
    emulation = planir.emulation_of(plan.key)
    checked = 0
    for action, entry in zip(benchmark.actions, plan.entries):
        checked += 1
        expected = planir.compile_entry(action, plan.key, emulation)
        if _entry_shape(expected) == _entry_shape(entry):
            continue
        if len(findings) < max_findings:
            findings.append(Finding(
                "stale-plan-entry", ERROR,
                "installed plan entry for #%d (%s) does not match an "
                "independent recompile: expected %s, found %s"
                % (action.idx, action.record.name,
                   _describe_entry(expected), _describe_entry(entry)),
                actions=(action.idx,),
                detail={
                    "expected_kind": planir.KIND_NAMES[expected[0]],
                    "found_kind": planir.KIND_NAMES[entry[0]],
                },
            ))
    return findings, checked


def _describe_entry(entry: Tuple[Any, ...]) -> str:
    kind, payload = entry[0], entry[1]
    name = planir.KIND_NAMES[kind]
    if kind == planir.STATIC:
        return "%s %s(%r)" % (name, payload[2], payload[1])
    if kind == planir.FDREMAP:
        return "%s %s(fd@%r, %r)" % (name, payload[3], payload[2], payload[1])
    if kind == planir.MULTI:
        return "%s %s" % (name, "+".join(step[2] for step in payload))
    return name


# -- graph obligations (scoreboard / events wait machinery) --------------


def verify_graph(benchmark: Any, reduced: bool = True,
                 max_findings: int = 25) -> Tuple[List[Finding],
                                                  Dict[str, int]]:
    """The invariants the counter/event wait machinery relies on:
    in-range duplicate-free predecessor lists (a duplicate would
    double-decrement a pending counter), acyclicity under implicit
    thread sequencing (else a thread parks forever), and -- when the
    core waits on the reduced graph -- closure equality with the full
    edge set (else the smaller wait sets enforce a weaker order)."""
    findings: List[Finding] = []
    graph = benchmark.graph
    actions = benchmark.actions
    n = len(actions)
    tid_of = [action.record.tid for action in actions]
    checked = 0

    pred_sets = [("preds", graph.preds)]
    if graph.reduced_preds is not None:
        pred_sets.append(("reduced_preds", graph.reduced_preds))
    structural_ok = True
    for set_name, preds in pred_sets:
        for dst, plist in enumerate(preds):
            checked += 1
            seen = set()
            for src in plist:
                if not (0 <= src < n) or src == dst:
                    structural_ok = False
                    if len(findings) < max_findings:
                        findings.append(Finding(
                            "pred-out-of-range", ERROR,
                            "%s[%d] names predecessor %d outside [0, %d)"
                            % (set_name, dst, src, n),
                            actions=(dst,),
                        ))
                    continue
                if src in seen:
                    structural_ok = False
                    if len(findings) < max_findings:
                        findings.append(Finding(
                            "duplicate-pred-counter", ERROR,
                            "%s[%d] lists predecessor %d twice: the "
                            "pending counter would be decremented twice "
                            "per completion" % (set_name, dst, src),
                            actions=(src, dst),
                        ))
                seen.add(src)

    cycle = None
    if structural_ok:
        implicit = thread_edges(actions)
        enforced = enforced_preds(benchmark, reduced)
        merged = [
            list(plist) + list(extra)
            for plist, extra in zip(enforced, implicit)
        ]
        cycle = find_cycle(merged)
        if cycle is not None:
            findings.append(Finding(
                "replay-deadlock", ERROR,
                "enforced graph plus thread sequencing has a cycle of "
                "%d actions: every core would park forever"
                % len(cycle),
                actions=tuple(cycle),
                detail={"members": list(cycle)},
            ))

    closure_checked = False
    if (structural_ok and cycle is None and reduced
            and graph.reduced_preds is not None):
        closure_checked = True
        full = closure_matrix(n, graph.preds, tid_of)
        small = closure_matrix(n, graph.reduced_preds, tid_of)
        if full != small:
            for idx in range(n):
                if full[idx] != small[idx]:
                    findings.append(Finding(
                        "closure-mismatch", ERROR,
                        "reduced wait sets enforce a different partial "
                        "order starting at action %d" % idx,
                        actions=(idx,),
                    ))
                    break
    stats = {
        "graph_nodes": checked,
        "acyclic": int(cycle is None),
        "closure_checked": int(closure_checked),
    }
    return findings, stats


# -- program-claims validation (jit core) --------------------------------


def validate_program(benchmark: Any, plan: Any, program: Any,
                     reduced: bool = True,
                     max_findings: int = 25) -> Tuple[List[Finding],
                                                      Dict[str, int]]:
    """Check a compiled program's claims table against independently
    derived obligations.  ``program.facts`` records what the emitter
    bound; this function recomputes what it *should* have bound from
    the dependency graph, the plan entries, and the trace records --
    never by calling back into the emitter's own helpers."""
    findings: List[Finding] = []
    actions = benchmark.actions
    entries = plan.entries
    tid_of = [action.record.tid for action in actions]
    synced = program.variant == "artc"
    preds = enforced_preds(benchmark, reduced) if synced else None
    succs = successor_lists(preds) if preds is not None else None
    facts = program.facts
    counts = {"gates": 0, "releases": 0, "bindings": 0, "conformance": 0}

    def report(check: str, severity: str, message: str, idx: int,
               detail: Optional[Dict[str, Any]] = None) -> None:
        if len(findings) < max_findings:
            findings.append(Finding(
                check, severity,
                "[%s] %s" % (program.variant, message),
                actions=(idx,), detail=detail,
            ))

    for action, entry in zip(actions, entries):
        idx = action.idx
        record = action.record
        fact = facts.get(idx)
        if fact is None:
            report("missing-program-facts", ERROR,
                   "action #%d has no claims entry: the generated "
                   "program cannot be validated" % idx, idx)
            continue

        # Gate domination -------------------------------------------------
        counts["gates"] += 1
        if synced and preds is not None:
            witness = _gate_required(preds[idx], tid_of, idx)
            if witness is not None and not fact["gate"]:
                report(
                    "elided-gate", ERROR,
                    "gate elided at #%d but enforced predecessor #%d "
                    "is %s -- the program can run ahead of its "
                    "dependencies"
                    % (idx, witness,
                       "cross-thread" if tid_of[witness] != tid_of[idx]
                       else "not an earlier action"),
                    idx, detail={"witness": witness},
                )
            elif witness is None and fact["gate"]:
                report(
                    "spurious-gate", WARNING,
                    "gate emitted at #%d though every enforced "
                    "predecessor is an earlier same-thread action"
                    % idx, idx,
                )
        elif fact["gate"]:
            report("spurious-gate", ERROR,
                   "unsynchronized variant claims a gate at #%d" % idx,
                   idx)

        # Release partition -----------------------------------------------
        counts["releases"] += len(fact["releases"]) or 1
        if synced and succs is not None:
            _check_releases(fact, succs[idx], tid_of, idx, report)
        elif fact["releases"]:
            report("release-mismatch", ERROR,
                   "unsynchronized variant claims releases at #%d" % idx,
                   idx)

        # Constant binding -------------------------------------------------
        counts["bindings"] += 1
        kind = entry[0]
        if fact["kind"] != kind:
            report("stale-binding", ERROR,
                   "#%d compiled as %s but the plan entry is %s"
                   % (idx, planir.KIND_NAMES[fact["kind"]],
                      planir.KIND_NAMES[kind]), idx)
        elif kind in (planir.STATIC, planir.FDREMAP, planir.MULTI):
            _check_binding(fact, entry, idx, report)
        if bool(fact["update"]) != bool(entry[3]):
            report("stale-binding", ERROR,
                   "#%d fd-map update claim %r does not match the plan "
                   "entry" % (idx, fact["update"]), idx)

        # Conformance coverage --------------------------------------------
        counts["conformance"] += 1
        if kind == planir.META:
            expected_form = "meta"
        elif kind == planir.DYNAMIC:
            expected_form = "dynamic"
        elif not record.ok:
            expected_form = "assess"
        elif entry[2]:
            expected_form = "ok_ret"
        else:
            expected_form = "ok"
        form = fact["conformance"]
        if form is None:
            report("missing-conformance-check", ERROR,
                   "#%d (%s) carries no outcome check: a divergent "
                   "result would go unreported" % (idx, record.name),
                   idx)
        elif form != expected_form:
            report("wrong-conformance-form", ERROR,
                   "#%d (%s) uses conformance form %r, expected %r"
                   % (idx, record.name, form, expected_form), idx)
        elif form == "ok_ret" and fact["expected_ret"] != record.ret:
            report("stale-expected-ret", ERROR,
                   "#%d (%s) compares against expected ret %r but the "
                   "trace recorded %r"
                   % (idx, record.name, fact["expected_ret"], record.ret),
                   idx)
    if len(facts) > len(actions):
        findings.append(Finding(
            "missing-program-facts", ERROR,
            "[%s] claims table covers %d actions, benchmark has %d"
            % (program.variant, len(facts), len(actions)),
        ))
    return findings, counts


def _check_releases(fact: Dict[str, Any], serial: Sequence[int],
                    tid_of: Sequence[Any], idx: int,
                    report: Any) -> None:
    flattened: List[int] = []
    previous_owner: Any = object()
    for owner, members, probe in fact["releases"]:
        flattened.extend(members)
        if not members:
            report("release-mismatch", ERROR,
                   "#%d claims an empty release run for thread %s"
                   % (idx, owner), idx)
            continue
        for succ in members:
            if not (0 <= succ < len(tid_of)) or tid_of[succ] != owner:
                report(
                    "release-owner-mismatch", ERROR,
                    "#%d releases #%s in a run owned by thread %s but "
                    "it belongs to %s: the single probe would miss a "
                    "parked thread"
                    % (idx, succ, owner,
                       tid_of[succ] if 0 <= succ < len(tid_of) else "?"),
                    idx,
                )
        if owner == previous_owner:
            report("release-run-not-maximal", WARNING,
                   "#%d claims adjacent release runs with the same "
                   "owner %s (batching lost)" % (idx, owner), idx)
        previous_owner = owner
        expected_probe = owner != fact["tid"]
        if probe != expected_probe:
            report(
                "release-probe-mismatch", ERROR,
                "#%d run for thread %s %s a waiting-table probe but "
                "the owner %s the releasing thread"
                % (idx, owner,
                   "claims" if probe else "omits",
                   "is" if owner == fact["tid"] else "is not"),
                idx,
            )
    if flattened != list(serial):
        report(
            "release-mismatch", ERROR,
            "#%d batched release decrements %r but the serial "
            "successor list is %r: pending counters would diverge"
            % (idx, flattened, list(serial)), idx,
            detail={"claimed": flattened, "serial": list(serial)},
        )


def _check_binding(fact: Dict[str, Any], entry: Tuple[Any, ...],
                   idx: int, report: Any) -> None:
    kind, payload = entry[0], entry[1]
    if kind == planir.MULTI:
        plan_steps = tuple((sn, sk) for _call, _a, sn, sk in payload)
        plan_args = tuple(args for _call, args, _sn, _sk in payload)
        plan_fd_key = None
    elif kind == planir.FDREMAP:
        _call, args, fd_key, step_name, step_kind = payload
        plan_steps = ((step_name, step_kind),)
        plan_args = (args,)
        plan_fd_key = tuple(fd_key)
    else:
        _call, args, step_name, step_kind = payload
        plan_steps = ((step_name, step_kind),)
        plan_args = (args,)
        plan_fd_key = None
    if fact["steps"] != plan_steps:
        report("stale-binding", ERROR,
               "#%d compiled steps %r but the plan names %r"
               % (idx, fact["steps"], plan_steps), idx)
    if tuple(fact["args"] or ()) != plan_args:
        report("stale-binding", ERROR,
               "#%d bound argument constants that differ from the plan "
               "entry (stale bound constant)" % idx, idx)
    claimed_key = fact["fd_key"]
    if (claimed_key if claimed_key is None else tuple(claimed_key)) \
            != plan_fd_key:
        report("stale-binding", ERROR,
               "#%d bound fd-remap key %r but the plan entry carries %r"
               % (idx, claimed_key, plan_fd_key), idx)


# -- certificates --------------------------------------------------------


def certify(benchmark: Any, core: str, plan: Any = None,
            reduced: bool = True, max_findings: int = 25) -> Certificate:
    """Discharge every obligation ``core`` relies on for ``benchmark``
    and return the :class:`Certificate`."""
    if core not in CORES:
        raise ValueError("unknown replay core %r" % (core,))
    if plan is None:
        plan = planir.default_plan(benchmark)
    findings: List[Finding] = []
    obligations: Dict[str, int] = {}

    plan_findings, n_entries = verify_plan(benchmark, plan, max_findings)
    findings.extend(plan_findings)
    obligations["plan_entries"] = n_entries

    graph_findings, graph_stats = verify_graph(
        benchmark, reduced=reduced, max_findings=max_findings
    )
    findings.extend(graph_findings)
    obligations["graph_nodes"] = graph_stats["graph_nodes"]

    if core == "jit":
        for variant, variant_reduced in _JIT_CONFIGS:
            program = codegen.program_for(
                benchmark, plan, variant, variant_reduced
            )
            prog_findings, counts = validate_program(
                benchmark, plan, program, reduced=variant_reduced,
                max_findings=max_findings,
            )
            findings.extend(prog_findings)
            for key, value in counts.items():
                obligations[key] = obligations.get(key, 0) + value
    return Certificate(core, benchmark.label or "", plan.key,
                       obligations, findings)
