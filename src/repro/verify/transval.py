"""Translation validation for replay cores (``artc verify`` engine a).

The JIT core (:mod:`repro.artc.codegen`) emits straight-line Python per
thread: the scoreboard's gate and release written out per action, and
constants (argument dicts, descriptor slots and their effects,
expected return values, conformance-check forms) bound at codegen time.
Each of those is an *obligation* this module discharges statically, per
replay, instead of trusting the sampled dynamic byte-identity suite:

- **gates**: an action with enforced predecessors (reduced graph when
  the core waits on it) must carry a gate;
- **release**: the successors an action's completion decrements, in
  order, must equal its serial successor list -- the order is the
  wake order (:func:`repro.artc.planir.release_serial`);
- **constant binding**: the bound kind/step/argument/slot/settle
  claims must match the installed execution plan -- and the installed
  plan itself must match an independent recompile of every entry
  (:func:`repro.artc.planir.compile_entry`, over a fresh
  :class:`repro.artc.planir.FdSlots` numbering), which catches a plan
  edited, or gone stale against edited actions, after it was built;
- **conformance coverage**: every non-META action must carry the
  correct outcome check for its ``(ok, is_read)`` shape, with the
  expected-ret constant equal to the traced return value.

The validator walks the emitter's *claims table*
(:attr:`repro.artc.codegen.JitProgram.facts` -- the IR-derived plan
sequence, not the generated Python text) against obligations derived
independently from the dependency graph and the trace.  It validates
one program per shape a run can ask for: the shape of each order
:func:`repro.artc.planir.enforced_order` can return.  The scoreboard
and event cores interpret rather than specialize, so their
certificates cover the shared obligations: plan faithfulness plus the
graph invariants their wait machinery relies on.  Those are the lint
graph pass's own checks (:func:`repro.lint.graphcheck.graph_invariants`:
in-range duplicate-free predecessor lists, acyclicity under thread
sequencing, and reduction subset and closure equality), not a second
copy of them.

The result is a :class:`Certificate` per (benchmark, core): a
machine-checkable record of the obligations discharged and every
violation found, embeddable in the ``.artcb`` wrapper.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.artc import codegen, planir
from repro.core.modes import ReplayMode
from repro.lint.graphcheck import graph_invariants
from repro.lint.report import ERROR, WARNING, Finding

#: Certificate serialization format tag.
CERT_FORMAT = "artc-cert-v1"

#: The replay cores a certificate can cover.
CORES = ("events", "scoreboard", "jit")

#: (variant, reduced) program configurations the jit certificate
#: validates: the shape of each order a run can enforce.
_JIT_CONFIGS = tuple(codegen.shape_of(*order) for order in planir.ORDERS)


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


def successor_lists(preds: Sequence[Sequence[int]]) -> List[List[int]]:
    """Invert predecessor lists into per-action successor lists, in
    the destination order the serial release walks them."""
    succs: List[List[int]] = [[] for _ in preds]
    for dst, plist in enumerate(preds):
        for src in plist:
            succs[src].append(dst)
    return succs


# -- plan faithfulness ---------------------------------------------------


def _entry_shape(entry: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """A comparable summary of one runtime plan entry (bound calls
    dropped: they are a pure function of the step kind and its
    arguments)."""
    kind, payload, is_read, settle = entry
    slot = None
    steps: Optional[Tuple[Any, ...]] = None
    if kind == planir.STATIC:
        _call, args, step_name, step_kind = payload
        steps = ((step_name, step_kind, args),)
    elif kind == planir.FDREMAP:
        _call, args, slot, step_name, step_kind = payload
        steps = ((step_name, step_kind, args),)
    elif kind == planir.MULTI:
        steps = tuple(
            (step_name, step_kind, args)
            for _call, args, step_name, step_kind in payload
        )
    return (kind, bool(is_read), settle, slot, steps)


def verify_plan(benchmark: Any, plan: Any,
                max_findings: int = 25) -> Tuple[List[Finding], int]:
    """Recompile every entry of ``plan`` from the trace and diff it
    against the installed entries.  An installed plan normally *is*
    the recompile (same code path, built once and kept in
    ``benchmark.derived``), so any difference means the plan or the
    actions were changed since -- the stale-bound-constant hazard."""
    findings: List[Finding] = []
    emulation = planir.emulation_of(plan.key)
    slots = planir.FdSlots()
    checked = 0
    for action, entry in zip(benchmark.actions, plan.entries):
        checked += 1
        expected = planir.compile_entry(
            action, plan.key, emulation, slots.number(action))
        if _entry_shape(expected) == _entry_shape(entry):
            continue
        if len(findings) < max_findings:
            findings.append(Finding(
                "stale-plan-entry", ERROR,
                "installed plan entry for #%d (%s) does not match an "
                "independent recompile: expected %s %s, found %s %s"
                % (action.idx, action.record.name,
                   planir.KIND_NAMES[expected[0]],
                   planir.describe(expected, action.record.name),
                   planir.KIND_NAMES[entry[0]],
                   planir.describe(entry, action.record.name)),
                actions=(action.idx,),
                detail={
                    "expected_kind": planir.KIND_NAMES[expected[0]],
                    "found_kind": planir.KIND_NAMES[entry[0]],
                },
            ))
    return findings, checked


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
    synced = program.variant == "artc"
    which = None
    if synced:
        _serial, which = planir.enforced_order(
            benchmark.graph, ReplayMode.ARTC, reduced
        )
    preds = planir.wait_lists(benchmark.graph, which)
    succs = successor_lists(preds)
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

        # Gates ------------------------------------------------------------
        counts["gates"] += 1
        if synced:
            if preds[idx] and not fact["gate"]:
                report(
                    "elided-gate", ERROR,
                    "no gate at #%d but it has enforced predecessors %r "
                    "-- the program can run ahead of its dependencies"
                    % (idx, list(preds[idx])),
                    idx, detail={"preds": list(preds[idx])},
                )
            elif not preds[idx] and fact["gate"]:
                report("spurious-gate", WARNING,
                       "gate emitted at #%d, which has no enforced "
                       "predecessor" % idx, idx)
        elif fact["gate"]:
            report("spurious-gate", ERROR,
                   "unsynchronized variant claims a gate at #%d" % idx,
                   idx)

        # Release ------------------------------------------------------------
        counts["releases"] += len(fact["releases"]) or 1
        serial = list(succs[idx])
        if list(fact["releases"]) != serial:
            report(
                "release-mismatch", ERROR,
                "#%d releases %r but the serial successor list is %r: "
                "pending counters or the wake order would diverge"
                % (idx, list(fact["releases"]), serial), idx,
                detail={"claimed": list(fact["releases"]), "serial": serial},
            )

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
        if fact["settle"] != entry[3]:
            report("stale-binding", ERROR,
                   "#%d descriptor-slot effects %r do not match the plan "
                   "entry's %r" % (idx, fact["settle"], entry[3]), idx)

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


def _check_binding(fact: Dict[str, Any], entry: Tuple[Any, ...],
                   idx: int, report: Any) -> None:
    _kind, _is_read, _settle, plan_slot, steps = _entry_shape(entry)
    plan_steps = tuple((name, kind) for name, kind, _args in steps)
    plan_args = tuple(args for _name, _kind, args in steps)
    if fact["steps"] != plan_steps:
        report("stale-binding", ERROR,
               "#%d compiled steps %r but the plan names %r"
               % (idx, fact["steps"], plan_steps), idx)
    if tuple(fact["args"] or ()) != plan_args:
        report("stale-binding", ERROR,
               "#%d bound argument constants that differ from the plan "
               "entry (stale bound constant)" % idx, idx)
    if fact["slot"] != plan_slot:
        report("stale-binding", ERROR,
               "#%d reads descriptor slot %r but the plan entry carries %r"
               % (idx, fact["slot"], plan_slot), idx)


# -- certificates --------------------------------------------------------


def certify(benchmark: Any, core: str, plan: Any = None,
            max_findings: int = 25) -> Certificate:
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

    graph_findings, graph_stats = graph_invariants(
        benchmark.graph, benchmark.actions
    )
    findings.extend(graph_findings)
    obligations["graph_nodes"] = graph_stats["lists"]

    # A program's obligations are derived from the graph's lists, so
    # they are checked over a graph that keeps its invariants.
    if core == "jit" and not graph_findings:
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
