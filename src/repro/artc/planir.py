"""The execution-plan IR: precompiled per-action replay plans.

Replaying one action means translating its trace arguments, consulting
the cross-platform emulation table, and dispatching name -> kind ->
handler.  All of that except the runtime fd remap is a pure function of
``(benchmark, source, target, emulation options, o_excl_fix)`` -- so it
is compiled once per benchmark into an :class:`ExecutionPlan`: a list
of per-action *entries*, one of five shapes:

========  =========  ====================================================
kind      name       meaning
========  =========  ====================================================
``0``     meta       emulation planned nothing; charge metadata CPU,
                     trivially matched
``1``     static     one step, arguments fully static
``2``     fdremap    one step whose ``fd`` must be remapped through the
                     live fd table at issue time
``3``     multi      several static steps, stop on first error
``4``     dynamic    fall back to the dynamic interpreter (multi-step
                     plans over remapped fds, unknown handlers)
========  =========  ====================================================

The runtime entry representation is the tuple the replayer's hot loop
consumes directly: ``(kind, payload, is_read, upd)`` with handler
callables already bound.  The IR is also *serializable* -- handlers are
rebound from the syscall registry on load -- so compiled artifacts
(:mod:`repro.artc.artifact`) can carry the plans and a cache hit skips
extraction entirely.

Two consumers: the replayer's precompiled kernel
(:mod:`repro.artc.replayer`) interprets the entries, and the JIT core
(:mod:`repro.artc.codegen`) specializes them per trace into
straight-line Python.

The module also defines the *batched release* step used by the JIT
core: successor lists grouped into maximal consecutive runs owned by
one thread, so a completion decrements a whole run's counters in one
pass and probes the waiting table once per run instead of once per
successor.  :func:`release_serial` is the one-at-a-time reference
semantics (what the scoreboard's completion hook runs); the two are proven
equivalent by ``tests/artc/test_release_batch.py`` and the hypothesis
property in ``tests/property/test_release_property.py``.
"""

from collections import namedtuple

from repro.artc.benchmark import columns
from repro.syscalls.emulation import EmulationOptions, plan_for
from repro.syscalls.execute import HANDLERS, READ_KINDS
from repro.syscalls.registry import spec_for

#: Entry kinds, in the order the replayer's dispatch knows them.
META, STATIC, FDREMAP, MULTI, DYNAMIC = range(5)

KIND_NAMES = ("meta", "static", "fdremap", "multi", "dynamic")

#: Serialized-IR format tag (embedded in ``.artcb`` artifacts).
IR_FORMAT = "artc-planir-v2"

PLAN_COLUMNS = ("kind", "flags", "fd", "call", "args")
#: The ``flags`` column: ``is_read | upd << 1``.
_FLAGS = ((False, False), (True, False), (False, True), (True, True))


#: Everything outside the benchmark that shapes an execution plan.
PlanKey = namedtuple(
    "PlanKey",
    ("source", "target", "o_excl_fix", "fsync_mode", "ignore_unsupported_hints"),
)


def plan_key(source, target, o_excl_fix, emulation):
    """The :class:`PlanKey` for one (replay config, target) pairing."""
    return PlanKey(
        source,
        target,
        bool(o_excl_fix),
        emulation.fsync_mode,
        emulation.ignore_unsupported_hints,
    )


def _emulation_of(key):
    return EmulationOptions(
        fsync_mode=key.fsync_mode,
        ignore_unsupported_hints=key.ignore_unsupported_hints,
    )


def emulation_of(key):
    """The :class:`EmulationOptions` a :class:`PlanKey` encodes.  The
    translation validator (:mod:`repro.verify.transval`) uses this to
    recompile entries independently and diff them against a plan that
    may have been loaded from an artifact."""
    return _emulation_of(key)


def static_args(action, o_excl_fix):
    """A copy of the action's trace arguments with every translation
    that cannot vary between replays applied: aiocb names qualified by
    generation, and the O_EXCL workaround.  (The fd remap needs the
    live fd table and happens at issue time.)"""
    record = action.record
    ann = action.ann
    args = dict(record.args)
    if "aiocb" in ann and "aiocb" in args:
        args["aiocb"] = "%s@%d" % (args["aiocb"], ann["aiocb"])
    if "aiocb_gens" in ann and "aiocbs" in args:
        args["aiocbs"] = [
            "%s@%d" % (cb, gen)
            for cb, gen in zip(args["aiocbs"], ann["aiocb_gens"])
        ]
    if "aiocb_gens" in ann and "ops" in args:
        # lio_listio: the op dicts belong to the record -- copy them.
        args["ops"] = [
            dict(op, aiocb="%s@%d" % (op["aiocb"], gen))
            for op, gen in zip(args["ops"], ann["aiocb_gens"])
        ]
    if o_excl_fix and record.ok and isinstance(args.get("flags"), str):
        if "O_EXCL" in args["flags"] and "O_CREAT" in args["flags"]:
            args["flags"] = "|".join(
                part for part in args["flags"].split("|") if part != "O_EXCL"
            )
    return args


def update_fd_map(fd_map, action, ret, err):
    """Record the descriptors a successful call returned under the
    trace-time ``(name, generation)`` keys its later uses carry -- the
    dynamic half of argument translation, shared by every interpreter
    of a benchmark (the replayer and abstract replay)."""
    if err is not None:
        return
    record = action.record
    ann = action.ann
    if "ret_fd" in ann and isinstance(record.ret, int):
        fd_map[(record.ret, ann["ret_fd"])] = ret
    if "newfd_gen" in ann:
        fd_map[(record.args["newfd"], ann["newfd_gen"])] = ret
    if "ret_fds" in ann and isinstance(record.ret, (list, tuple)):
        for trace_fd, gen, actual in zip(record.ret, ann["ret_fds"], ret):
            fd_map[(trace_fd, gen)] = actual


def compile_entry(action, key, emulation):
    """Compile one action into its runtime plan entry.

    Mirrors the event core's per-action work exactly: argument
    translation (aiocb generations, the O_EXCL workaround), dup2
    aliasing, emulation planning, and handler binding.  Anything that
    cannot be decided statically falls back to ``dynamic`` -- errors
    then surface at the same point, with the same message, as the
    event core.
    """
    record = action.record
    ann = action.ann
    is_read = spec_for(record.name).kind in READ_KINDS
    upd = (
        ("ret_fd" in ann and isinstance(record.ret, int))
        or "newfd_gen" in ann
        or ("ret_fds" in ann and isinstance(record.ret, (list, tuple)))
    )
    dynamic = (DYNAMIC, None, is_read, upd)
    args = static_args(action, key.o_excl_fix)
    fd_key = None
    if "fd" in ann and "fd" in args:
        fd_key = (args["fd"], ann["fd"])
    name = record.name
    if spec_for(name).kind == "dup2":
        name = "dup"
    try:
        plan = plan_for(name, args, key.source, key.target, emulation)
    except Exception:
        return dynamic
    if not plan:
        return (META, None, is_read, upd)
    steps = []
    for step_name, step_args in plan:
        kind = spec_for(step_name).kind
        handler = HANDLERS.get(kind)
        if handler is None:
            return dynamic
        steps.append((handler, step_args, step_name, kind))
    if fd_key is not None:
        # The emulation planner may embed the (untranslated) fd in
        # fresh step dicts; only the pass-through shape -- one step
        # reusing the translated-args dict -- can defer the remap.
        if len(steps) == 1 and plan[0][1] is args:
            handler, _, step_name, kind = steps[0]
            return (FDREMAP, (handler, args, fd_key, step_name, kind), is_read, upd)
        return dynamic
    if len(steps) == 1:
        return (STATIC, steps[0], is_read, upd)
    return (MULTI, steps, is_read, upd)


class ExecutionPlan(object):
    """One benchmark's compiled entries under one :class:`PlanKey`."""

    __slots__ = ("key", "entries")

    def __init__(self, key, entries):
        self.key = key
        self.entries = entries

    @classmethod
    def compile(cls, benchmark, key):
        emulation = _emulation_of(key)
        entries = [
            compile_entry(action, key, emulation) for action in benchmark.actions
        ]
        return cls(key, entries)

    def __len__(self):
        return len(self.entries)

    # -- introspection (artc compile --dump-ir / artc stats --ir) ------

    def kind_counts(self):
        counts = [0] * len(KIND_NAMES)
        for entry in self.entries:
            counts[entry[0]] += 1
        return counts

    def thread_kind_counts(self, benchmark):
        """``{tid: [count per kind]}`` in first-appearance thread order."""
        out = {}
        for action, entry in zip(benchmark.actions, self.entries):
            tid = action.record.tid
            counts = out.get(tid)
            if counts is None:
                counts = out[tid] = [0] * len(KIND_NAMES)
            counts[entry[0]] += 1
        return out

    def _describe(self, action, entry):
        kind, payload = entry[0], entry[1]
        if kind == STATIC:
            return "%s(%s)" % (payload[2], _brief_args(payload[1]))
        if kind == FDREMAP:
            return "%s(fd@%r, %s)" % (
                payload[3], payload[2], _brief_args(payload[1], skip=("fd",))
            )
        if kind == MULTI:
            return "+".join(step[2] for step in payload)
        return action.record.name

    def render(self, benchmark, verbose=False):
        """Pretty-print the plan; ``verbose`` lists every entry (the
        ``--dump-ir`` debugging view for codegen divergences)."""
        key = self.key
        lines = [
            "execution-plan IR: %s -> %s (o_excl_fix=%s, fsync=%s, hints=%s)"
            % (
                key.source, key.target, key.o_excl_fix, key.fsync_mode,
                "ignore" if key.ignore_unsupported_hints else "strict",
            )
        ]
        counts = self.kind_counts()
        lines.append(
            "kinds: "
            + "  ".join(
                "%s=%d" % (KIND_NAMES[k], counts[k])
                for k in range(len(KIND_NAMES))
            )
        )
        for tid, tcounts in self.thread_kind_counts(benchmark).items():
            breakdown = ", ".join(
                "%s %d" % (KIND_NAMES[k], tcounts[k])
                for k in range(len(KIND_NAMES))
                if tcounts[k]
            )
            lines.append("T%s: %d actions (%s)" % (tid, sum(tcounts), breakdown))
        if verbose:
            for action, entry in zip(benchmark.actions, self.entries):
                flags = "".join(
                    flag for flag, on in (("r", entry[2]), ("u", entry[3])) if on
                )
                lines.append(
                    "  [T%s] #%-5d %-8s %s%s"
                    % (
                        action.record.tid,
                        action.idx,
                        KIND_NAMES[entry[0]],
                        self._describe(action, entry),
                        (" [%s]" % flags) if flags else "",
                    )
                )
        return "\n".join(lines)

    # -- serialization -------------------------------------------------

    def to_payload(self, actions):
        """A JSON-serializable columnar form, one row per action.
        Handlers drop to step names and are rebound from the registry
        by :meth:`from_payload`; a ``call`` or ``args`` equal to the
        action's own record's is stored as ``None`` (nearly all of
        them: emulation mostly passes calls through) and taken from the
        record on load.  A MULTI row lists its steps' names under
        ``call`` and their arguments under ``args``."""
        kinds, flags, fds, calls, argses = [], [], [], [], []
        for action, (kind, payload, is_read, upd) in zip(actions, self.entries):
            fd_key = call = args = None
            if kind == MULTI:
                call = [step[2] for step in payload]
                args = [step[1] for step in payload]
            elif kind in (STATIC, FDREMAP):
                if kind == STATIC:
                    _handler, args, call, _step_kind = payload
                else:
                    _handler, args, fd_key, call, _step_kind = payload
                record = action.record
                if call == record.name:
                    call = None
                if args == record.args:
                    args = None
            kinds.append(kind)
            flags.append(is_read | upd << 1)
            fds.append(fd_key)
            calls.append(call)
            argses.append(args)
        return {
            "format": IR_FORMAT,
            "key": self.key._asdict(),
            "kind": kinds,
            "flags": flags,
            "fd": fds,
            "call": calls,
            "args": argses,
        }

    @classmethod
    def from_payload(cls, payload, actions):
        """Rebind a serialized plan over ``actions`` against this
        build's registry.  A ragged or inconsistent column, or a call
        this build cannot execute, raises ``ValueError`` (the artifact
        layer turns that into a loud rejection rather than silently
        diverging)."""
        if payload.get("format") != IR_FORMAT:
            raise ValueError(
                "not a serialized execution plan (format %r)"
                % (payload.get("format"),)
            )
        raw_key = payload["key"]
        key = PlanKey(
            raw_key["source"],
            raw_key["target"],
            bool(raw_key["o_excl_fix"]),
            raw_key["fsync_mode"],
            bool(raw_key["ignore_unsupported_hints"]),
        )
        entries = []
        bound = {}

        def binding(step_name):
            found = bound.get(step_name)
            if found is None:
                found = bound[step_name] = _binding(step_name)
            return found

        rows = zip(actions, *columns(payload, PLAN_COLUMNS, len(actions)))
        for action, kind, flags, fd_key, call, args in rows:
            is_read, upd = _FLAGS[flags]
            step = None
            if kind == STATIC or kind == FDREMAP:
                record = action.record
                if call is None:
                    call = record.name
                if args is None:
                    args = record.args
                handler, step_kind = binding(call)
                if kind == STATIC:
                    step = (handler, args, call, step_kind)
                elif isinstance(fd_key, list) and len(fd_key) == 2:
                    step = (handler, args, tuple(fd_key), call, step_kind)
                else:
                    raise ValueError(
                        "plan column 'fd' holds no (fd, generation) key for"
                        " fdremap entry %d" % action.idx
                    )
            elif kind == MULTI:
                if not (isinstance(call, list) and isinstance(args, list)
                        and len(call) == len(args)):
                    raise ValueError(
                        "plan columns 'call' and 'args' do not list the steps"
                        " of multi entry %d" % action.idx
                    )
                step = []
                for step_name, step_args in zip(call, args):
                    handler, step_kind = binding(step_name)
                    step.append((handler, step_args, step_name, step_kind))
            elif kind != META and kind != DYNAMIC:
                raise ValueError("unknown execution-plan kind %r" % (kind,))
            entries.append((kind, step, is_read, upd))
        return cls(key, entries)


def _binding(step_name):
    """``(handler, kind)`` for a serialized step name."""
    try:
        step_kind = spec_for(step_name).kind
    except Exception as exc:
        raise ValueError(
            "serialized execution plan names unknown call %r" % (step_name,)
        ) from exc
    handler = HANDLERS.get(step_kind)
    if handler is None:
        raise ValueError(
            "serialized execution plan names call %r (kind %r) with no "
            "handler in this build" % (step_name, step_kind)
        )
    return handler, step_kind


def _brief_args(args, skip=(), limit=60):
    text = ", ".join(
        "%s=%r" % (name, value)
        for name, value in args.items()
        if name not in skip
    )
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


# -- the per-benchmark plan cache ---------------------------------------


def plans_for(benchmark, source, target, o_excl_fix, emulation):
    """The cached :class:`ExecutionPlan` for one benchmark + key,
    compiling (and caching on the benchmark object) on first use.
    Artifacts that carried serialized plans pre-populate this cache
    (:func:`install`), so loads from the content-addressed store skip
    extraction entirely."""
    key = plan_key(source, target, o_excl_fix, emulation)
    cache = getattr(benchmark, "_exec_plans", None)
    if cache is None:
        cache = {}
        benchmark._exec_plans = cache
    plan = cache.get(key)
    if plan is None:
        plan = ExecutionPlan.compile(benchmark, key)
        cache[key] = plan
    return plan


def default_plan(benchmark, emulation=None, o_excl_fix=True):
    """The self-targeted plan (source platform replayed on itself under
    default emulation) -- what ``artc pack`` precompiles into the
    artifact, because same-platform replay is the dominant case."""
    from repro.syscalls.emulation import DEFAULT_OPTIONS

    return plans_for(
        benchmark,
        benchmark.platform,
        benchmark.platform,
        o_excl_fix,
        emulation or DEFAULT_OPTIONS,
    )


def cached_plans(benchmark):
    """Every plan currently cached on ``benchmark``, in insertion
    order (what the artifact writer serializes)."""
    cache = getattr(benchmark, "_exec_plans", None)
    if not cache:
        return []
    return list(cache.values())


def install(benchmark, payloads):
    """Install serialized plans (artifact load path); raises
    ``ValueError`` on any malformed or unbindable plan."""
    cache = getattr(benchmark, "_exec_plans", None)
    if cache is None:
        cache = {}
        benchmark._exec_plans = cache
    for payload in payloads:
        plan = ExecutionPlan.from_payload(payload, benchmark.actions)
        cache[plan.key] = plan


# -- batched release -----------------------------------------------------


def release_runs(succ_list, tid_of):
    """Group ``succ_list`` into maximal *consecutive* runs owned by one
    thread: ``[(tid, (succ, ...)), ...]``.  Consecutiveness preserves
    the relative order of gate wakeups across threads, which the
    byte-identity guarantee depends on (a wake may reorder engine
    scheduling within a timestep)."""
    runs = []
    last_tid = object()
    for succ in succ_list:
        tid = tid_of[succ]
        if tid == last_tid:
            runs[-1][1].append(succ)
        else:
            runs.append((tid, [succ]))
            last_tid = tid
    return [(tid, tuple(members)) for tid, members in runs]


def release_serial(pending, waiting, gates, succ_list, tid_of):
    """One-at-a-time release (the scoreboard core's reference
    semantics): decrement each successor, waking its owner thread the
    moment the action that thread parked on hits zero.  Returns the
    tids woken, in wake order."""
    woken = []
    for succ in succ_list:
        left = pending[succ] - 1
        pending[succ] = left
        if not left and waiting:
            tid = tid_of[succ]
            if waiting.get(tid) == succ:
                del waiting[tid]
                gates[tid].open()
                woken.append(tid)
    return woken


def release_batched(pending, waiting, gates, runs):
    """Batched release over :func:`release_runs` output: one pass of
    decrements per run, then a single waiting-table probe for the run's
    owner.  Equivalent to :func:`release_serial` because a thread parks
    on at most one action, each successor is decremented exactly once
    per release, and nothing yields mid-release -- so the probe's
    outcome cannot differ from the per-successor checks."""
    woken = []
    for tid, members in runs:
        for succ in members:
            pending[succ] -= 1
        if waiting:
            parked = waiting.get(tid)
            if parked is not None and parked in members and not pending[parked]:
                del waiting[tid]
                gates[tid].open()
                woken.append(tid)
    return woken
