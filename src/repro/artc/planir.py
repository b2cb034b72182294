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
                     plans over remapped fds, descriptors inside a
                     request list, steps that do not bind)
========  =========  ====================================================

The runtime entry representation is the tuple the replayer's hot loop
consumes directly: ``(kind, payload, is_read, upd)``.  A step of the
payload is ``(call, args, name, kind)`` -- an fd-remapped one carries
its ``fd_key`` after ``args`` -- where ``call`` is the step *bound*:
``(method, argv, kwargs)``, the file-system method, its positional
arguments after the thread id and its constant keywords, read off the
executor's call table (:func:`repro.syscalls.execute.bind`) once, when
the entry is built.  An fd-remapped call is split around the descriptor
the live fd table supplies: ``(method, head, tail, kwargs)``.  The IR is also
*serializable* -- calls drop to step names and arguments and are bound
again on load -- so compiled artifacts (:mod:`repro.artc.artifact`) can
carry the plans and a cache hit skips extraction entirely.

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
from repro.errors import UnsupportedSyscallError
from repro.syscalls.emulation import EmulationOptions, plan_for
from repro.syscalls.execute import BIND, BIND_AROUND_FD, READ_KINDS
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


def fd_sites(args, ann):
    """Every place translated ``args`` hold a trace-time descriptor, as
    ``(holder, generation)`` pairs: ``holder["fd"]`` is the number the
    trace saw and ``(holder["fd"], generation)`` its ``fd_map`` key.
    The call's own ``fd``, then one site per ``lio_listio`` request
    (:func:`static_args` copied those dicts).  ``generation`` is None
    where the compiler's model recorded none: no map ever holds that
    key, so the number goes through as the trace had it."""
    sites = ((args, ann.get("fd")),) if "fd" in args else ()
    if "fd_gens" in ann:
        sites += tuple(zip(args.get("ops", ()), ann["fd_gens"]))
    return sites


def step_plan(action, args, source, target, emulation):
    """The emulation steps ``[(call_name, args), ...]`` that replay
    ``action`` with translated ``args`` on ``target``."""
    name = action.record.name
    # dup2's descriptor number is an OS artifact; replaying it as a
    # plain dup lets same-name descriptors coexist (section 4.2).
    if spec_for(name).kind == "dup2":
        name = "dup"
    return plan_for(name, args, source, target, emulation)


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


def _step(name, args, fd_key=None):
    """One plan step with its call bound now: ``(call, args, name,
    kind)``, or for the step of an fd-remapped entry ``(call, args,
    fd_key, name, kind)`` with the call split around the descriptor.
    Raises what the bind raises on a malformed record (a missing
    argument, an unknown flag word) and ``KeyError`` for a remapped
    descriptor the call never passes on; the entry is then ``dynamic``,
    so :func:`~repro.syscalls.execute.perform` reports it when the
    action is replayed."""
    kind = spec_for(name).kind
    if fd_key is None:
        return (BIND[kind](args), args, name, kind)
    return (BIND_AROUND_FD[kind](args), args, fd_key, name, kind)


def compile_entry(action, key, emulation):
    """Compile one action into its runtime plan entry.

    Mirrors the event core's per-action work exactly: argument
    translation (aiocb generations, the O_EXCL workaround), dup2
    aliasing, emulation planning, and binding each step's call.
    Anything that cannot be decided statically falls back to
    ``dynamic`` -- errors then surface at the same point, with the same
    message, as the event core.
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
    try:
        plan = step_plan(action, args, key.source, key.target, emulation)
    except Exception:
        return dynamic
    if not plan:
        return (META, None, is_read, upd)
    fd_key = None
    for holder, generation in fd_sites(args, ann):
        if generation is not None:
            if holder is not args:
                return dynamic  # inside a request list: remapped per op
            fd_key = (args["fd"], generation)
    try:
        if fd_key is not None:
            # The emulation planner may embed the (untranslated) fd in
            # fresh step dicts; only the pass-through shape -- one step
            # reusing the translated-args dict -- can defer the remap.
            if len(plan) == 1 and plan[0][1] is args:
                return (FDREMAP, _step(plan[0][0], args, fd_key), is_read, upd)
            return dynamic
        if len(plan) == 1:
            return (STATIC, _step(*plan[0]), is_read, upd)
        return (MULTI, [_step(*step) for step in plan], is_read, upd)
    except Exception:
        return dynamic


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
        Bound calls drop to step names and arguments and are bound
        again by :meth:`from_payload`; a ``call`` or ``args`` equal to the
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
                    _bound, args, call, _step_kind = payload
                else:
                    _bound, args, fd_key, call, _step_kind = payload
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
        build's call table.  A ragged or inconsistent column, or a call
        this build does not know, raises ``ValueError`` (the artifact
        layer turns that into a loud rejection rather than silently
        diverging); a known call whose arguments do not bind makes the
        entry ``dynamic``, as :func:`compile_entry` would have."""
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
        rows = zip(actions, *columns(payload, PLAN_COLUMNS, len(actions)))
        for action, kind, flags, fd_key, call, args in rows:
            is_read, upd = _FLAGS[flags]
            if kind == META or kind == DYNAMIC:
                entries.append((kind, None, is_read, upd))
                continue
            if kind == STATIC or kind == FDREMAP:
                record = action.record
                if call is None:
                    call = record.name
                if args is None:
                    args = record.args
                if kind == STATIC:
                    fd_key = None
                elif isinstance(fd_key, list) and len(fd_key) == 2:
                    fd_key = tuple(fd_key)
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
            else:
                raise ValueError("unknown execution-plan kind %r" % (kind,))
            try:
                if kind == MULTI:
                    step = [_step(*step) for step in zip(call, args)]
                else:
                    step = _step(call, args, fd_key)
            except UnsupportedSyscallError as exc:
                raise ValueError(
                    "serialized execution plan names unknown call %r" % (exc.name,)
                ) from exc
            except Exception:
                kind, step = DYNAMIC, None  # as compile_entry would have
            entries.append((kind, step, is_read, upd))
        return cls(key, entries)


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
