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
``2``     fdremap    one step whose ``fd`` is read from its descriptor
                     slot at issue time
``3``     multi      several static steps, stop on first error
``4``     dynamic    fall back to the dynamic interpreter (multi-step
                     plans over remapped fds, descriptors inside a
                     request list, steps that do not bind)
========  =========  ====================================================

The runtime entry representation is the tuple the replayer's hot loop
consumes directly: ``(kind, payload, is_read, settle)``.  A step of the
payload is ``(call, args, name, kind)`` -- an fd-remapped one carries
its descriptor slot after ``args`` -- where ``call`` is the step
*bound*: ``(method, argv, kwargs)``, the file-system method, its
positional arguments after the thread id and its constant keywords,
read off the executor's call table (:func:`repro.syscalls.execute.bind`)
once, when the entry is built.  An fd-remapped call is split around the
descriptor its slot supplies: ``(method, head, tail, kwargs)``.
``settle`` is the action's slot effects (:func:`settle`), or None.

Descriptor lifetimes are stated here once (:class:`FdSlots`): a run's
descriptor state is one list of slots, and a closed one stays closed.

A plan is *derived*, never stored: built once per ``(benchmark,
PlanKey)`` per process by the first replay that asks (:func:`plans_for`,
kept in ``benchmark.derived``); an ``.artcb`` carries none, since the
target is only known where the benchmark is replayed (paper section
4.3.4).  What an entry needs of its call *name* on the target is
decided once per name (:func:`_call_row`), so the common action costs
one look-up, the argument rewrites that apply to it, and one bind.

Two consumers: the replayer's precompiled kernel
(:mod:`repro.artc.replayer`) interprets the entries, and the JIT core
(:mod:`repro.artc.codegen`) specializes them per trace into
straight-line Python.

The module also holds the order every replay enforces: the one
decision of which completions an action waits on
(:func:`enforced_order`), the scoreboard's tables over it
(:func:`order_tables`), the one release rule (:func:`release_serial`)
and the one wake order (:func:`wake_order`).
"""

from collections import defaultdict, namedtuple
from operator import itemgetter

from repro.core.modes import ReplayMode
from repro.syscalls.emulation import (
    ARG_EMULATED_KINDS,
    DEFAULT_OPTIONS,
    EmulationOptions,
    native_step,
    plan_for,
)
from repro.syscalls.execute import BIND, BIND_AROUND_FD
from repro.syscalls.registry import REGISTRY, spec_for

#: Entry kinds, in the order the replayer's dispatch knows them.
META, STATIC, FDREMAP, MULTI, DYNAMIC = range(5)

KIND_NAMES = ("meta", "static", "fdremap", "multi", "dynamic")

#: Everything outside the benchmark that shapes an execution plan.
PlanKey = namedtuple("PlanKey", ("source", "target", "o_excl_fix", "fsync_mode"))

#: The ``step`` of a :func:`_call_row` whose emulation reads the
#: arguments: planned per action.
_EMULATED = object()

#: ``target -> call name -> _call_row(name, target)``: the registry and
#: the executor's table are static, so a row is decided once per process.
_CALL_ROWS = defaultdict(dict)


def plan_key(source, target, o_excl_fix, emulation):
    """The :class:`PlanKey` for one (replay config, target) pairing."""
    return PlanKey(source, target, bool(o_excl_fix), emulation.fsync_mode)


def emulation_of(key):
    """The :class:`EmulationOptions` a :class:`PlanKey` encodes."""
    return EmulationOptions(fsync_mode=key.fsync_mode)


def static_args(action, o_excl_fix):
    """The action's trace arguments with every translation that cannot
    vary between replays applied: aiocb names qualified by generation,
    and the O_EXCL workaround.  (A descriptor is read from its slot at
    issue time.)  The record's own dict where nothing
    is rewritten, so a caller that writes into it copies it first."""
    record = action.record
    ann = action.ann
    args = record.args
    if "aiocb" in ann or "aiocb_gens" in ann:
        args = dict(args)
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
    if o_excl_fix and record.err is None:
        flags = args.get("flags")
        if isinstance(flags, str) and "O_EXCL" in flags and "O_CREAT" in flags:
            args = dict(args) if args is record.args else args
            args["flags"] = "|".join(
                part for part in flags.split("|") if part != "O_EXCL"
            )
    return args


def fd_sites(args, ann):
    """Every place translated ``args`` hold a trace-time descriptor, as
    ``(holder, generation)`` pairs: ``holder["fd"]`` is the number the
    trace saw and ``(holder["fd"], generation)`` its key.  The call's
    own ``fd``, then one site per ``lio_listio`` request
    (:func:`static_args` copied those dicts).  ``generation`` is None
    where the compiler's model recorded none: the site has no slot, and
    the number goes through as the trace had it."""
    sites = ((args, ann.get("fd")),) if "fd" in args else ()
    if "fd_gens" in ann:
        sites += tuple(zip(args.get("ops", ()), ann["fd_gens"]))
    return sites


# -- descriptor lifetimes -------------------------------------------------


#: A closed slot's number: no table holds it, no call reads it (-1 maps anonymously).
CLOSED = -2

#: The calls that close a descriptor; the annotations of one that makes one.
_CLOSES = frozenset(name for name, spec in REGISTRY.items() if spec.kind == "close")
_CREATES = ("ret_fd", "newfd_gen", "ret_fds")


class FdSlots(object):
    """Dense slots for ROOT's ``(fd, generation)`` descriptor keys,
    numbered in trace order.  A run's ``fds[slot]`` starts at the traced
    number ``initial[slot]``; a successful creator writes the replay
    descriptor into it, a successful close :data:`CLOSED`, so a later
    use fails ``EBADF`` rather than reach a file the number was recycled
    for.  ``effects[idx]`` is action ``idx``'s :meth:`number` where
    :func:`fd_slots` numbered a whole benchmark."""

    __slots__ = ("index", "initial", "effects")

    def __init__(self):
        self.index, self.initial, self.effects = {}, [], []

    def slot(self, key):
        slot = self.index.get(key)
        if slot is None:
            slot = self.index[key] = len(self.initial)
            self.initial.append(key[0])
        return slot

    def number(self, action):
        """The one statement of an action's descriptor effects, in
        slots: ``(reads, settle)``, a slot (or None: no generation) per
        :func:`fd_sites` site, in its order, and None or ``(writes,
        closed)``: the slots a successful call creates, in return order
        (open, dup, F_DUPFD; dup2's newfd; a pipe's pair), and the one a
        close ends (dup2's: the newfd it displaced)."""
        record, ann = action.record, action.ann
        args, slot = record.args, self.slot
        reads = fd_sites(args, ann)
        if reads:
            reads = tuple([None if gen is None else slot((holder["fd"], gen))
                           for holder, gen in reads])
        settle = None
        if record.name in _CLOSES or not ann.keys().isdisjoint(_CREATES):
            keys, closed = (), reads[0] if reads and record.name in _CLOSES else None
            if "ret_fd" in ann and isinstance(record.ret, int):
                keys = ((record.ret, ann["ret_fd"]),)
            elif "newfd_gen" in ann:
                keys = ((args["newfd"], ann["newfd_gen"]),)
                if "newfd_closed" in ann:
                    closed = slot((args["newfd"], ann["newfd_closed"]))
            elif "ret_fds" in ann and isinstance(record.ret, (list, tuple)):
                keys = zip(record.ret, ann["ret_fds"])
            writes = tuple(map(slot, keys))
            if writes or closed is not None:
                settle = (writes, closed)
        return reads, settle


def fd_slots(benchmark):
    """A whole benchmark's :class:`FdSlots`, built by the first run or
    plan that asks and kept in ``benchmark.derived``."""
    slots = benchmark.derived.get("fd_slots")
    if slots is None:
        slots = benchmark.derived["fd_slots"] = FdSlots()
        slots.effects = list(map(slots.number, benchmark.actions))
    return slots


def settle(fds, effects, ret, err):
    """Apply a finished call's ``(writes, closed)`` (or None) to a run's
    ``fds`` if it succeeded: poison the closed slot, write each
    descriptor returned into its slot."""
    if err is None and effects:
        writes, closed = effects
        if closed is not None:
            fds[closed] = CLOSED
        made = ret if isinstance(ret, (list, tuple)) else (ret,)
        for slot, fd in zip(writes, made):
            fds[slot] = fd


def _step(name, args):
    """One static plan step with its call bound now: ``(call, args,
    name, kind)``.  Raises what the bind raises on a malformed record;
    the entry is then ``dynamic``, so :func:`~repro.syscalls.execute.
    perform` reports it when the action is replayed."""
    kind = spec_for(name).kind
    return (BIND[kind](args), args, name, kind)


def _planned_name(name):
    """The name emulation is planned for: dup2's descriptor number is
    an OS artifact; replaying it as a plain dup lets same-name
    descriptors coexist (section 4.2)."""
    return "dup" if spec_for(name).kind == "dup2" else name


def step_plan(action, args, source, target, emulation):
    """The emulation steps ``[(call_name, args), ...]`` that replay
    ``action`` with translated ``args`` on ``target``."""
    call = _planned_name(action.record.name)
    return plan_for(call, args, source, target, emulation)


def _call_row(name, target):
    """What an entry needs of its call *name* on ``target``, decided
    once per process: ``(is_read, call, step, kind, bind, bind_around_fd)``.
    ``call`` is the :func:`_planned_name`; ``step`` is the one native
    call the arguments pass through to, None where the call has no
    analogue and is skipped, or :data:`_EMULATED` where emulation must
    see the arguments; ``kind`` and the two binders are the step's."""
    is_read = spec_for(name).reads
    call = _planned_name(name)
    step = _EMULATED
    if spec_for(call).kind not in ARG_EMULATED_KINDS:
        try:
            step = native_step(call, target)
        except Exception:
            pass  # planned per action, where it fails per action
    return (is_read, call) + _bound_step(step)


def _bound_step(step):
    """``(step, kind, bind, bind_around_fd)`` of a pass-through step
    name (or of None / :data:`_EMULATED`, which bind nothing)."""
    if step is None or step is _EMULATED:
        return (step, None, None, None)
    kind = spec_for(step).kind
    return (step, kind, BIND.get(kind), BIND_AROUND_FD.get(kind))


def compile_entry(action, key, emulation, effects):
    """Compile one action, whose :meth:`FdSlots.number` is ``effects``,
    into its runtime plan entry.

    Mirrors the event core's per-action work exactly: argument
    translation (aiocb generations, the O_EXCL workaround), dup2
    aliasing, emulation planning, and binding each step's call.
    Anything that cannot be decided statically falls back to
    ``dynamic`` -- errors then surface at the same point, with the same
    message, as the event core.  What depends on the call name alone
    comes from :func:`_call_row`; ``tests/property/
    test_planbuild_property.py`` holds this function to the
    row-at-a-time form it replaced.
    """
    record = action.record
    rows = _CALL_ROWS[key.target]
    row = rows.get(record.name)
    if row is None:
        row = rows[record.name] = _call_row(record.name, key.target)
    is_read, call, step, kind, bind, bind_around_fd = row
    reads, settle = effects
    dynamic = (DYNAMIC, None, is_read, settle)
    args = static_args(action, key.o_excl_fix)
    plan = None
    if step is _EMULATED:
        try:
            plan = plan_for(call, args, key.source, key.target, emulation)
        except Exception:
            return dynamic
        if len(plan) == 1 and plan[0][1] is args:
            step, kind, bind, bind_around_fd = _bound_step(plan[0][0])
            plan = None  # the pass-through shape after all
        elif not plan:
            step = None
    if step is None:
        return (META, None, is_read, settle)
    # A slot on the call's own descriptor (the first site) is read at
    # issue time; one inside a request list is read per op, which only
    # the dynamic interpreter does.
    own = "fd" in args
    slot = reads[0] if own else None
    if any(op is not None for op in (reads[1:] if own else reads)):
        return dynamic
    try:
        if plan:
            # The emulation planner built its own step dicts, which
            # embed the (untranslated) fd; only the pass-through shape
            # -- one step reusing the translated-args dict -- can defer
            # the remap.
            if slot is not None:
                return dynamic
            if len(plan) == 1:
                return (STATIC, _step(*plan[0]), is_read, settle)
            return (MULTI, [_step(*each) for each in plan], is_read, settle)
        if slot is None:
            return (STATIC, (bind(args), args, step, kind), is_read, settle)
        payload = (bind_around_fd(args), args, slot, step, kind)
        return (FDREMAP, payload, is_read, settle)
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
        emulation = emulation_of(key)
        return cls(key, [
            compile_entry(action, key, emulation, effects)
            for action, effects in zip(
                benchmark.actions, fd_slots(benchmark).effects)
        ])

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

    def render(self, benchmark, verbose=False):
        """Pretty-print the plan; ``verbose`` lists every entry (the
        ``--dump-ir`` debugging view for codegen divergences)."""
        key = self.key
        lines = [
            "execution-plan IR: %s -> %s (o_excl_fix=%s, fsync=%s)"
            % (key.source, key.target, key.o_excl_fix, key.fsync_mode)
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
                    flag for flag, on in (("r", entry[2]), ("s", entry[3])) if on
                )
                lines.append(
                    "  [T%s] #%-5d %-8s %s%s"
                    % (
                        action.record.tid,
                        action.idx,
                        KIND_NAMES[entry[0]],
                        describe(entry, action.record.name),
                        (" [%s]" % flags) if flags else "",
                    )
                )
        return "\n".join(lines)


def describe(entry, name):
    """What a plan entry of call ``name`` runs, in brief."""
    kind, payload = entry[0], entry[1]
    if kind == STATIC:
        return "%s(%s)" % (payload[2], _brief_args(payload[1]))
    if kind == FDREMAP:
        return "%s(fd=%r@slot%d, %s)" % (
            payload[3], payload[1]["fd"], payload[2],
            _brief_args(payload[1], skip=("fd",)),
        )
    if kind == MULTI:
        return "+".join(step[2] for step in payload)
    return name


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
    """The :class:`ExecutionPlan` for one benchmark + key, built by the
    first caller that asks for it and kept in ``benchmark.derived``:
    one build per ``(benchmark, PlanKey)`` per process."""
    key = plan_key(source, target, o_excl_fix, emulation)
    plan = benchmark.derived.get(key)
    if plan is None:
        plan = benchmark.derived[key] = ExecutionPlan.compile(benchmark, key)
    return plan


def default_plan(benchmark):
    """The self-targeted plan (source platform replayed on itself under
    default emulation): what ``artc compile --dump-ir``, ``artc stats
    --ir`` and ``artc verify`` look at when no target is named."""
    platform = benchmark.platform
    return plans_for(benchmark, platform, platform, True, DEFAULT_OPTIONS)


# -- the enforced order ---------------------------------------------------


#: Every ``(serial, which)`` :func:`enforced_order` can return.
ORDERS = (
    (False, "reduced_preds"), (False, "preds"), (False, None), (True, None),
)


def enforced_order(graph, mode, reduced):
    """The order a replay of ``graph`` under ``mode`` enforces, decided
    once per run: ``(serial, which)``.  ``serial``: one replay thread
    plays every action in trace order (single-threaded, or ARTC on a
    ``program_seq`` graph).  ``which``: the graph's predecessor lists
    each action waits on -- in ARTC mode ``"reduced_preds"`` when
    ``reduced`` and the graph carries them, else ``"preds"``; otherwise
    None (the temporal prefix is no graph list:
    :func:`repro.core.analysis.completed_before_issue`)."""
    if mode == ReplayMode.SINGLE or (
        mode == ReplayMode.ARTC and graph.program_seq
    ):
        return True, None
    if mode != ReplayMode.ARTC:
        return False, None
    if reduced and graph.reduced_preds is not None:
        return False, "reduced_preds"
    return False, "preds"


def wait_lists(graph, which):
    """The graph's ``which`` predecessor lists; for None, an empty
    list per action."""
    return getattr(graph, which) if which else [()] * graph.n_actions


# -- the scoreboard's order -----------------------------------------------


def order_tables(benchmark, which):
    """``(counts, succs, tid_of)`` under the graph's ``which``
    predecessor lists (None: no enforced order): how many predecessors
    each action waits for, the actions its completion releases, each
    action's thread.  Built by the first run or JIT program that needs
    them and kept in ``benchmark.derived``; a run owns only its counters
    and gates."""
    key = ("order", which)
    tables = benchmark.derived.get(key)
    if tables is None:
        counts = [0] * len(benchmark.actions)
        succs = [[] for _ in counts]
        for dst, plist in enumerate(wait_lists(benchmark.graph, which)):
            counts[dst] = len(plist)
            for src in plist:
                succs[src].append(dst)
        tid_of = [action.record.tid for action in benchmark.actions]
        tables = benchmark.derived[key] = (counts, succs, tid_of)
    return tables


def wake_order(parked):
    """The one wake order of every core: the threads one completion
    releases wake in ascending index of the action each is parked on.
    ``parked`` holds ``(action idx, waker)`` pairs, one per action;
    returns the wakers in wake order.  The events core sorts what a
    completion finds parked; the scoreboard's successor lists are kept
    in this order (:func:`order_tables` builds them ascending,
    ``FollowRun.feed`` appends in trace order), so its release walks
    them as they stand (``tests/artc/test_wake_order.py``)."""
    return [waker for _, waker in sorted(parked, key=itemgetter(0))]


def release_serial(pending, waiting, gates, succ_list, tid_of):
    """The scoreboard's release, the one release rule of the fast cores:
    decrement each successor's pending counter and wake its owner
    thread the moment the action that thread parked on hits zero.
    Successors are walked in list order, which is :func:`wake_order`.
    The precompiled kernel inlines this loop and the JIT writes it out
    per action.  Returns the tids woken, in wake order."""
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
