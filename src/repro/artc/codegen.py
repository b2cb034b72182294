"""The trace-specializing JIT: execution-plan IR -> straight-line Python.

The replayer's precompiled kernel still *interprets* the IR: every
action re-tests the entry kind, unpacks a payload tuple, and re-reads
``record.ok`` / ``record.ret`` to assess the outcome.  None of
that varies between replays of one compiled benchmark -- so this module
specializes it away.  For each thread it generates one straight-line
Python generator function (``def _t0(run): ...``) whose body is the
thread's action tape unrolled: call arguments, descriptor slots, and
expected return values are bound as constants in the generated
module's namespace; the conformance check is specialized per
action at codegen time (a trace-successful non-read compiles to ``True
if err is None else assess(...)``).  Ordering is not specialized: an
action is gated iff it has enforced predecessors, and its completion
is the scoreboard's release (:func:`repro.artc.planir.release_serial`)
written out, one successor at a time in successor-list order.

Which file-system method a step calls, with which values, is constant
per action, and the emitter knows none of it: a plan entry carries each
step's call already bound from the executor's call table
(:func:`repro.artc.planir.compile_entry`), and the emitter writes it
out -- ``yield from _fs_open(5, '/a/b', 577, 420)``.  A record whose
arguments do not bind never gets here as a step: its entry is
``dynamic``, so it fails at replay time with the interpreter's message.

There is no per-action kind dispatch, no attribute lookup by name and
no argument-tuple splice in the loop;
the only per-action runtime work left is the file-system call itself,
the report append, and the release decrements.

Programs are compiled once per ``CompiledBenchmark`` and cached twice:
on the benchmark object itself, and -- when the benchmark came out of a
``.artcb`` artifact -- in a process-wide table keyed by the artifact's
content address (the PR 5 artifact key), so reloading the same artifact
makes codegen free.

A tape is cut into *units* of at most :data:`UNIT` actions, each its
own generator function with its own preamble (``_t1_0``, ``_t1_1``,
...), and the thread's function is a driver that runs them in order
(``yield from _t1_0(run)``).  Only the statement lines' grouping
changes: a tape of any length yields, reports and releases exactly as
one straight-line function would, and ``compile()`` never holds more
than one unit's AST.

Every program has one shape: a map of *tapes*, ``tid -> generator
function``, emitted by one path.  The order the replay enforces
(:func:`repro.artc.planir.enforced_order`, mapped by :func:`shape_of`)
picks the tapes and whether they synchronize:

- ``"artc"``: one tape per thread, with the scoreboard's gates and
  release over its order tables (:func:`repro.artc.planir.order_tables`)
  -- the reduced lists when ``reduced``;
- ``"free"``: one tape per thread, no synchronization (unconstrained);
- ``"seq"``: one tape over all actions under the key ``None`` -- the
  serial thread's key in ``spawn_threads`` (single-threaded replay).

The generated code must replay exactly as
``_ReplayRun._precompiled_thread`` in :mod:`repro.artc.replayer` does
-- same yields, same report entries, same error messages.  Nothing
keeps the two in step by hand: the byte-identity property suite
(``tests/property/test_scoreboard_property.py``) holds both to the
event-core oracle, and :mod:`repro.verify.transval` checks the
emitter's claims against obligations derived independently.
"""

import math
import time

from repro.artc import planir
from repro.artc.report import ActionResult
from repro.core.modes import ReplayMode

#: Process-wide codegen statistics, exported as ``replay.jit.*`` gauges
#: when a jit-core replay runs with observability attached.
COUNTERS = {
    "codegen_modules": 0,
    "codegen_functions": 0,
    "cache_hits_benchmark": 0,
    "cache_hits_content": 0,
    "compile_seconds": 0.0,
    "source_bytes": 0,
}

VARIANTS = ("artc", "free", "seq")

#: Most actions one generated function holds (see :meth:`_Emitter.thread`).
#: ``compile()`` of a function makes ~30 KB of transient AST per action,
#: so the unit, not the longest thread, sets codegen's peak memory.
#: Measured on ``ldb_fillsync`` seed 0 (one 3,344-action thread; 2 vCPU
#: Xeon, CPython 3.11.7), the RSS one cold ``program_for`` adds: 109 MiB
#: as one function per thread, 24 at 512, 14 at 256, 10 at 128, 8 at 64
#: (``tracemalloc`` peak 104 -> 10 MiB at 128).  Warm JIT replay and
#: cold codegen time were level from 64 to 512 on it and on
#: ``meta_churn``; below 128 the memory saved is small and the number of
#: functions grows.
UNIT = 128

#: Content-addressed program cache: reloading the same ``.artcb``
#: artifact (same content hash) reuses the compiled program even though
#: the benchmark object is new.
_CONTENT_CACHE = {}
_CONTENT_CACHE_MAX = 8


class JitProgram(object):
    """One compiled program: a generator function per tape plus their
    source.

    ``facts`` is the emitter's claims table -- one dict per action idx
    recording what the generated code *asserts* it did (gate emitted or
    not, the successors released in order, bound constants,
    conformance-check form).
    The translation validator (:mod:`repro.verify.transval`) checks
    these claims against independently derived obligations; they are
    never consulted on the replay hot path.
    """

    __slots__ = ("variant", "threads", "sources", "n_functions", "facts")

    def __init__(self, variant, threads, sources, facts=None):
        self.variant = variant
        self.threads = threads  # tid (None: the serial tape) -> function
        # function name -> generated source, in tape order: every unit,
        # and after a cut tape's units its driver.
        self.sources = sources
        self.n_functions = len(sources)  # units + drivers
        self.facts = facts if facts is not None else {}


def shape_of(serial, which):
    """The ``(variant, reduced)`` program that replays the order
    :func:`repro.artc.planir.enforced_order` returned as ``(serial,
    which)``."""
    variant = "seq" if serial else "artc" if which else "free"
    return variant, which == "reduced_preds"


def program_for(benchmark, plan, variant, reduced=False):
    """The compiled :class:`JitProgram` for one (benchmark, plan,
    variant) -- cached on the benchmark and, for artifact-loaded
    benchmarks, under the artifact content address."""
    if variant not in VARIANTS:
        raise ValueError("unknown jit variant %r" % (variant,))
    key = ("jit", plan.key, variant, bool(reduced))
    cache = benchmark.derived
    program = cache.get(key)
    if program is not None:
        COUNTERS["cache_hits_benchmark"] += 1
        return program
    content = getattr(benchmark, "content_key", None)
    ckey = (content,) + key if content is not None else None
    if ckey is not None:
        program = _CONTENT_CACHE.get(ckey)
        if program is not None:
            COUNTERS["cache_hits_content"] += 1
            cache[key] = program
            return program
    program = _compile_program(benchmark, plan, variant, bool(reduced))
    cache[key] = program
    if ckey is not None:
        while len(_CONTENT_CACHE) >= _CONTENT_CACHE_MAX:
            _CONTENT_CACHE.pop(next(iter(_CONTENT_CACHE)))
        _CONTENT_CACHE[ckey] = program
    return program


# -- the emitter ---------------------------------------------------------


def _converting(fs, method):
    """``fs.<method>`` as generated code calls it: the op behind one
    frame that converts a failure with ``fs.failed`` -- the JIT's catch
    site, bound once per method.  A ``try`` written into every entry
    instead would cost ~12 KB more compile memory per action."""
    failures = fs.FAILURES
    failed = fs.failed

    def call(*args, **kwargs):
        try:
            return (yield from method(*args, **kwargs))
        except failures as exc:
            return (yield from failed(exc))

    return call


def _compile_program(benchmark, plan, variant, reduced):
    started = time.perf_counter()
    namespace = {
        "_AR": ActionResult,
        "_IF": (int, float),
        "_CV": _converting,
        "_ST": planir.settle,
    }
    emitter = _Emitter(namespace)
    tapes = {None: benchmark.actions} if variant == "seq" else benchmark.by_thread()
    sync = None  # the scoreboard's (counts, succs, tid_of), for "artc"
    if variant == "artc":
        _serial, which = planir.enforced_order(
            benchmark.graph, ReplayMode.ARTC, reduced
        )
        sync = planir.order_tables(benchmark, which)
    sources, names = {}, {}
    for j, (tid, tape) in enumerate(tapes.items()):
        names[tid] = "_t%d" % j
        sources.update(emitter.thread(names[tid], tape, plan.entries, sync, tid))
    filename = "<artc-jit:%s:%s>" % (benchmark.label or "benchmark", variant)
    for source in sources.values():
        # One function at a time: a function's AST is the transient peak
        # of codegen, so it is bounded by UNIT actions, not by a thread.
        exec(compile(source, filename, "exec"), namespace)
    COUNTERS["codegen_modules"] += 1
    COUNTERS["codegen_functions"] += len(sources)
    COUNTERS["source_bytes"] += sum(map(len, sources.values()))
    COUNTERS["compile_seconds"] += time.perf_counter() - started
    threads = {tid: namespace[name] for tid, name in names.items()}
    return JitProgram(variant, threads, sources, emitter.facts)


class _Emitter(object):
    def __init__(self, namespace):
        self.ns = namespace
        self.lines = []
        self.facts = {}  # action idx -> claims dict (see JitProgram.facts)

    def flush(self):
        source = "\n".join(self.lines) + "\n"
        self.lines = []
        return source

    def lit(self, value, name):
        """A source literal for ``value``; non-trivial values (and
        ``inf`` / ``nan``, whose repr is not a literal) become named
        constants in the module namespace."""
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, (int, str)) or (
            isinstance(value, float) and math.isfinite(value)
        ):
            return repr(value)
        self.ns[name] = value
        return name

    def const(self, name, value):
        self.ns[name] = value
        return name

    # -- function layout ----------------------------------------------

    def thread(self, name, actions, entries, sync, tid):
        """The sources of one tape, ``function name -> source`` in tape
        order.  A tape of at most :data:`UNIT` actions is one function
        ``name``; a longer one is cut into units ``name_0``, ``name_1``,
        ... and ``name`` is their driver, emitted last."""
        self._fn = name
        self._wakers = {}  # owner tid -> local name, across the units
        tid_lit = None if tid is None else self.lit(tid, "_tid_%s" % name)
        if len(actions) <= UNIT:
            self._unit(name, actions, entries, sync, tid, tid_lit)
            return {name: self.flush()}
        sources = {}
        for start in range(0, len(actions), UNIT):
            unit = "%s_%d" % (name, len(sources))
            self._unit(unit, actions[start:start + UNIT], entries, sync, tid,
                       tid_lit)
            sources[unit] = self.flush()
        self.lines.append("def %s(run):" % name)
        self.lines.extend("    yield from %s(run)" % unit for unit in sources)
        sources[name] = self.flush()
        return sources

    def _unit(self, name, actions, entries, sync, tid, tid_lit):
        out = self.lines
        out.append("def %s(run):" % name)
        body = []
        wakers = {}  # owner tid -> local name, the ones this unit wakes
        methods = set()  # fs methods called directly
        for action in actions:
            self._action(
                body, action, entries[action.idx], sync, tid, tid_lit,
                wakers, methods,
            )
        # Preamble after the body: which gates get woken and which fs
        # methods get bound are only known once the body is emitted.
        kinds = {entries[action.idx][0] for action in actions}
        out.append("    engine = run.engine")
        settles = any(entries[action.idx][3] for action in actions)
        if planir.FDREMAP in kinds or settles:
            out.append("    fds = run._fds")
        if methods:
            out.append("    fs = run.fs")
            for method in sorted(methods):
                out.append("    _fs_%s = _CV(fs, fs.%s)" % (method, method))
        out.append("    append = run.report.results.append")
        out.append("    assess = run._assess")
        if planir.DYNAMIC in kinds:
            out.append("    perform = run._perform")
        if planir.META in kinds:
            out.append("    meta = run._meta_delay")
            out.append("    _d = meta.seconds")
            out.append("    advance = engine.advance")
        if sync is not None:  # the tape gates or releases
            out.append("    pending = run._sb_pending")
            out.append("    waiting = run._sb_waiting")
        if any(self.facts[action.idx]["gate"] for action in actions):
            out.append("    gate = run._sb_gates[%s]" % tid_lit)
        for owner, waker in wakers.items():
            out.append(
                "    %s = run._sb_gates[%s].open"
                % (waker, self.lit(owner, "_o%s_%s" % (self._fn, waker)))
            )
        if not actions:
            # An empty tape must still be a generator function.
            out.append("    return")
            out.append("    yield")
            return
        out.extend(body)

    # -- one action ----------------------------------------------------

    def _action(self, out, action, entry, sync, tid, tid_lit, wakers, methods):
        kind, payload, is_read, settle = entry
        idx = action.idx
        record = action.record
        own_tid = record.tid if tid is None else tid
        own_lit = tid_lit if tid_lit is not None else self.lit(
            own_tid, "_rt%d" % idx
        )
        name_lit = repr(record.name)
        p = "    "
        gated = sync is not None and sync[0][idx] > 0
        fact = self.facts[idx] = {
            "idx": idx,
            "kind": kind,
            "gate": gated,
            "releases": (),
            "conformance": None,
            "expected_ret": None,
            "settle": settle,
            "slot": None,
            "steps": None,
            "args": None,
        }
        if gated:
            out.append(p + "if pending[%d]:" % idx)
            out.append(p + "    waiting[%s] = %d" % (own_lit, idx))
            out.append(p + "    yield gate")
        out.append(p + "issue = engine.now")
        if kind == planir.META:
            out.append(p + "if not advance(_d):")
            out.append(p + "    yield meta")
            out.append(
                p + "append(_AR(%d, %s, %s, issue, engine.now, 0, None, True))"
                % (idx, own_lit, name_lit)
            )
            fact["conformance"] = "meta"
        elif kind == planir.DYNAMIC:
            act = self.const("_x%d" % idx, action)
            out.append(
                p + "ret, err, performed = yield from perform(%s)" % act
            )
            out.append(
                p + "matched = assess(%s, ret, err) if performed else True" % act
            )
            out.append(p + self._append_result(idx, own_lit, name_lit))
            fact["conformance"] = "dynamic"
        else:
            if kind == planir.STATIC:
                call, args, step_name, step_kind = payload
                fact["steps"] = ((step_name, step_kind),)
                fact["args"] = (args,)
                self._step(out, p, idx, "", call, own_lit, methods)
            elif kind == planir.FDREMAP:
                call, base, slot, step_name, step_kind = payload
                fact["slot"] = slot
                fact["steps"] = ((step_name, step_kind),)
                fact["args"] = (base,)
                self._step(out, p, idx, "", call, own_lit, methods, slot)
            else:  # MULTI: unrolled with early exit on error
                fact["steps"] = tuple(
                    (step_name, step_kind)
                    for _, _, step_name, step_kind in payload
                )
                fact["args"] = tuple(args for _, args, _, _ in payload)
                for j, step in enumerate(payload):
                    prefix = p + "    " * j
                    if j:
                        out.append(prefix[:-4] + "if err is None:")
                    self._step(out, prefix, idx, "_%d" % j, step[0], own_lit,
                               methods)
            if settle is not None:
                out.append(p + "_ST(fds, %r, ret, err)" % (settle,))
            if not record.ok:
                fact["conformance"] = "assess"
            elif is_read:
                fact["conformance"] = "ok_ret"
                fact["expected_ret"] = record.ret
            else:
                fact["conformance"] = "ok"
            out.append(p + self._matched(idx, action, is_read))
            out.append(p + self._append_result(idx, own_lit, name_lit))
        if sync is not None:
            self._release(out, p, sync, idx, wakers)

    def _step(self, out, p, idx, suffix, call, tid_lit, methods, slot=None):
        """One step: the entry's bound call (:mod:`repro.artc.planir`)
        written out as a direct bound-method call.  An fd-remapped call
        comes split around its descriptor, and its slot read ``fds[n]``
        is written in between (which replaces the interpreter's splice)."""
        method, *segments, kwargs = call  # (argv,) or (head, tail)
        parts = []
        for n, values in enumerate(segments):
            if n:
                parts.append("fds[%d]" % slot)
            for value in values:
                parts.append(
                    self.lit(value, "_c%d%s_%d" % (idx, suffix, len(parts)))
                )
        for name, value in kwargs.items():
            parts.append(
                "%s=%s" % (name, self.lit(value, "_c%d%s_%s" % (idx, suffix, name)))
            )
        methods.add(method)
        out.append(
            p + "ret, err = yield from _fs_%s(%s)"
            % (method, ", ".join([tid_lit] + parts))
        )

    def _matched(self, idx, action, is_read):
        record = action.record
        act = lambda: self.const("_x%d" % idx, action)  # noqa: E731
        if not record.ok:
            return "matched = assess(%s, ret, err)" % act()
        if is_read:
            return (
                "matched = True if err is None and ret == %s else assess(%s, ret, err)"
                % (self.lit(record.ret, "_r%d" % idx), act())
            )
        return "matched = True if err is None else assess(%s, ret, err)" % act()

    def _append_result(self, idx, tid_lit, name_lit):
        return (
            "append(_AR(%d, %s, %s, issue, engine.now,"
            " ret if isinstance(ret, _IF) else 0, err, matched))"
            % (idx, tid_lit, name_lit)
        )

    def _release(self, out, p, sync, idx, wakers):
        """The scoreboard's release (:func:`planir.release_serial`)
        written out for one completion: per successor, in order,
        decrement its counter, and wake its owner if the owner is parked
        on it and it is now ready."""
        _counts, succs, tid_of = sync
        self.facts[idx]["releases"] = tuple(succs[idx])
        for succ in succs[idx]:
            owner = tid_of[succ]
            waker = wakers.get(owner)
            if waker is None:
                waker = wakers[owner] = self._wakers.setdefault(
                    owner, "_w%d" % len(self._wakers))
            owner_lit = self.lit(owner, "_ow%s_%s" % (self._fn, waker))
            out.append(p + "pending[%d] -= 1" % succ)
            out.append(
                p + "if waiting.get(%s) == %d and not pending[%d]:"
                % (owner_lit, succ, succ)
            )
            out.append(p + "    del waiting[%s]" % owner_lit)
            out.append(p + "    %s()" % waker)
