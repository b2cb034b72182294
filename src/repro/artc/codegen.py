"""The trace-specializing JIT: execution-plan IR -> straight-line Python.

The replayer's precompiled kernel still *interprets* the IR: every
action re-tests the entry kind, unpacks a payload tuple, and re-reads
``record.ok`` / ``record.ret`` to assess the outcome.  None of
that varies between replays of one compiled benchmark -- so this module
specializes it away.  For each thread it generates one straight-line
Python generator function (``def _t0(run): ...``) whose body is the
thread's action tape unrolled: call arguments, fd-remap keys, and
expected return values are bound as constants in the generated
module's namespace; the conformance check is specialized per
action at codegen time (a trace-successful non-read compiles to ``True
if err is None else assess(...)``); the gate check is elided for
actions with no cross-thread predecessors; and the completion broadcast
is a *batched release* -- pending-predecessor counters for a whole run
of same-thread successors decremented in one pass with a single
waiting-table probe per run (:func:`repro.artc.planir.release_runs`).

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

Three variants cover the shapes of order the precompiled kernel runs
under (``_ReplayRun._jit_body`` picks one):

- ``"artc"``: per-thread bodies with gates + batched release (ARTC mode)
- ``"free"``: per-thread bodies, no synchronization (unconstrained mode)
- ``"seq"``: one body over all actions (single-threaded / program_seq)

The generated code must replay exactly as
``_ReplayRun._precompiled_thread`` in :mod:`repro.artc.replayer` does
-- same yields, same report entries, same error messages.  Nothing
keeps the two in step by hand: the byte-identity property suite
(``tests/property/test_scoreboard_property.py``) holds both to the
event-core oracle, and :mod:`repro.verify.transval` checks the
emitter's claims against obligations derived independently.
"""

import time

from repro.artc import planir
from repro.artc.report import ActionResult

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

#: Content-addressed program cache: reloading the same ``.artcb``
#: artifact (same content hash) reuses the compiled program even though
#: the benchmark object is new.
_CONTENT_CACHE = {}
_CONTENT_CACHE_MAX = 8


class JitProgram(object):
    """One compiled program: generator functions plus their source.

    ``facts`` is the emitter's claims table -- one dict per action idx
    recording what the generated code *asserts* it did (gate emitted or
    elided, release runs, bound constants, conformance-check form).
    The translation validator (:mod:`repro.verify.transval`) checks
    these claims against independently derived obligations; they are
    never consulted on the replay hot path.
    """

    __slots__ = ("variant", "threads", "main", "sources", "n_functions",
                 "facts")

    def __init__(self, variant, threads, main, sources, facts=None):
        self.variant = variant
        self.threads = threads  # tid -> generator function (artc/free)
        self.main = main  # single generator function (seq)
        self.sources = sources  # function name -> generated source
        self.n_functions = len(sources)
        self.facts = facts if facts is not None else {}


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


def _compile_program(benchmark, plan, variant, reduced):
    started = time.perf_counter()
    namespace = {
        "_AR": ActionResult,
        "_IF": (int, float),
    }
    emitter = _Emitter(namespace)
    entries = plan.entries
    actions = benchmark.actions
    if variant == "seq":
        emitter.function("_seq", actions, entries, sync=None)
        sources = {"_seq": emitter.flush()}
    else:
        sync = _Sync(benchmark, reduced) if variant == "artc" else None
        sources = {}
        for j, (tid, thread_actions) in enumerate(benchmark.by_thread().items()):
            name = "_t%d" % j
            emitter.function(name, thread_actions, entries, sync=sync, tid=tid)
            sources[name] = emitter.flush()
    filename = "<artc-jit:%s:%s>" % (benchmark.label or "benchmark", variant)
    for source in sources.values():
        # One function at a time: the AST of a whole thread is the
        # process's peak memory, and joined they would all be live at once.
        exec(compile(source, filename, "exec"), namespace)
    threads = None
    main = None
    if variant == "seq":
        main = namespace["_seq"]
    else:
        threads = {
            tid: namespace["_t%d" % j]
            for j, tid in enumerate(benchmark.by_thread())
        }
    COUNTERS["codegen_modules"] += 1
    COUNTERS["codegen_functions"] += len(sources)
    COUNTERS["source_bytes"] += sum(map(len, sources.values()))
    COUNTERS["compile_seconds"] += time.perf_counter() - started
    return JitProgram(variant, threads, main, sources, emitter.facts)


class _Sync(object):
    """The scoreboard view the ``artc`` variant specializes against:
    active predecessor lists, successor lists, owner tids, and the
    per-action batched release runs."""

    def __init__(self, benchmark, reduced):
        graph = benchmark.graph
        preds = graph.preds
        if reduced and graph.reduced_preds is not None:
            preds = graph.reduced_preds
        self.preds = preds
        self.tid_of = [action.record.tid for action in benchmark.actions]
        succs = [[] for _ in benchmark.actions]
        for dst, plist in enumerate(preds):
            for src in plist:
                succs[src].append(dst)
        self.succs = succs

    def needs_gate(self, idx):
        """A gate check is required unless every predecessor is an
        earlier action of the same thread (those have always completed
        -- and decremented -- by the time the thread arrives here)."""
        tid = self.tid_of[idx]
        for src in self.preds[idx]:
            if self.tid_of[src] != tid or src >= idx:
                return True
        return False

    def runs(self, idx):
        return planir.release_runs(self.succs[idx], self.tid_of)


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
        """A source literal for ``value``; non-trivial values become
        named constants in the module namespace."""
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, (int, float, str)):
            return repr(value)
        self.ns[name] = value
        return name

    def const(self, name, value):
        self.ns[name] = value
        return name

    # -- function layout ----------------------------------------------

    def function(self, name, actions, entries, sync, tid=None):
        out = self.lines
        self._fn = name
        out.append("def %s(run):" % name)
        body = []
        wakers = {}  # owner tid -> bound local name
        methods = set()  # fs methods called directly
        tid_lit = None if tid is None else self.lit(tid, "_tid_%s" % name)
        for action in actions:
            self._action(
                body, action, entries[action.idx], sync, tid, tid_lit,
                wakers, methods,
            )
        # Preamble after the body: which gates get woken and which fs
        # methods get bound are only known once the body is emitted.
        kinds = {entries[action.idx][0] for action in actions}
        out.append("    ctx = run.ctx")
        out.append("    engine = run.engine")
        if planir.FDREMAP in kinds:
            out.append("    fd_map = ctx.fd_map")
        if methods:
            out.append("    fs = ctx.fs")
            for method in sorted(methods):
                out.append("    _fs_%s = fs.%s" % (method, method))
        out.append("    append = run.report.results.append")
        out.append("    assess = run._assess")
        if any(entries[action.idx][3] for action in actions):
            out.append("    update = run._update_maps")
        if planir.DYNAMIC in kinds:
            out.append("    perform = run._perform")
        if planir.META in kinds:
            out.append("    meta = run._meta_delay")
            out.append("    _d = meta.seconds")
            out.append("    advance = engine.advance")
        if sync is not None:
            out.append("    pending = run._sb_pending")
            out.append("    waiting = run._sb_waiting")
            if any(sync.needs_gate(action.idx) for action in actions):
                out.append("    gate = run._sb_gates[%s]" % tid_lit)
            for owner, waker in wakers.items():
                out.append(
                    "    %s = run._sb_gates[%s].open"
                    % (waker, self.lit(owner, "_o%s_%s" % (name, waker)))
                )
        if not actions:
            # An empty tape must still be a generator function.
            out.append("    return")
            out.append("    yield")
            return
        out.extend(body)

    # -- one action ----------------------------------------------------

    def _action(self, out, action, entry, sync, tid, tid_lit, wakers, methods):
        kind, payload, is_read, upd = entry
        idx = action.idx
        record = action.record
        own_tid = record.tid if tid is None else tid
        own_lit = tid_lit if tid_lit is not None else self.lit(
            own_tid, "_rt%d" % idx
        )
        name_lit = repr(record.name)
        p = "    "
        gated = sync is not None and sync.needs_gate(idx)
        fact = self.facts[idx] = {
            "idx": idx,
            "tid": own_tid,
            "kind": kind,
            "gate": gated,
            "releases": [],
            "conformance": None,
            "expected_ret": None,
            "update": bool(upd),
            "fd_key": None,
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
                call, base, fd_key, step_name, step_kind = payload
                fact["fd_key"] = fd_key
                fact["steps"] = ((step_name, step_kind),)
                fact["args"] = (base,)
                self._step(out, p, idx, "", call, own_lit, methods, fd_key)
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
            if upd:
                act = self.const("_x%d" % idx, action)
                out.append(p + "update(%s, ret, err)" % act)
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
            self._release(out, p, sync, idx, own_tid, wakers)

    def _step(self, out, p, idx, suffix, call, tid_lit, methods, fd_key=None):
        """One step: the entry's bound call (:mod:`repro.artc.planir`)
        written out as a direct bound-method call.  An fd-remapped call
        comes split around its descriptor, and the remap expression is
        written in between (which replaces the interpreter's splice)."""
        method, *segments, kwargs = call  # (argv,) or (head, tail)
        parts = []
        for n, values in enumerate(segments):
            if n:
                parts.append("fd_map.get(%s, %s)" % (
                    self.const("_k%d%s" % (idx, suffix), fd_key),
                    self.lit(fd_key[0], "_f%d%s" % (idx, suffix)),
                ))
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

    def _release(self, out, p, sync, idx, own_tid, wakers):
        claims = self.facts[idx]["releases"]
        for owner, members in sync.runs(idx):
            claims.append((owner, tuple(members), owner != own_tid))
            for succ in members:
                out.append(p + "pending[%d] -= 1" % succ)
            if owner == own_tid:
                # This thread is running this very release; it cannot
                # be parked, so no wake probe.
                continue
            waker = wakers.get(owner)
            if waker is None:
                waker = wakers[owner] = "_w%d" % len(wakers)
            owner_lit = self.lit(owner, "_ow%s_%s" % (self._fn, waker))
            if len(members) == 1:
                succ = members[0]
                out.append(
                    p + "if waiting.get(%s) == %d and not pending[%d]:"
                    % (owner_lit, succ, succ)
                )
            else:
                out.append(p + "_p = waiting.get(%s)" % owner_lit)
                if len(members) <= 4:
                    test = " or ".join("_p == %d" % s for s in members)
                else:
                    test = "_p in %s" % self.const(
                        "_s%d_%s" % (idx, waker), frozenset(members)
                    )
                out.append(
                    p + "if _p is not None and (%s) and not pending[_p]:" % test
                )
            out.append(p + "    del waiting[%s]" % owner_lit)
            out.append(p + "    %s()" % waker)
