"""The plan build against the row-at-a-time form it replaced, and
derived == derived across an artifact round trip.

Until PR 21 ``planir.compile_entry`` re-derived everything an entry
needs from scratch for every action -- five ``spec_for`` look-ups, the
emulation planner, a fresh copy of the argument dict -- and an
``.artcb`` carried a serialized copy of the self-targeted plan, bound,
unbound and bound again.  Now what depends only on ``(call name,
PlanKey)`` is decided once per plan (``planir._call_row``),
``static_args`` copies only what it rewrites, and the artifact carries
no plan: each is built once, by the first replay that asks.

The old ``compile_entry`` and the helpers and emulation planner it
called live on here, verbatim (``planir.py`` and
``syscalls/emulation.py`` at c6cc119; the ``ignore_unsupported_hints``
knob, which nothing ever set, reads as its default), as the reference.
For the Magritte samples, a LevelDB trace and a hand-built trace with
every entry kind, and for every ``(target flavor, fsync_mode,
o_excl_fix)`` key:

- the plan derived from the in-memory compile equals the reference
  entry by entry -- kind, flags, step names, bound calls, fd keys, and
  argument dicts by value;
- the plan derived from the *reloaded* artifact equals both;
- an entry that does not rewrite its arguments holds the record's own
  dict, and building a plan leaves every record as it found it.
"""

import copy
import itertools

import pytest

from repro.artc import artifact, planir
from repro.artc.compiler import compile_trace
from repro.artc.planir import DYNAMIC, FDREMAP, META, MULTI, STATIC, PlanKey
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.leveldb.apps import LevelDBFillSync
from repro.syscalls.emulation import (
    DEFAULT_OPTIONS,
    EmulationOptions,
    _HINT_FCNTL,
    _METADATA_MAP,
    _TARGET_GETDENTS,
)
from repro.syscalls.execute import BIND, BIND_AROUND_FD, READ_KINDS
from repro.syscalls.registry import spec_for
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS
from repro.workloads.magritte import build_suite
from tests.conftest import make_fs

# ----------------------------------------------------------------------
# the reference: repro/syscalls/emulation.py at c6cc119, lines 96-207
# ----------------------------------------------------------------------



def _native_name(name, target):
    """Strip Darwin ``_nocancel`` suffixes and size-variant aliases down
    to a name available on ``target``."""
    base = name[: -len("_nocancel")] if name.endswith("_nocancel") else name
    spec = spec_for(base)
    if spec.available_on(target):
        return base
    mapped = _METADATA_MAP.get(base)
    if mapped is not None:
        if mapped == "getdents":
            concrete = _TARGET_GETDENTS[target]
            return concrete
        return mapped
    return None


def plan_for(name, args, source, target, options=DEFAULT_OPTIONS):
    """Build the execution plan for one call on ``target``.

    Returns a list of ``(call_name, args)`` steps.  An empty list means
    the call has no analogue and is skipped (succeeds trivially), which
    is how ARTC treats some hints on FreeBSD.
    """
    spec = spec_for(name)

    # fsync semantics differ between Darwin and everything else.
    if spec.kind in ("fsync", "fdatasync"):
        if source == "darwin" and target != "darwin":
            call = "fsync" if options.fsync_mode == "durable" else "fdatasync"
            if not spec_for(call).available_on(target):
                call = "fsync"
            return [(call, args)]
        if source != "darwin" and target == "darwin":
            if options.fsync_mode == "durable":
                return [("fcntl", {"fd": args["fd"], "cmd": "F_FULLFSYNC"})]
            return [("fsync", args)]
        return [(_native_name(name, target) or "fsync", args)]

    # fcntl hint commands.
    if spec.kind == "fcntl":
        cmd = args.get("cmd", "")
        if cmd in _HINT_FCNTL and target != "darwin":
            if cmd == "F_RDADVISE":
                if spec_for("posix_fadvise").available_on(target):
                    return [
                        (
                            "posix_fadvise",
                            {
                                "fd": args["fd"],
                                "offset": args.get("offset", 0),
                                "length": args.get("arg", 0) or 0,
                                "advice": "POSIX_FADV_WILLNEED",
                            },
                        )
                    ]
                return []  # ignore_unsupported_hints: removed with its default, True
            if cmd == "F_PREALLOCATE":
                if spec_for("fallocate").available_on(target):
                    return [
                        (
                            "fallocate",
                            {"fd": args["fd"], "offset": 0, "length": args.get("arg", 0) or 0},
                        )
                    ]
                if spec_for("posix_fallocate").available_on(target):
                    return [
                        (
                            "posix_fallocate",
                            {"fd": args["fd"], "offset": 0, "length": args.get("arg", 0) or 0},
                        )
                    ]
                return []
            if cmd == "F_NOCACHE":
                return []  # no portable equivalent; ignore
        name_native = "fcntl"
        return [(name_native, args)]

    # Darwin's atomic swap: a link and two renames (section 4.3.4).
    if spec.kind == "exchangedata" and target != "darwin":
        path1 = args["path1"]
        path2 = args["path2"]
        tmp = path1 + ".exch-tmp"
        return [
            ("link", {"target": path1, "path": tmp}),
            ("rename", {"old": path2, "new": path1}),
            ("rename", {"old": tmp, "new": path2}),
        ]

    native = _native_name(name, target)
    if native is None:
        # Hint-like call with no analogue: skip.
        if spec.category in ("hint",):
            return []
        # Fall back to executing the semantic kind directly; the
        # executor dispatches on kind, so pick any registered name with
        # that kind available on the target.
        for candidate in _same_kind_names(spec.kind, target):
            return [(candidate, args)]
        return []
    return [(native, args)]


def _same_kind_names(kind, target):
    from repro.syscalls.registry import REGISTRY

    for name, spec in sorted(REGISTRY.items()):
        if spec.kind == kind and spec.available_on(target):
            yield name


# ----------------------------------------------------------------------
# the reference: repro/artc/planir.py at c6cc119, lines 106-238
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# the benchmarks
# ----------------------------------------------------------------------

FLAVORS = ("darwin", "linux", "freebsd", "illumos")
MAGRITTE = (
    "iphoto_import400", "itunes_startsmall1", "pages_create15",
    "numbers_start5", "keynote_play20", "imovie_add1",
)


def _every_kind(platform):
    """A trace whose plans, across targets, hold every entry kind:
    hints that plan nothing or re-spell a remapped fd, exchangedata's
    three steps, fsync both ways, dup2, O_EXCL opens that succeed and
    fail, aio by name and lio_listio by request list."""
    fs = make_fs(seed=4, platform=platform)
    fs.makedirs_now("/d")
    fs.create_file_now("/d/doc", size=65536)
    snapshot = Snapshot.capture(fs, roots=("/d",), label="every-kind")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="every-kind", platform=platform)

    def body(tid):
        call = osapi.call
        fd, _ = yield from call(tid, "open", path="/d/doc", flags="O_RDWR")
        if platform == "darwin":
            for cmd in ("F_NOCACHE", "F_RDADVISE", "F_PREALLOCATE"):
                yield from call(tid, "fcntl", fd=fd, cmd=cmd, offset=0, arg=32768)
            yield from call(tid, "getattrlist", path="/d/doc")
            yield from call(tid, "fstat_extended", fd=fd)
        yield from call(tid, "read", fd=fd, nbytes=4096)
        yield from call(tid, "pread", fd=fd, nbytes=512, offset=8192)
        yield from call(tid, "stat", path="/d/doc")
        yield from call(tid, "dup2", fd=fd, newfd=40 + tid)
        yield from call(tid, "fsync", fd=fd)
        yield from call(tid, "fdatasync", fd=fd)
        yield from call(tid, "aio_read", fd=fd, aiocb="cb%d" % tid,
                        nbytes=4096, offset=0)
        yield from call(tid, "aio_suspend", aiocbs=["cb%d" % tid])
        yield from call(tid, "aio_return", aiocb="cb%d" % tid)
        yield from call(tid, "lio_listio", mode="LIO_WAIT", ops=[
            {"aiocb": "l%d" % tid, "op": "read", "fd": fd,
             "nbytes": 1024, "offset": 0},
        ])
        yield from call(tid, "close", fd=fd)
        for _attempt in range(2):  # the second fails EEXIST
            new, _ = yield from call(
                tid, "open", path="/d/new%d" % tid,
                flags="O_WRONLY|O_CREAT|O_EXCL",
            )
        yield from call(tid, "close", fd=40 + tid)
        if platform == "darwin" and tid == 1:
            yield from call(tid, "exchangedata", path1="/d/doc", path2="/d/new1")

    for tid in (1, 2):
        fs.engine.spawn(body(tid))
    fs.engine.run()
    return compile_trace(trace, snapshot)


def _magritte(app):
    traced = trace_application(
        build_suite([app])[app], PLATFORMS["mac-hdd"], seed=0
    )
    return compile_trace(traced.trace, traced.snapshot)


def _leveldb():
    traced = trace_application(
        LevelDBFillSync(nthreads=4, ops_per_thread=60), PLATFORMS["ssd"], seed=0
    )
    return compile_trace(traced.trace, traced.snapshot)


BUILDERS = dict(
    {app: (lambda app=app: _magritte(app)) for app in MAGRITTE},
    leveldb_fillsync=_leveldb,
    every_kind_darwin=lambda: _every_kind("darwin"),
    every_kind_linux=lambda: _every_kind("linux"),
)


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def pair(request):
    """``(in-memory compile, the same benchmark reloaded from its
    artifact, a deep copy of the records taken before any build)``."""
    bench = BUILDERS[request.param]()
    before = copy.deepcopy([(a.record.args, a.ann) for a in bench.actions])
    return bench, artifact.unpack_bytes(artifact.pack_bytes(bench)), before


def keys_for(bench):
    return [
        PlanKey(bench.platform, target, o_excl_fix, fsync_mode)
        for target, fsync_mode, o_excl_fix in itertools.product(
            FLAVORS, ("durable", "flush"), (True, False)
        )
    ]


def reference_plan(bench, key):
    emulation = EmulationOptions(fsync_mode=key.fsync_mode)
    return [compile_entry(action, key, emulation) for action in bench.actions]


def derived_plan(bench, key):
    return planir.plans_for(
        bench, key.source, key.target, key.o_excl_fix,
        EmulationOptions(fsync_mode=key.fsync_mode),
    ).entries


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------


def test_derived_equals_reference_equals_reloaded(pair):
    bench, loaded, _before = pair
    for key in keys_for(bench):
        reference = reference_plan(bench, key)
        ours = derived_plan(bench, key)
        theirs = derived_plan(loaded, key)
        assert len(ours) == len(theirs) == len(reference) == len(bench.actions)
        for idx, entries in enumerate(zip(reference, ours, theirs)):
            want, got, reloaded = entries
            assert got == want, (key, idx, bench.actions[idx].record)
            assert reloaded == want, (key, idx, bench.actions[idx].record)


def test_plans_cover_every_kind(pair):
    bench, _loaded, _before = pair
    if bench.label != "every-kind" or bench.platform != "darwin":
        pytest.skip("only the hand-built Darwin trace is built to")
    seen = set()
    for key in keys_for(bench):
        seen.update(entry[0] for entry in derived_plan(bench, key))
    assert seen == {META, STATIC, FDREMAP, MULTI, DYNAMIC}


def test_entries_share_the_records_arguments_and_leave_them_alone(pair):
    bench, _loaded, before = pair
    rewritten = shared = 0
    for key in keys_for(bench):
        for action, entry in zip(bench.actions, derived_plan(bench, key)):
            if entry[0] in (STATIC, FDREMAP):
                if entry[1][1] is action.record.args:
                    shared += 1
                else:
                    rewritten += 1
                    assert entry[1][1] != action.record.args or (
                        entry[1][2] != action.record.name
                    )
    assert shared > rewritten
    assert before == [(a.record.args, a.ann) for a in bench.actions]


def test_default_plan_is_the_self_targeted_key(pair):
    bench, loaded, _before = pair
    key = planir.plan_key(bench.platform, bench.platform, True, DEFAULT_OPTIONS)
    assert planir.default_plan(bench).key == key
    assert planir.default_plan(loaded).entries == reference_plan(bench, key)
