"""Abstract replay: static prediction of replay outcomes and final FS state.

The second ``artc verify`` engine.  Where translation validation
(:mod:`repro.verify.transval`) proves the *generated programs* faithful
to the scoreboard semantics, this module predicts what any faithful
replay must *produce*: the per-action errno outcomes and the final
file-system state digest -- without running the discrete-event
simulator at all.

What a prediction is
--------------------

A prediction is a *trace-order execution of the concrete data plane
with the timing removed*.  This module is a driver, not a file system:
it builds a real :class:`repro.vfs.filesystem.FileSystem` on the null
machine (:mod:`repro.vfs.null`: a storage stack and an engine that do
nothing), and runs every action, in trace order, through the
replayer's own per-action body (``_ReplayRun._perform``: translate,
plan emulation, perform each step, remap descriptors), draining it to
its end and discarding every effect it yields.  Snapshot
initialization and final-state capture are
:func:`repro.artc.init.initialize` and
:meth:`repro.tracing.snapshot.Snapshot.capture`.  There is no second
model of ``rename`` to keep in step: an errno fix in the VFS is a fix
here.

What is *abstract* is only the question of when one linearization may
speak for every schedule.  The domain is a flat lattice -- that one
concrete state, with a single top element ``UNKNOWN`` above it -- and
the interpreter *widens* to top, reporting ``UNKNOWN`` for the
remaining actions rather than guessing, whenever an outcome could
depend on scheduling or on a crash: an aio write still in flight when
a later step reads or overwrites the file's size, a raw trace
descriptor falling back unmapped into a replay fd table with different
numbering (the replayer's ``_unmapped_fd`` seam), a step the concrete
replay would crash on (``step-would-crash``).  Predictions are
therefore sound by construction: ``exact`` means *every* admissible
schedule of the requested mode produces exactly this digest and these
errnos; ``unknown`` promises nothing.

Mode gating
-----------

Trace-order interpretation is one particular linearization.  It speaks
for all schedules of a mode only when every conflicting action pair is
ordered by that mode's constraints -- which is precisely the race scan
of :func:`repro.lint.conflicts.find_races`:

- ``single-threaded`` (and ARTC with ``program_seq``): replay *is*
  trace order; always eligible.
- ``artc``: eligible iff the dependency graph leaves zero races.
- ``temporally-ordered`` / ``unconstrained``: eligible iff the trace
  has zero cross-thread conflicting pairs at all (races under the
  bare ``thread_seq`` rule set).

A multithreaded non-sequential trace that shares its working directory
(``chdir``/``fchdir``) is refused outright: the replay threads share
one ``cwd`` and relative resolution becomes schedule-dependent.
"""

import hashlib
import json
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.artc.replayer import ReplayConfig, _ReplayRun
from repro.core.deps import build_dependencies
from repro.core.modes import ReplayMode, RuleSet
from repro.lint.conflicts import find_races
from repro.syscalls.emulation import DEFAULT_OPTIONS, EmulationOptions
from repro.syscalls.execute import flags_of
from repro.syscalls.registry import spec_for
from repro.tracing.snapshot import Snapshot
from repro.vfs import flags as F
from repro.vfs.fdtable import FDTable
from repro.vfs.null import drain, null_filesystem

#: Outcome sentinel: the abstract interpreter declines to predict.
UNKNOWN = "UNKNOWN"

#: ``Prediction.to_dict()`` format tag.
PREDICTION_FORMAT = "artc-abstract-v1"


class Widened(Exception):
    """The abstract state jumped to top.

    ``scope`` is ``"suffix"`` when everything *before* the widening
    action is still trustworthy, ``"global"`` when the widening cause
    (raw-fd aliasing) could have perturbed unordered earlier actions
    too.
    """

    def __init__(self, reason: str, scope: str = "suffix") -> None:
        super().__init__(reason)
        self.reason = reason
        self.scope = scope


# ----------------------------------------------------------------------
# the in-flight rule: where a step reads or overwrites a file's size
# ----------------------------------------------------------------------

# The null engine runs an aio completion to its end when the VFS spawns
# it.  Its only state effect, ``size = max(size, offset + nbytes)``,
# commutes with everything except the size readers _SIZE_SITES lists,
# which widen while the write is in flight (the engine's ``spawned``
# counts acceptances, so the run knows which requests those are).

Inos = Tuple[Optional[int], ...]


def _at_fd(fs: Any, fd: Any, flag: int = 0) -> Inos:
    """The inode behind ``fd``, if it is open (with ``flag`` set)."""
    if fd not in fs.fdt:
        return ()  # the step fails with EBADF before it reads any size
    open_file = fs.fdt.get(fd)
    return (open_file.ino,) if (open_file.flags & flag) == flag else ()


def _at_path(fs: Any, path: str, follow: bool = True) -> Inos:
    inode = fs.lookup(path, follow=follow)
    return () if inode is None else (inode.ino,)


def _cut_by_open(fs: Any, path: str, flags: int) -> Inos:
    """The existing file an ``open`` for writing will ``O_TRUNC``."""
    if not (flags & F.O_TRUNC) or (flags & F.O_ACCMODE) == F.O_RDONLY:
        return ()
    return _at_path(fs, path, not (flags & (F.O_NOFOLLOW | F.O_SYMLINK)))


#: Step kind -> the inodes whose *current* size the step uses, for a
#: result that lands in the predicted state (the new size, a shared
#: offset).  With an aio write to one of them in flight that size is
#: schedule-dependent.  ``pread``/``pwrite``/``stat``/``fallocate`` and
#: further aio submissions are absent on purpose: they only return the
#: size or fold it with ``max``.
_SIZE_SITES: Dict[str, Callable[[Any, Dict[str, Any]], Inos]] = {
    "truncate": lambda fs, a: _at_path(fs, a["path"]),
    "ftruncate": lambda fs, a: _at_fd(fs, a["fd"]),
    "open": lambda fs, a: _cut_by_open(fs, a["path"], flags_of(a)),
    "creat": lambda fs, a: _at_path(fs, a["path"]),
    "shm_open": lambda fs, a: _cut_by_open(
        fs, "/dev/shm/" + a["name"].lstrip("/"), flags_of(a)),
    "read": lambda fs, a: _at_fd(fs, a["fd"]),
    "write": lambda fs, a: _at_fd(fs, a["fd"], F.O_APPEND),
    "lseek": lambda fs, a: (
        _at_fd(fs, a["fd"]) if a.get("whence") == F.SEEK_END else ()),
    "exchangedata": lambda fs, a: (
        _at_path(fs, a["path1"]) + _at_path(fs, a["path2"])),
}


#: Step kind -> the ``(aiocb, fd, is_write)`` requests it submits, in
#: submission order (``aio_read`` alone puts no write in flight).
_AIO_SUBMITS: Dict[str, Callable[[Dict[str, Any]], List[Tuple[Any, Any, bool]]]] = {
    "aio_write": lambda a: [(a["aiocb"], a["fd"], True)],
    "lio_listio": lambda a: [
        (op["aiocb"], op["fd"], op.get("is_write", False))
        for op in a.get("ops", [])],
}


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------


class _AbstractRun(_ReplayRun):
    """One trace-order run of a benchmark on the null machine: the
    replayer's own ``_perform`` (translate -> emulation plan -> each
    step -> fd remap), widened at the two seams it leaves open."""

    def __init__(self, benchmark: Any, target: str,
                 emulation: EmulationOptions, o_excl_fix: bool,
                 sequential: bool) -> None:
        config = ReplayConfig(mode=ReplayMode.SINGLE, emulation=emulation,
                              o_excl_fix=o_excl_fix)
        super().__init__(benchmark, null_filesystem(target), config)
        self.sequential = sequential
        # aiocb -> inode of each aio write submitted and not yet
        # waited for by an aio_suspend
        self.inflight: Dict[Any, int] = {}

    def _unmapped_fd(self, raw: Any) -> Any:
        """An fd argument is about to be used untranslated (no mapping
        recorded, or no annotation).  Fine when it cannot alias a live
        replay descriptor, or when this run's fd table provably
        numbers descriptors as the replay's will; otherwise widen
        globally -- aliasing side effects could perturb even unordered
        earlier actions."""
        if isinstance(raw, int) and raw < FDTable.FIRST_FD:
            return raw  # std streams / -1: absent from every replay fd table
        if self.sequential:
            return raw  # single replay thread: same allocation order
        raise Widened("raw-fd-aliasing", scope="global")

    def _step(self, tid: Any, name: str,
              args: Dict[str, Any]) -> Generator[Any, Any, Any]:
        """One emulation step, keeping the in-flight rule."""
        kind = spec_for(name).kind
        if self.inflight and kind in _SIZE_SITES:
            sized = _SIZE_SITES[kind](self.fs, args)
            if any(ino in sized for ino in self.inflight.values()):
                raise Widened("aio-write-in-flight")
        requests: Sequence[Tuple[Any, Any, bool]] = (
            _AIO_SUBMITS[kind](args) if kind in _AIO_SUBMITS else ())
        accepted = self.engine.spawned
        try:
            return (yield from super()._step(tid, name, args))
        finally:
            # A refused list has still accepted a prefix of its
            # requests: the VFS takes them in order and stops at the
            # first it refuses.
            for aiocb, fd, is_write in requests[:self.engine.spawned - accepted]:
                if is_write:
                    self.inflight[aiocb] = self.fs.fdt.get(fd).ino
            if kind == "aio_suspend":
                for aiocb in args["aiocbs"]:
                    self.inflight.pop(aiocb, None)


# ----------------------------------------------------------------------
# predictions
# ----------------------------------------------------------------------


class Prediction(object):
    """A per-mode static prediction.

    ``status`` is ``"exact"`` (digest and every outcome binding) or
    ``"unknown"``.  ``outcomes[i]`` is the predicted errno of action
    ``i`` -- ``None`` for success, an errno string for a modeled
    failure, or :data:`UNKNOWN`.  ``digest`` is None unless exact.
    ``widened_at`` is the action index where interpretation widened
    (None when it ran to completion or never started)."""

    __slots__ = ("mode", "target", "status", "reason", "digest",
                 "outcomes", "widened_at")

    def __init__(self, mode: str, target: str, status: str,
                 reason: Optional[str], digest: Optional[str],
                 outcomes: List[str], widened_at: Optional[int]) -> None:
        self.mode = mode
        self.target = target
        self.status = status
        self.reason = reason
        self.digest = digest
        self.outcomes = outcomes
        self.widened_at = widened_at

    @property
    def n_unknown(self) -> int:
        return sum(1 for out in self.outcomes if out == UNKNOWN)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PREDICTION_FORMAT,
            "mode": self.mode,
            "target": self.target,
            "status": self.status,
            "reason": self.reason,
            "digest": self.digest,
            "actions": len(self.outcomes),
            "unknown": self.n_unknown,
            "widened_at": self.widened_at,
            "outcomes": list(self.outcomes),
        }

    def __repr__(self) -> str:
        return "<Prediction %s %s unknown=%d/%d>" % (
            self.mode, self.status, self.n_unknown, len(self.outcomes))


def _unknown(mode: str, target: str, n: int, reason: str) -> Prediction:
    return Prediction(mode, target, "unknown", reason, None,
                      [UNKNOWN] * n, None)


def _mode_races(benchmark: Any, mode: str) -> Optional[int]:
    """Unordered conflicting pairs under ``mode``'s constraints, or
    None when the scan was budget-truncated (treated as unknown)."""
    cache = benchmark.derived
    if ("races", mode) in cache:
        return cache["races", mode]
    actions = benchmark.touched_actions()
    if mode == ReplayMode.ARTC:
        graph = benchmark.graph
    else:  # TEMPORAL / UNCONSTRAINED: only thread order is guaranteed
        graph = build_dependencies(actions, RuleSet.unconstrained())
    scan = find_races(actions, graph, max_findings=0)
    races: Optional[int] = None if scan.truncated else scan.n_races
    cache["races", mode] = races
    return races


def _has_cwd_ops(benchmark: Any) -> bool:
    for action in benchmark.actions:
        try:
            if spec_for(action.record.name).kind in ("chdir", "fchdir"):
                return True
        except Exception:
            continue  # unregistered call: interpretation widens there
    return False


def predict(benchmark: Any, mode: str, target: Optional[str] = None,
            emulation: Optional[EmulationOptions] = None,
            o_excl_fix: bool = True) -> Prediction:
    """Predict replay outcomes of ``benchmark`` under ``mode`` against
    a ``target`` OS flavor (default: self-replay on the trace's own
    platform), without running the simulator."""
    if mode not in ReplayMode.ALL:
        raise ValueError("unknown replay mode: %r" % (mode,))
    target = target or benchmark.platform
    options = emulation if emulation is not None else DEFAULT_OPTIONS
    actions = benchmark.actions
    n = len(actions)
    multithreaded = len(benchmark.threads) > 1
    sequential = (
        mode == ReplayMode.SINGLE
        or (mode == ReplayMode.ARTC and benchmark.graph.program_seq)
        or not multithreaded
    )
    if not sequential:
        races = _mode_races(benchmark, mode)
        if races is None:
            return _unknown(mode, target, n, "race-scan-truncated")
        if races:
            return _unknown(mode, target, n, "unordered-races: %d" % races)
        if _has_cwd_ops(benchmark):
            return _unknown(mode, target, n, "shared-cwd")
    run = _AbstractRun(benchmark, target, options, o_excl_fix, sequential)
    if benchmark.snapshot is not None:
        try:
            from repro.artc.init import initialize

            initialize(run.fs, benchmark.snapshot)
        except Exception as exc:
            return _unknown(mode, target, n, "init-failed: %r" % (exc,))
    outcomes: List[str] = []
    widened_at: Optional[int] = None
    reason: Optional[str] = None
    for action in actions:
        try:
            outcomes.append(drain(run.fs, run._perform(action))[1])
            continue
        except Widened as wid:
            reason, scope = wid.reason, wid.scope
        except Exception as exc:
            # Unregistered call, unplannable emulation, malformed
            # argument: the replay dies here with the same exception.
            reason = "step-would-crash: %s: %r" % (action.record.name, exc)
            scope = "suffix"
        widened_at = action.idx
        if scope == "global":
            outcomes = []
        break
    while len(outcomes) < n:
        outcomes.append(UNKNOWN)
    if widened_at is None:
        return Prediction(mode, target, "exact", None,
                          digest_of_entries(capture_entries(run.fs)),
                          outcomes, None)
    return Prediction(mode, target, "unknown", reason, None,
                      outcomes, widened_at)


def predict_all(benchmark: Any, modes: Optional[Sequence[str]] = None,
                target: Optional[str] = None) -> List[Prediction]:
    """One prediction per replay mode (default: all four)."""
    return [predict(benchmark, mode, target=target)
            for mode in (modes or ReplayMode.ALL)]


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def capture_entries(fs: Any) -> List[Dict[str, Any]]:
    """Final-state snapshot entries of a ``FileSystem`` (a simulated
    one or an abstract run's) -- the same ``Snapshot.capture`` walk on
    both sides."""
    return [entry.to_dict() for entry in Snapshot.capture(fs).entries]


def digest_of_entries(entries: Sequence[Any]) -> str:
    """Canonical content digest of a final FS state."""
    items = [entry if isinstance(entry, dict) else entry.to_dict()
             for entry in entries]
    items.sort(key=lambda item: str(item.get("path", "")))
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fs_digest(fs: Any) -> str:
    """Digest of a live file system's current state."""
    return digest_of_entries(capture_entries(fs))
