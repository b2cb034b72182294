"""Cross-platform pseudo-call emulation (paper section 4.3.4).

When a trace collected on one platform is replayed on another, calls
with no native equivalent are converted to *pseudo-calls* and emulated
with the most similar call (or combination of calls) available on the
target.  ARTC emulates 19 calls; the table here mirrors its groups:

- 11 special metadata-access APIs (attribute lists, xattr spellings,
  bulk directory attributes) -> nearest stat/xattr/getdents equivalent,
  extra parameters ignored;
- 3 file-system hints (prefetch, preallocation, cache control) ->
  fadvise/fallocate where available, ignored on FreeBSD;
- 3 obscure undocumented Mac OS X calls (the ``*_extended`` stat
  family) -> small metadata accesses;
- 1 fsync-semantics difference (Darwin fsync only flushes to the device
  cache; Linux makes data durable) -> replay option selects which
  semantics to emulate;
- 1 ``exchangedata`` (Darwin's atomic data swap) -> a link and two
  renames (not truly atomic, as the paper notes).
"""

from repro.syscalls.registry import spec_for


class EmulationOptions(object):
    """Replay-time knobs for ambiguous emulations.

    ``fsync_mode``: how to emulate a *Darwin* fsync on a durable-fsync
    platform -- ``"durable"`` issues a full fsync (conservative),
    ``"flush"`` issues the cheaper fdatasync.  When replaying a *Linux*
    fsync on Darwin, the inverse option picks ``fcntl(F_FULLFSYNC)``
    (durable) or plain fsync (flush).
    """

    def __init__(self, fsync_mode="durable"):
        if fsync_mode not in ("durable", "flush"):
            raise ValueError("fsync_mode must be 'durable' or 'flush'")
        self.fsync_mode = fsync_mode


DEFAULT_OPTIONS = EmulationOptions()

#: The 19 emulated calls, grouped as in the paper.
EMULATED_CALLS = {
    "metadata": [
        "getattrlist",
        "setattrlist",
        "fgetattrlist",
        "fsetattrlist",
        "getattrlistbulk",
        "getdirentriesattr",
        "getxattr",  # Darwin spelling/options differ from Linux
        "setxattr",
        "listxattr",
        "removexattr",
        "getdirentries64",
    ],
    "hints": ["F_RDADVISE", "F_PREALLOCATE", "F_NOCACHE"],
    "obscure": ["stat_extended", "lstat_extended", "fstat_extended"],
    "fsync": ["fsync"],
    "atomicity": ["exchangedata"],
}

# Darwin-only call -> replacement call name per target family.  The
# replacement must exist in the registry for the target platform.
_METADATA_MAP = {
    "getattrlist": "stat",
    "setattrlist": "utimes",
    "fgetattrlist": "fstat",
    "fsetattrlist": "fchmod",
    "getattrlistbulk": "getdents",
    "getdirentriesattr": "getdents",
    "getdirentries64": "getdents",
    "stat_extended": "stat",
    "lstat_extended": "lstat",
    "fstat_extended": "fstat",
    "stat64": "stat",
    "lstat64": "lstat",
    "fstat64": "fstat",
    "statfs64": "statfs",
    "fstatfs64": "fstatfs",
    "getfsstat64": "statfs",
}

_TARGET_GETDENTS = {
    "linux": "getdents64",
    "freebsd": "getdirentries",
    "darwin": "getdirentries64",
    "illumos": "getdents",
}

# fcntl hint commands per target.
_HINT_FCNTL = frozenset(["F_RDADVISE", "F_PREALLOCATE", "F_NOCACHE"])

#: The kinds whose emulation reads the call's arguments or the replay
#: options.  Every other call's steps are a function of ``(name,
#: target)`` alone -- :func:`native_step` -- which is what lets the
#: plan IR decide them once per call name instead of once per action.
ARG_EMULATED_KINDS = frozenset(["fsync", "fdatasync", "fcntl", "exchangedata"])


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
                return []  # no read-ahead hint on the target; ignore
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
        return [("fcntl", args)]

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

    native = native_step(name, target)
    return [(native, args)] if native is not None else []


def native_step(name, target):
    """The one call that replays ``name`` on ``target`` with its
    arguments passed through, or None where it has no analogue and is
    skipped.  Whole emulation of every kind outside
    :data:`ARG_EMULATED_KINDS`."""
    native = _native_name(name, target)
    if native is None:
        spec = spec_for(name)
        # Hint-like call with no analogue: skip.
        if spec.category in ("hint",):
            return None
        # Fall back to executing the semantic kind directly; the
        # executor dispatches on kind, so pick any registered name with
        # that kind available on the target.
        for candidate in _same_kind_names(spec.kind, target):
            return candidate
    return native


def _same_kind_names(kind, target):
    from repro.syscalls.registry import REGISTRY

    for name, spec in sorted(REGISTRY.items()):
        if spec.kind == kind and spec.available_on(target):
            yield name
