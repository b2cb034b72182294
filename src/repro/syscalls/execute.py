"""One call table for every registered call.

Which file-system call a system call makes, with which values, is
stated once, as data: :data:`HANDLERS` maps each registry kind to the
:class:`~repro.vfs.filesystem.FileSystem` method it runs and where that
method's arguments come from in the normalized argument dict.
:func:`bind` reads the table -- ``(method, argv, kwargs)`` -- and
:func:`perform` makes the call.  The same table serves two situations:

1. *Live workloads* being traced (args are real values); and
2. *Replay* of compiled benchmarks (fd/aiocb args already translated
   through the replay remap tables by the replayer).

Using a single table guarantees that replayed calls have exactly the
semantics of traced calls.  Every consumer reads it: the tracer and the
dynamic replay kernel through :func:`perform`, abstract replay the same
way on a null machine, and the execution-plan IR
(:mod:`repro.artc.planir`) binds each step once when a plan entry is
built, so the precompiled kernel calls the file system directly and the
JIT writes the bound call out as source.  Every bound method is the
op's own generator: it returns ``(retval, None)`` or raises one of
``FileSystem.FAILURES``, which the driver running it converts with
``FileSystem.failed`` into ``(-1, errno)``.
"""

from collections import namedtuple

from repro.errors import ReplayError
from repro.syscalls.registry import spec_for
from repro.vfs import flags as F


class ExecContext(object):
    """Execution state shared across one run (trace or replay).

    ``fd_map``/``aio_map`` translate trace-time resource names (keyed
    by ``(name, generation)``) to runtime values; they stay empty for
    live workloads, which pass real descriptors.
    """

    def __init__(self, fs):
        self.fs = fs
        self.fd_map = {}
        self.aio_map = {}


def flags_of(args, default=0):
    """The numeric open flags of a call (traces carry them as text);
    ``default`` when the call names none."""
    value = args.get("flags", default)
    if isinstance(value, str):
        value = F.parse_flags(value)
    return value


# ----------------------------------------------------------------------
# the call table: kind -> row
# ----------------------------------------------------------------------

#: A data row: the ``FileSystem`` method, its parameters in call order
#: (after the thread id), and constant keywords.  A parameter is a
#: required argument name, an optional ``(name, default)`` pair -- the
#: default applies when the key is *absent*, never when the value is
#: falsy -- a :class:`Flags` or a :class:`Const`.
Row = namedtuple("Row", "method params kwargs")

#: The open-flags parameter: ``args["flags"]`` as a flag word
#: (:func:`flags_of`), ``default`` when the key is absent.
Flags = namedtuple("Flags", "default")

#: A parameter that is the same value in every call of the kind.
Const = namedtuple("Const", "value")


def row(method, *params, **kwargs):
    """``row("getxattr", "path", "xname", follow=False)``: a :class:`Row`."""
    return Row(method, params, kwargs)


# The two rows that are functions ``args -> (method, argv, kwargs)``:
# what they call depends on more than which keys are present.


def _fcntl(args):
    cmd = args.get("cmd", "F_GETFL")
    fd = args["fd"]
    if cmd == "F_FULLFSYNC":
        return "full_fsync", (fd,), {}
    if cmd in ("F_DUPFD", "F_DUPFD_CLOEXEC"):
        return "dup", (fd,), {}
    if cmd == "F_PREALLOCATE":
        return "fallocate", (fd, 0, args.get("arg", 0) or 0), {}
    if cmd == "F_RDADVISE":
        return "fadvise", (fd, args.get("offset", 0), args.get("arg", 0) or 0), {}
    # F_NOCACHE, F_GETFL, F_SETFL, F_SETLK, F_GETLK, F_SETLKW, F_GETPATH,
    # F_GETFD, F_SETFD: validate the descriptor, succeed trivially.
    return "flock", (fd,), {}


def _fcntl_around_fd(args):
    method, argv, kwargs = _fcntl(args)
    return method, (), argv[1:], kwargs  # every branch passes the fd first


def _lio_listio(args):
    # The op dicts are unpacked here, so a malformed one fails the bind
    # (a ReplayError with call context out of perform()), not the call.
    ops = tuple(
        (op["aiocb"], op["fd"], op["nbytes"], op.get("offset", 0),
         op.get("is_write", False))
        for op in args.get("ops", ())
    )
    return "lio_listio", (ops,), {}


HANDLERS = {
    "open": row("open", "path", Flags(0), ("mode", 0o644)),
    "creat": row("creat", "path", ("mode", 0o644)),
    "close": row("close", "fd"),
    "read": row("read", "fd", "nbytes"),
    "pread": row("pread", "fd", "nbytes", "offset"),
    "write": row("write", "fd", "nbytes"),
    "pwrite": row("pwrite", "fd", "nbytes", "offset"),
    "lseek": row("lseek", "fd", "offset", ("whence", F.SEEK_SET)),
    "fsync": row("fsync", "fd"),
    "fdatasync": row("fdatasync", "fd"),
    "sync": row("sync"),
    "stat": row("stat", "path"),
    "lstat": row("lstat", "path"),
    "fstat": row("fstat", "fd"),
    "access": row("access", "path", ("mode", 0)),
    "readlink": row("readlink", "path"),
    "statfs": row("statfs", "path"),
    "fstatfs": row("fstatfs", "fd"),
    "statfs_global": row("statfs", Const("/")),
    "mkdir": row("mkdir", "path", ("mode", 0o755)),
    "rmdir": row("rmdir", "path"),
    "getdents": row("getdents", "fd"),
    "unlink": row("unlink", "path"),
    "rename": row("rename", "old", "new"),
    "link": row("link", "target", "path"),
    "symlink": row("symlink", "target", "path"),
    "truncate": row("truncate", "path", "length"),
    "ftruncate": row("ftruncate", "fd", "length"),
    "chmod": row("chmod", "path", ("mode", 0o644)),
    "fchmod": row("fchmod", "fd", ("mode", 0o644)),
    "chown": row("chown", "path"),
    "fchown": row("futimes", "fd"),
    "utimes": row("utimes", "path"),
    "futimes": row("futimes", "fd"),
    "dup": row("dup", "fd"),
    "dup2": row("dup2", "fd", "newfd"),
    "fcntl": _fcntl,
    "flock": row("flock", "fd", ("op", 0)),
    "fadvise": row("fadvise", "fd", ("offset", 0), ("length", 0)),
    "fallocate": row("fallocate", "fd", ("offset", 0), "length"),
    "mmap": row("mmap", ("fd", -1), ("offset", 0), "length"),
    "munmap": row("munmap", ("addr", 0), ("length", 0)),
    "msync": row("msync", ("addr", 0), ("length", 0)),
    "pipe": row("pipe"),
    "shm_open": row("shm_open", "name", Flags(F.O_RDWR | F.O_CREAT), ("mode", 0o600)),
    "shm_unlink": row("shm_unlink", "name"),
    "chdir": row("chdir", "path"),
    "fchdir": row("fchdir", "fd"),
    "getcwd": row("getcwd"),
    # --- Darwin attribute-list family ---------------------------------
    "getattrlist": row("getattrlist", "path"),
    "setattrlist": row("setattrlist", "path"),
    "fgetattrlist": row("fstat", "fd"),
    "fsetattrlist": row("futimes", "fd"),
    "getattrlistbulk": row("getdents", "fd"),
    "getdirentriesattr": row("getdents", "fd"),
    "exchangedata": row("exchangedata", "path1", "path2"),
    "stat_extended": row("stat", "path"),
    "lstat_extended": row("lstat", "path"),
    "fstat_extended": row("fstat", "fd"),
    # --- xattrs --------------------------------------------------------
    "getxattr": row("getxattr", "path", "xname"),
    "lgetxattr": row("getxattr", "path", "xname", follow=False),
    "fgetxattr": row("fgetxattr", "fd", "xname"),
    "setxattr": row("setxattr", "path", "xname", ("size", 16)),
    "lsetxattr": row("setxattr", "path", "xname", ("size", 16), follow=False),
    "fsetxattr": row("fsetxattr", "fd", "xname", ("size", 16)),
    "listxattr": row("listxattr", "path"),
    "llistxattr": row("listxattr", "path", follow=False),
    "flistxattr": row("flistxattr", "fd"),
    "removexattr": row("removexattr", "path", "xname"),
    "lremovexattr": row("removexattr", "path", "xname", follow=False),
    "fremovexattr": row("fremovexattr", "fd", "xname"),
    # --- asynchronous I/O ----------------------------------------------
    "aio_read": row("aio_submit", "aiocb", "fd", "nbytes", ("offset", 0), Const(False)),
    "aio_write": row("aio_submit", "aiocb", "fd", "nbytes", ("offset", 0), Const(True)),
    "aio_error": row("aio_error", "aiocb"),
    "aio_return": row("aio_return", "aiocb"),
    "aio_suspend": row("aio_suspend", "aiocbs"),
    "aio_cancel": row("aio_error", "aiocb"),
    "lio_listio": _lio_listio,
}


#: The kinds whose replayed return value is compared with the trace's
#: (a short read is a divergence; every other call only has to succeed).
READ_KINDS = frozenset(["read", "pread"])


def _compile(table):
    """The table's two binder maps: kind -> ``args -> (method, argv,
    kwargs)`` and, for the kinds that pass a top-level ``fd`` on, kind
    -> ``args -> (method, head, tail, kwargs)`` with ``argv`` split
    around it.  A data row becomes one expression in one frame -- what
    an argument-unpacking shim would cost -- because every plan entry
    built (artifact save and load, each ``--follow`` feed) binds once."""
    whole, around_fd = {}, {}
    for kind, entry in table.items():
        if not isinstance(entry, Row):
            whole[kind] = entry
            continue
        terms, fd_at = [], None
        for param in entry.params:
            if isinstance(param, str):
                terms.append("args[%r], " % param)
            elif isinstance(param, Flags):
                terms.append("flags_of(args, %r), " % param.default)
            elif isinstance(param, Const):
                terms.append("%r, " % (param.value,))
            else:
                terms.append("args.get(%r, %r), " % param)
            if param == "fd" or (type(param) is tuple and param[0] == "fd"):
                fd_at = len(terms) - 1
        scope = {"method": entry.method, "kwargs": entry.kwargs, "flags_of": flags_of}
        whole[kind] = eval(
            "lambda args: (method, (%s), kwargs)" % "".join(terms), scope
        )
        if fd_at is not None:
            around_fd[kind] = eval(
                "lambda args: (method, (%s), (%s), kwargs)"
                % ("".join(terms[:fd_at]), "".join(terms[fd_at + 1:])),
                scope,
            )
    return whole, around_fd


#: The compiled table: kind -> binder.  ``BIND[kind](args)`` is
#: :func:`bind`; ``BIND_AROUND_FD[kind](args)`` is the same call with
#: ``argv`` split around its top-level ``fd`` argument -- ``(method,
#: head, tail, kwargs)``, to be run as ``fs.<method>(tid, *head, fd,
#: *tail, **kwargs)`` -- for a caller that supplies the descriptor at
#: issue time (the plan IR's fd remap); a kind that passes no ``fd`` on
#: is absent from it.
BIND, BIND_AROUND_FD = _compile(HANDLERS)
BIND_AROUND_FD["fcntl"] = _fcntl_around_fd  # a function row splits itself


def bind(kind, args):
    """The call a system call of ``kind`` with normalized ``args``
    makes: ``(method, argv, kwargs)``, to be run as
    ``fs.<method>(tid, *argv, **kwargs)``.  Values in ``argv`` are the
    very objects held by ``args``.  Raises ``KeyError`` naming a
    required argument that is missing."""
    return BIND[kind](args)


def perform(ctx, tid, name, args):
    """Execute call ``name`` with normalized ``args``: the bound op's
    own generator, which returns ``(retval, None)`` or raises one of
    ``FileSystem.FAILURES`` for the caller to convert.

    Arguments bind eagerly (before the returned generator first runs),
    so a malformed record -- a missing ``path``, ``fd``, ``nbytes``,
    ... -- surfaces here as a :class:`ReplayError` naming the call,
    never as a bare ``KeyError`` escaping the replay.  This is the one
    place that happens: a plan entry whose step does not bind is
    compiled ``dynamic`` and so arrives here too.
    """
    kind = spec_for(name).kind
    try:
        method, argv, kwargs = BIND[kind](args)
    except KeyError as exc:
        if kind not in HANDLERS:
            raise ReplayError(
                "no handler for syscall kind %r (%s)" % (kind, name)
            ) from None
        raise ReplayError(
            "syscall %s (kind %s) is missing argument %s; got %r"
            % (name, kind, exc, sorted(args))
        ) from exc
    return getattr(ctx.fs, method)(tid, *argv, **kwargs)
