"""One executor for every registered call.

The same dispatch table runs system calls in two situations:

1. *Live workloads* being traced (args are real values); and
2. *Replay* of compiled benchmarks (fd/aiocb args already translated
   through the replay remap tables by the replayer).

Using a single code path guarantees that replayed calls have exactly
the semantics of traced calls.  Every handler is a generator returning
``(retval, errno)``.
"""

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


def flags_of(args):
    """The numeric open flags of a call (traces carry them as text)."""
    value = args.get("flags", 0)
    if isinstance(value, str):
        value = F.parse_flags(value)
    return value


# ----------------------------------------------------------------------
# handlers: (ctx, tid, args) -> generator -> (ret, err)
# ----------------------------------------------------------------------


def _h_open(ctx, tid, args):
    return ctx.fs.open(tid, args["path"], flags_of(args), args.get("mode", 0o644))


def _h_creat(ctx, tid, args):
    return ctx.fs.creat(tid, args["path"], args.get("mode", 0o644))


def _h_close(ctx, tid, args):
    return ctx.fs.close(tid, args["fd"])


def _h_read(ctx, tid, args):
    return ctx.fs.read(tid, args["fd"], args["nbytes"])


def _h_pread(ctx, tid, args):
    return ctx.fs.pread(tid, args["fd"], args["nbytes"], args["offset"])


def _h_write(ctx, tid, args):
    return ctx.fs.write(tid, args["fd"], args["nbytes"])


def _h_pwrite(ctx, tid, args):
    return ctx.fs.pwrite(tid, args["fd"], args["nbytes"], args["offset"])


def _h_lseek(ctx, tid, args):
    return ctx.fs.lseek(tid, args["fd"], args["offset"], args.get("whence", F.SEEK_SET))


def _h_fsync(ctx, tid, args):
    return ctx.fs.fsync(tid, args["fd"])


def _h_fdatasync(ctx, tid, args):
    return ctx.fs.fdatasync(tid, args["fd"])


def _h_sync(ctx, tid, args):
    return ctx.fs.sync(tid)


def _h_stat(ctx, tid, args):
    return ctx.fs.stat(tid, args["path"])


def _h_lstat(ctx, tid, args):
    return ctx.fs.lstat(tid, args["path"])


def _h_fstat(ctx, tid, args):
    return ctx.fs.fstat(tid, args["fd"])


def _h_access(ctx, tid, args):
    return ctx.fs.access(tid, args["path"], args.get("mode", 0))


def _h_readlink(ctx, tid, args):
    return ctx.fs.readlink(tid, args["path"])


def _h_statfs(ctx, tid, args):
    return ctx.fs.statfs(tid, args["path"])


def _h_fstatfs(ctx, tid, args):
    return ctx.fs.fstatfs(tid, args["fd"])


def _h_statfs_global(ctx, tid, args):
    return ctx.fs.statfs(tid, "/")


def _h_mkdir(ctx, tid, args):
    return ctx.fs.mkdir(tid, args["path"], args.get("mode", 0o755))


def _h_rmdir(ctx, tid, args):
    return ctx.fs.rmdir(tid, args["path"])


def _h_getdents(ctx, tid, args):
    return ctx.fs.getdents(tid, args["fd"])


def _h_unlink(ctx, tid, args):
    return ctx.fs.unlink(tid, args["path"])


def _h_rename(ctx, tid, args):
    return ctx.fs.rename(tid, args["old"], args["new"])


def _h_link(ctx, tid, args):
    return ctx.fs.link(tid, args["target"], args["path"])


def _h_symlink(ctx, tid, args):
    return ctx.fs.symlink(tid, args["target"], args["path"])


def _h_truncate(ctx, tid, args):
    return ctx.fs.truncate(tid, args["path"], args["length"])


def _h_ftruncate(ctx, tid, args):
    return ctx.fs.ftruncate(tid, args["fd"], args["length"])


def _h_chmod(ctx, tid, args):
    return ctx.fs.chmod(tid, args["path"], args.get("mode", 0o644))


def _h_fchmod(ctx, tid, args):
    return ctx.fs.fchmod(tid, args["fd"], args.get("mode", 0o644))


def _h_chown(ctx, tid, args):
    return ctx.fs.chown(tid, args["path"])


def _h_fchown(ctx, tid, args):
    return ctx.fs.futimes(tid, args["fd"])


def _h_utimes(ctx, tid, args):
    return ctx.fs.utimes(tid, args["path"])


def _h_futimes(ctx, tid, args):
    return ctx.fs.futimes(tid, args["fd"])


def _h_dup(ctx, tid, args):
    return ctx.fs.dup(tid, args["fd"])


def _h_dup2(ctx, tid, args):
    return ctx.fs.dup2(tid, args["fd"], args["newfd"])


def _h_flock(ctx, tid, args):
    return ctx.fs.flock(tid, args["fd"], args.get("op", 0))


def _h_fadvise(ctx, tid, args):
    return ctx.fs.fadvise(
        tid, args["fd"], args.get("offset", 0), args.get("length", 0)
    )


def _h_fallocate(ctx, tid, args):
    return ctx.fs.fallocate(tid, args["fd"], args.get("offset", 0), args["length"])


def _h_mmap(ctx, tid, args):
    return ctx.fs.mmap(tid, args.get("fd", -1), args.get("offset", 0), args["length"])


def _h_munmap(ctx, tid, args):
    return ctx.fs.munmap(tid, args.get("addr", 0), args.get("length", 0))


def _h_msync(ctx, tid, args):
    return ctx.fs.msync(tid, args.get("addr", 0), args.get("length", 0))


def _h_pipe(ctx, tid, args):
    return ctx.fs.pipe(tid)


def _h_shm_open(ctx, tid, args):
    return ctx.fs.shm_open(
        tid, args["name"], flags_of(args) or (F.O_RDWR | F.O_CREAT), args.get("mode", 0o600)
    )


def _h_shm_unlink(ctx, tid, args):
    return ctx.fs.shm_unlink(tid, args["name"])


def _h_chdir(ctx, tid, args):
    return ctx.fs.chdir(tid, args["path"])


def _h_fchdir(ctx, tid, args):
    return ctx.fs.fchdir(tid, args["fd"])


def _h_getcwd(ctx, tid, args):
    def _body():
        stack = ctx.fs.stack
        if not ctx.fs.engine.advance(stack.META_CPU):
            yield stack.meta_delay
        return "/", None

    return _body()


def _h_fcntl(ctx, tid, args):
    cmd = args.get("cmd", "F_GETFL")
    fd = args["fd"]
    fs = ctx.fs
    if cmd == "F_FULLFSYNC":
        return fs.full_fsync(tid, fd)
    if cmd in ("F_DUPFD", "F_DUPFD_CLOEXEC"):
        return fs.dup(tid, fd)
    if cmd == "F_PREALLOCATE":
        return fs.fallocate(tid, fd, 0, args.get("arg", 0) or 0)
    if cmd == "F_RDADVISE":
        return fs.fadvise(tid, fd, args.get("offset", 0), args.get("arg", 0) or 0)
    # F_NOCACHE, F_GETFL, F_SETFL, F_SETLK, F_GETLK, F_SETLKW, F_GETPATH,
    # F_GETFD, F_SETFD: validate the descriptor, succeed trivially.
    return fs.flock(tid, fd)


# --- Darwin attribute-list family -------------------------------------


def _h_getattrlist(ctx, tid, args):
    return ctx.fs.getattrlist(tid, args["path"])


def _h_setattrlist(ctx, tid, args):
    return ctx.fs.setattrlist(tid, args["path"])


def _h_fgetattrlist(ctx, tid, args):
    return ctx.fs.fstat(tid, args["fd"])


def _h_fsetattrlist(ctx, tid, args):
    return ctx.fs.futimes(tid, args["fd"])


def _h_getattrlistbulk(ctx, tid, args):
    return ctx.fs.getdents(tid, args["fd"])


def _h_getdirentriesattr(ctx, tid, args):
    return ctx.fs.getdents(tid, args["fd"])


def _h_exchangedata(ctx, tid, args):
    return ctx.fs.exchangedata(tid, args["path1"], args["path2"])


def _h_stat_extended(ctx, tid, args):
    return ctx.fs.stat(tid, args["path"])


def _h_lstat_extended(ctx, tid, args):
    return ctx.fs.lstat(tid, args["path"])


def _h_fstat_extended(ctx, tid, args):
    return ctx.fs.fstat(tid, args["fd"])


# --- xattrs ------------------------------------------------------------


def _h_getxattr(ctx, tid, args):
    return ctx.fs.getxattr(tid, args["path"], args["xname"])


def _h_lgetxattr(ctx, tid, args):
    return ctx.fs.getxattr(tid, args["path"], args["xname"], follow=False)


def _h_fgetxattr(ctx, tid, args):
    return ctx.fs.fgetxattr(tid, args["fd"], args["xname"])


def _h_setxattr(ctx, tid, args):
    return ctx.fs.setxattr(tid, args["path"], args["xname"], args.get("size", 16))


def _h_lsetxattr(ctx, tid, args):
    return ctx.fs.setxattr(
        tid, args["path"], args["xname"], args.get("size", 16), follow=False
    )


def _h_fsetxattr(ctx, tid, args):
    return ctx.fs.fsetxattr(tid, args["fd"], args["xname"], args.get("size", 16))


def _h_listxattr(ctx, tid, args):
    return ctx.fs.listxattr(tid, args["path"])


def _h_llistxattr(ctx, tid, args):
    return ctx.fs.listxattr(tid, args["path"], follow=False)


def _h_flistxattr(ctx, tid, args):
    return ctx.fs.flistxattr(tid, args["fd"])


def _h_removexattr(ctx, tid, args):
    return ctx.fs.removexattr(tid, args["path"], args["xname"])


def _h_lremovexattr(ctx, tid, args):
    return ctx.fs.removexattr(tid, args["path"], args["xname"], follow=False)


def _h_fremovexattr(ctx, tid, args):
    return ctx.fs.fremovexattr(tid, args["fd"], args["xname"])


# --- asynchronous I/O ---------------------------------------------------


def _h_aio_read(ctx, tid, args):
    return ctx.fs.aio_submit(
        tid, args["aiocb"], args["fd"], args["nbytes"], args.get("offset", 0), False
    )


def _h_aio_write(ctx, tid, args):
    return ctx.fs.aio_submit(
        tid, args["aiocb"], args["fd"], args["nbytes"], args.get("offset", 0), True
    )


def _h_aio_error(ctx, tid, args):
    return ctx.fs.aio_error(tid, args["aiocb"])


def _h_aio_return(ctx, tid, args):
    return ctx.fs.aio_return(tid, args["aiocb"])


def _h_aio_suspend(ctx, tid, args):
    return ctx.fs.aio_suspend(tid, args["aiocbs"])


def _h_aio_cancel(ctx, tid, args):
    return ctx.fs.aio_error(tid, args["aiocb"])


def _h_lio_listio(ctx, tid, args):
    # Arguments are unpacked eagerly so a malformed op dict fails at
    # handler-construction time, where perform() converts the KeyError
    # into a ReplayError with call context.
    ops = [
        (op["aiocb"], op["fd"], op["nbytes"], op.get("offset", 0),
         op.get("is_write", False))
        for op in args.get("ops", [])
    ]

    def _body():
        for aiocb, fd, nbytes, offset, is_write in ops:
            ret, err = yield from ctx.fs.aio_submit(
                tid, aiocb, fd, nbytes, offset, is_write
            )
            if err is not None:
                return ret, err
        return 0, None

    return _body()


HANDLERS = {
    "open": _h_open,
    "creat": _h_creat,
    "close": _h_close,
    "read": _h_read,
    "pread": _h_pread,
    "write": _h_write,
    "pwrite": _h_pwrite,
    "lseek": _h_lseek,
    "fsync": _h_fsync,
    "fdatasync": _h_fdatasync,
    "sync": _h_sync,
    "stat": _h_stat,
    "lstat": _h_lstat,
    "fstat": _h_fstat,
    "access": _h_access,
    "readlink": _h_readlink,
    "statfs": _h_statfs,
    "fstatfs": _h_fstatfs,
    "statfs_global": _h_statfs_global,
    "mkdir": _h_mkdir,
    "rmdir": _h_rmdir,
    "getdents": _h_getdents,
    "unlink": _h_unlink,
    "rename": _h_rename,
    "link": _h_link,
    "symlink": _h_symlink,
    "truncate": _h_truncate,
    "ftruncate": _h_ftruncate,
    "chmod": _h_chmod,
    "fchmod": _h_fchmod,
    "chown": _h_chown,
    "fchown": _h_fchown,
    "utimes": _h_utimes,
    "futimes": _h_futimes,
    "dup": _h_dup,
    "dup2": _h_dup2,
    "fcntl": _h_fcntl,
    "flock": _h_flock,
    "fadvise": _h_fadvise,
    "fallocate": _h_fallocate,
    "mmap": _h_mmap,
    "munmap": _h_munmap,
    "msync": _h_msync,
    "pipe": _h_pipe,
    "shm_open": _h_shm_open,
    "shm_unlink": _h_shm_unlink,
    "chdir": _h_chdir,
    "fchdir": _h_fchdir,
    "getcwd": _h_getcwd,
    "getattrlist": _h_getattrlist,
    "setattrlist": _h_setattrlist,
    "fgetattrlist": _h_fgetattrlist,
    "fsetattrlist": _h_fsetattrlist,
    "getattrlistbulk": _h_getattrlistbulk,
    "getdirentriesattr": _h_getdirentriesattr,
    "exchangedata": _h_exchangedata,
    "stat_extended": _h_stat_extended,
    "lstat_extended": _h_lstat_extended,
    "fstat_extended": _h_fstat_extended,
    "getxattr": _h_getxattr,
    "lgetxattr": _h_lgetxattr,
    "fgetxattr": _h_fgetxattr,
    "setxattr": _h_setxattr,
    "lsetxattr": _h_lsetxattr,
    "fsetxattr": _h_fsetxattr,
    "listxattr": _h_listxattr,
    "llistxattr": _h_llistxattr,
    "flistxattr": _h_flistxattr,
    "removexattr": _h_removexattr,
    "lremovexattr": _h_lremovexattr,
    "fremovexattr": _h_fremovexattr,
    "aio_read": _h_aio_read,
    "aio_write": _h_aio_write,
    "aio_error": _h_aio_error,
    "aio_return": _h_aio_return,
    "aio_suspend": _h_aio_suspend,
    "aio_cancel": _h_aio_cancel,
    "lio_listio": _h_lio_listio,
}


#: The kinds whose replayed return value is compared with the trace's
#: (a short read is a divergence; every other call only has to succeed).
READ_KINDS = frozenset(["read", "pread"])


class _RecordingFS(object):
    """The ``ctx.fs`` stand-in :func:`bind` runs a shim against: every
    method returns (and logs) the call made on it instead of a
    generator."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, method):
        def record(*argv, **kwargs):
            call = (method, argv, kwargs)
            self.calls.append(call)
            return call

        return record


_TID = object()  # the thread id bind() hands a shim


def bind(handler, args):
    """What ``handler(ctx, tid, args)`` resolves to when it is a plain
    delegate: ``(method, argv, kwargs)`` such that the shim returns
    ``ctx.fs.<method>(tid, *argv, **kwargs)`` -- found by running the
    shim itself once against a recording ``fs``, so a specializer (the
    JIT) never restates a shim.  Values in ``argv`` are the very objects
    the shim read out of ``args``, so a caller can trace one argument
    through by identity.

    ``None`` when there is no such call to name: the shim builds its own
    generator, or it raised while binding -- the caller must then invoke
    the handler itself, so a malformed record surfaces at replay time
    exactly as :func:`perform` surfaces it.
    """
    fs = _RecordingFS()
    try:
        result = handler(ExecContext(fs), _TID, args)
    except Exception:
        return None
    if len(fs.calls) != 1 or result is not fs.calls[0]:
        return None
    method, argv, kwargs = result
    if not argv or argv[0] is not _TID:
        return None
    return method, argv[1:], kwargs


def missing_argument(name, kind, exc, args):
    """The error for a handler whose eager argument binding hit a
    missing key -- one text for every replay path that binds eagerly
    (here, the precompiled kernel, the JIT's generated code)."""
    return ReplayError(
        "syscall %s (kind %s) is missing argument %s; got %r"
        % (name, kind, exc, sorted(args))
    )


def perform(ctx, tid, name, args):
    """Execute call ``name`` with normalized ``args``; a generator
    returning ``(retval, errno)``.

    Handlers bind their arguments eagerly (before the returned
    generator first runs), so a malformed record -- a missing ``path``,
    ``fd``, ``nbytes``, ... -- surfaces here as a :class:`ReplayError`
    naming the call, never as a bare ``KeyError`` escaping the replay.
    """
    spec = spec_for(name)
    handler = HANDLERS.get(spec.kind)
    if handler is None:
        raise ReplayError("no handler for syscall kind %r (%s)" % (spec.kind, name))
    try:
        return handler(ctx, tid, args)
    except KeyError as exc:
        raise missing_argument(name, spec.kind, exc, args)
