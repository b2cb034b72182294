"""The call table against the shims it replaced.

Until PR 20 ``repro.syscalls.execute`` held one ``_h_<kind>(ctx, tid,
args)`` function per kind: each unpacked the argument dict and returned
one ``ctx.fs`` method's generator.  They are now rows of a table
(``execute.HANDLERS``) that ``execute.bind`` reads.  The 78 functions
live on here, verbatim, as the reference: for every kind, every subset
of the argument names it knows, truthy and falsy values, the call the
row binds is the call the shim made -- same method, same values (by
identity) in the same positions, same keywords -- and a dict the shim
rejected with ``KeyError`` is rejected for the same key.  The two shims
that built their own generator (``getcwd``, ``lio_listio``) are compared
on a real file system instead: same result, same simulated time, same
requests accepted.

One difference is intended and listed: ``shm_open`` with ``O_RDONLY``
*named* (the flag word 0) used to fall through ``or`` to the absent-key
default ``O_RDWR | O_CREAT`` and create the segment.
"""

import itertools

import pytest

from repro.syscalls import execute
from repro.syscalls.registry import REGISTRY
from repro.vfs import flags as F
from tests.conftest import make_fs, run, syscall

# ----------------------------------------------------------------------
# the reference: repro/syscalls/execute.py at 05c34bd, lines 33-493
# ----------------------------------------------------------------------


def flags_of(args):
    """The numeric open flags of a call (traces carry them as text)."""
    value = args.get("flags", 0)
    if isinstance(value, str):
        value = F.parse_flags(value)
    return value


class ExecContext(object):
    """What a shim was called with: an object holding the run's file
    system."""

    def __init__(self, fs):
        self.fs = fs


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
            ret, err = yield from syscall(ctx.fs, ctx.fs.aio_submit(
                tid, aiocb, fd, nbytes, offset, is_write
            ))
            if err is not None:
                return ret, err
        return 0, None

    return _body()


SHIMS = {
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


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------

TID = object()

#: Argument names a shim reads beyond its registry layouts.
EXTRA_KEYS = {"fcntl": ("offset",)}

CLOSURE_SHIMS = ("getcwd", "lio_listio")

#: Values tried for the keys whose *value* a shim branches on; every
#: other key gets a unique marker object (so a value is traced into
#: its position by identity) and, in a second pass, the falsy ``0``.
BRANCH_VALUES = {
    "flags": ("O_RDWR|O_CREAT", "O_RDONLY", F.O_WRONLY, 0),
    "cmd": ("F_FULLFSYNC", "F_DUPFD", "F_DUPFD_CLOEXEC", "F_PREALLOCATE",
            "F_RDADVISE", "F_NOCACHE", "F_GETFL"),
    "arg": (65536, 0, None),
}


class RecordingFS(object):
    """The ``ctx.fs`` a shim is run against: every method logs the call
    made on it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, method):
        def record(*argv, **kwargs):
            self.calls.append((method, argv, kwargs))

        return record


def keys_of(kind):
    names = []
    for spec in REGISTRY.values():
        if spec.kind == kind:
            names.extend(name for name in spec.args if name not in names)
    return names + list(EXTRA_KEYS.get(kind, ()))


def argument_dicts(kind):
    """Every subset of the kind's argument names, with every
    combination of the branch values, markers and then zeros elsewhere."""
    keys = keys_of(kind)
    for size in range(len(keys) + 1):
        for present in itertools.combinations(keys, size):
            branching = [key for key in present if key in BRANCH_VALUES]
            for chosen in itertools.product(*(BRANCH_VALUES[k] for k in branching)):
                for plain in (lambda key: "<%s>" % key, lambda key: 0):
                    args = {key: plain(key) for key in present}
                    args.update(zip(branching, chosen))
                    yield args


def outcome(call):
    """``("call", method, argv, kwargs)`` or ``("missing", key)``."""
    try:
        return ("call",) + call()
    except KeyError as exc:
        return ("missing", exc.args[0])


def shim_call(kind, args):
    fs = RecordingFS()
    SHIMS[kind](ExecContext(fs), TID, args)
    (method, argv, kwargs), = fs.calls
    assert argv[0] is TID
    return method, argv[1:], kwargs


def same_values(old, new):
    """Equal outcomes, and argument values passed through by identity
    wherever the shim passed them through."""
    if old != new:
        return False
    if old[0] == "call":
        for was, now in zip(old[2], new[2]):
            if isinstance(was, str) and was.startswith("<") and was is not now:
                return False
    return True


def test_the_reference_is_the_whole_table():
    assert sorted(SHIMS) == sorted(execute.HANDLERS)
    assert len(SHIMS) == 78


@pytest.mark.parametrize("kind", sorted(set(SHIMS) - set(CLOSURE_SHIMS)))
def test_row_binds_what_the_shim_called(kind):
    tried = 0
    for args in argument_dicts(kind):
        old = outcome(lambda: shim_call(kind, args))
        new = outcome(lambda: execute.bind(kind, args))
        if (kind == "shm_open" and old[0] == "call" and "flags" in args
                and not flags_of(args)):
            # The listed difference: the shim created the segment.
            assert old[2][1] == F.O_RDWR | F.O_CREAT and new[2][1] == F.O_RDONLY
            old = old[:2] + (new[2][:2] + old[2][2:],) + old[3:]
        assert same_values(old, new), (args, old, new)
        tried += 1
    assert tried >= 2


def on_a_file_system(invoke):
    """``(result, simulated time, aio requests accepted)`` of one call
    on a fresh file system with ``/d/f`` open as descriptor 3."""
    fs = make_fs()
    fs.makedirs_now("/d")
    fs.create_file_now("/d/f", size=8192)
    assert run(fs, fs.open(1, "/d/f", F.O_RDWR)) == (3, None)
    result = run(fs, invoke(ExecContext(fs)))
    return result, fs.engine.now, sorted(fs._aiocbs)


def both_ways(kind, args):
    old = on_a_file_system(lambda ctx: SHIMS[kind](ctx, 1, args))
    new = on_a_file_system(lambda ctx: execute.perform(ctx.fs, 1, kind, args))
    assert old == new, (kind, args, old, new)
    return new


def test_getcwd_is_the_shims_generator():
    assert both_ways("getcwd", {})[0] == ("/", None)


def test_lio_listio_is_the_shims_loop():
    def op(aiocb, fd=3, **rest):
        return dict({"aiocb": aiocb, "fd": fd, "nbytes": 100}, **rest)

    assert both_ways("lio_listio", {})[0] == (0, None)
    assert both_ways("lio_listio", {"ops": []})[0] == (0, None)
    accepted = both_ways("lio_listio", {"ops": [
        op("a"), op("b", offset=4096, is_write=True)]})
    assert accepted[0] == (0, None) and accepted[2] == ["a", "b"]
    # The first refused request ends the list.
    refused = both_ways("lio_listio", {"ops": [op("a"), op("b", fd=9), op("c")]})
    assert refused[0] == (-1, "EBADF") and refused[2] == ["a"]
    # A malformed op dict fails the bind, before anything is submitted.
    for args in ({"ops": [op("a"), {"aiocb": "b", "fd": 3}]}, {"ops": [{"fd": 3}]}):
        ctx = ExecContext(RecordingFS())
        with pytest.raises(KeyError) as old:
            SHIMS["lio_listio"](ctx, 1, args)
        with pytest.raises(KeyError) as new:
            execute.bind("lio_listio", args)
        assert old.value.args == new.value.args
        assert ctx.fs.calls == []
