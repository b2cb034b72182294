"""The system-call registry: one row per call kind.

A *kind* is the semantic key many call names share (``pread64`` and
``pread_nocancel`` are both ``pread``).  Everything the system knows
about a kind is stated once, in its row of :data:`_TABLE`:

- its **names** and the platforms where each exists natively; replaying
  a trace on a platform outside the set goes through the emulation
  layer;
- its **args**: the normalized argument names, in the order the strace
  and iBench parsers and the stream digest read them; a name whose
  layout differs carries its own (``readahead`` has no ``advice``);
- its Figure-10 **category** (thread-time bucket);
- its **binding**: the :class:`~repro.vfs.filesystem.FileSystem` call it
  makes, a :class:`Row` or a function ``args -> (method, argv,
  kwargs)``, compiled by :mod:`repro.syscalls.execute`;
- its **touch rule**: the :class:`~repro.core.fsstate.FsState` method
  that says which resources it touches -- :data:`OWN` (the kind's
  ``_k_<kind>``), a shared rule (:data:`FD_OP`, :data:`PATH_READ`,
  :data:`PATH_READ_NOFOLLOW`), another kind whose rule it shares, or
  None for thread ordering only;
- ``reads``: its replayed return value is compared with the trace's (a
  short read is a divergence; every other call only has to succeed);
- ``performs``: the compiler's model performs it on the null machine
  when the trace saw it succeed -- it changes the namespace, the
  descriptor table or the cwd;
- ``mutates``: the resource kinds (:mod:`repro.core.resources`) whose
  replay-visible state a USE touch of it changes, which is what makes
  an unordered pair a race (:mod:`repro.lint.conflicts`).

:data:`REGISTRY` maps each name to its :class:`SyscallSpec`, which
carries the row.  The registry knows 90+ calls, matching ARTC's "over
80 different system calls".
"""

from collections import namedtuple

from repro.errors import UnsupportedSyscallError
from repro.vfs import flags as F

ALL = frozenset(["linux", "darwin", "freebsd", "illumos"])
LINUX = frozenset(["linux"])
DARWIN = frozenset(["darwin"])
BSDISH = frozenset(["darwin", "freebsd"])
NOT_DARWIN = frozenset(["linux", "freebsd", "illumos"])
LINUX_ILLUMOS = frozenset(["linux", "illumos"])

#: Touch rules: the kind's own ``FsState._k_<kind>``; the descriptor's
#: generation and its file; a path's generation, the walk's symlink
#: hops, parent and file, following or not following a final symlink.
OWN, FD_OP, PATH_READ, PATH_READ_NOFOLLOW = (
    "own", "fd_op", "path_read", "path_read_nofollow")

#: Resource kinds a touch can mutate (as :mod:`repro.core.resources`
#: names them).
FILE, FD, AIOCB = "file", "fd", "aiocb"


class SyscallSpec(object):
    __slots__ = ("name", "kind", "category", "platforms", "args",
                 "binding", "rule", "reads", "performs", "mutates")

    def __init__(self, name, kind, category, platforms, args, binding, rule,
                 reads, performs, mutates):
        self.name = name
        self.kind = kind
        self.category = category
        self.platforms = platforms
        self.args = args
        self.binding = binding
        self.rule = rule
        self.reads = reads
        self.performs = performs
        self.mutates = mutates

    def available_on(self, platform):
        return platform in self.platforms

    def __repr__(self):
        return "<SyscallSpec %s kind=%s>" % (self.name, self.kind)


# ----------------------------------------------------------------------
# bindings: which FileSystem call a kind makes, with which values
# ----------------------------------------------------------------------

#: A data binding: the ``FileSystem`` method, its parameters in call
#: order (after the thread id), and constant keywords.  A parameter is a
#: required argument name, an optional ``(name, default)`` pair -- the
#: default applies when the key is *absent*, never when the value is
#: falsy -- a :class:`Flags` or a :class:`Const`.
Row = namedtuple("Row", "method params kwargs")

#: The open-flags parameter: ``args["flags"]`` as a flag word,
#: ``default`` when the key is absent.
Flags = namedtuple("Flags", "default")

#: A parameter that is the same value in every call of the kind.
Const = namedtuple("Const", "value")


def row(method, *params, **kwargs):
    """``row("getxattr", "path", "xname", follow=False)``: a :class:`Row`."""
    return Row(method, params, kwargs)


# The two bindings that are functions ``args -> (method, argv, kwargs)``:
# what they call depends on more than which keys are present.  One that
# takes a descriptor passes it first.


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


def _lio_listio(args):
    # The op dicts are unpacked here, so a malformed one fails the bind
    # (a ReplayError with call context out of perform()), not the call.
    ops = tuple(
        (op["aiocb"], op["fd"], op["nbytes"], op.get("offset", 0),
         op.get("is_write", False))
        for op in args.get("ops", ())
    )
    return "lio_listio", (ops,), {}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------


def _kind(kind, category, binding, rule, args, names, reads=False,
          performs=False, mutates=()):
    """One row: the :class:`SyscallSpec` of each ``(name, platforms)``
    or ``(name, platforms, own_args)`` in ``names``."""
    return [
        SyscallSpec(name, kind, category, platforms,
                    tuple(own[0] if own else args), binding, rule, reads,
                    performs, frozenset(mutates))
        for name, platforms, *own in names
    ]


_TABLE = [
    # --- open/close --------------------------------------------------
    _kind("open", "open", row("open", "path", Flags(0), ("mode", 0o644)), OWN,
          ["path", "flags", "mode"],
          [("open", ALL), ("open64", LINUX), ("openat", ALL), ("open_nocancel", DARWIN),
           ("open_extended", DARWIN), ("guarded_open_np", DARWIN)], performs=True),
    _kind("creat", "open", row("creat", "path", ("mode", 0o644)), OWN,
          ["path", "mode"], [("creat", ALL)], performs=True, mutates=[FILE]),
    _kind("close", "close", row("close", "fd"), OWN, ["fd"],
          [("close", ALL), ("close_nocancel", DARWIN), ("guarded_close_np", DARWIN)],
          performs=True),
    # --- data transfer ----------------------------------------------
    _kind("read", "read", row("read", "fd", "nbytes"), OWN, ["fd", "nbytes"],
          [("read", ALL), ("read_nocancel", DARWIN), ("readv", ALL)],
          reads=True, mutates=[FD]),
    _kind("pread", "read", row("pread", "fd", "nbytes", "offset"), OWN,
          ["fd", "nbytes", "offset"],
          [("pread", ALL), ("pread64", LINUX), ("pread_nocancel", DARWIN), ("preadv", ALL)],
          reads=True),
    _kind("write", "write", row("write", "fd", "nbytes"), OWN, ["fd", "nbytes"],
          [("write", ALL), ("write_nocancel", DARWIN), ("writev", ALL)],
          mutates=[FILE, FD]),
    _kind("pwrite", "write", row("pwrite", "fd", "nbytes", "offset"), OWN,
          ["fd", "nbytes", "offset"],
          [("pwrite", ALL), ("pwrite64", LINUX), ("pwrite_nocancel", DARWIN),
           ("pwritev", ALL)], mutates=[FILE]),
    _kind("lseek", "other", row("lseek", "fd", "offset", ("whence", F.SEEK_SET)), OWN,
          ["fd", "offset", "whence"], [("lseek", ALL), ("_llseek", LINUX)], mutates=[FD]),
    # --- durability --------------------------------------------------
    _kind("fsync", "fsync", row("fsync", "fd"), FD_OP, ["fd"],
          [("fsync", ALL), ("fsync_nocancel", DARWIN)]),
    _kind("fdatasync", "fsync", row("fdatasync", "fd"), FD_OP, ["fd"],
          [("fdatasync", NOT_DARWIN), ("sync_file_range", LINUX)]),
    _kind("sync", "fsync", row("sync"), None, [], [("sync", ALL)]),
    # --- metadata reads ----------------------------------------------
    _kind("stat", "stat", row("stat", "path"), PATH_READ, ["path"],
          [("stat", ALL), ("stat64", BSDISH | LINUX), ("fstatat", ALL),
           ("newfstatat", LINUX)]),
    _kind("lstat", "stat", row("lstat", "path"), PATH_READ_NOFOLLOW, ["path"],
          [("lstat", ALL), ("lstat64", BSDISH | LINUX)]),
    _kind("fstat", "stat", row("fstat", "fd"), FD_OP, ["fd"],
          [("fstat", ALL), ("fstat64", BSDISH | LINUX)]),
    _kind("stat_extended", "stat", row("stat", "path"), PATH_READ, ["path"],
          [("stat_extended", DARWIN)]),
    _kind("lstat_extended", "stat", row("lstat", "path"), PATH_READ_NOFOLLOW, ["path"],
          [("lstat_extended", DARWIN)]),
    _kind("fstat_extended", "stat", row("fstat", "fd"), FD_OP, ["fd"],
          [("fstat_extended", DARWIN)]),
    _kind("access", "stat", row("access", "path", ("mode", 0)), PATH_READ,
          ["path", "mode"], [("access", ALL), ("faccessat", ALL)]),
    _kind("readlink", "stat", row("readlink", "path"), PATH_READ_NOFOLLOW, ["path"],
          [("readlink", ALL), ("readlinkat", ALL)]),
    _kind("statfs", "stat", row("statfs", "path"), PATH_READ, ["path"],
          [("statfs", ALL), ("statfs64", BSDISH | LINUX)]),
    _kind("fstatfs", "stat", row("fstatfs", "fd"), FD_OP, ["fd"],
          [("fstatfs", ALL), ("fstatfs64", BSDISH | LINUX)]),
    _kind("statfs_global", "stat", row("statfs", Const("/")), None, [],
          [("getfsstat64", DARWIN)]),
    # --- directories -------------------------------------------------
    _kind("mkdir", "meta", row("mkdir", "path", ("mode", 0o755)), OWN, ["path", "mode"],
          [("mkdir", ALL), ("mkdirat", ALL)], performs=True, mutates=[FILE]),
    _kind("rmdir", "meta", row("rmdir", "path"), "unlink", ["path"], [("rmdir", ALL)],
          performs=True, mutates=[FILE]),
    _kind("getdents", "dir", row("getdents", "fd"), FD_OP, ["fd"],
          [("getdents", LINUX), ("getdents64", LINUX), ("getdirentries", BSDISH),
           ("getdirentries64", DARWIN)], mutates=[FD]),
    _kind("getdirentriesattr", "dir", row("getdents", "fd"), FD_OP, ["fd"],
          [("getdirentriesattr", DARWIN)], mutates=[FD]),
    # --- namespace ---------------------------------------------------
    _kind("unlink", "meta", row("unlink", "path"), OWN, ["path"],
          [("unlink", ALL), ("unlinkat", ALL)], performs=True, mutates=[FILE]),
    _kind("rename", "meta", row("rename", "old", "new"), OWN, ["old", "new"],
          [("rename", ALL), ("renameat", ALL)], performs=True, mutates=[FILE]),
    _kind("link", "meta", row("link", "target", "path"), OWN, ["target", "path"],
          [("link", ALL), ("linkat", ALL)], performs=True, mutates=[FILE]),
    _kind("symlink", "meta", row("symlink", "target", "path"), "mkdir", ["target", "path"],
          [("symlink", ALL), ("symlinkat", ALL)], performs=True, mutates=[FILE]),
    _kind("truncate", "write", row("truncate", "path", "length"), OWN, ["path", "length"],
          [("truncate", ALL), ("truncate64", LINUX)], mutates=[FILE]),
    _kind("ftruncate", "write", row("ftruncate", "fd", "length"), OWN, ["fd", "length"],
          [("ftruncate", ALL), ("ftruncate64", LINUX)], mutates=[FILE]),
    # --- attribute writes --------------------------------------------
    _kind("chmod", "meta", row("chmod", "path", ("mode", 0o644)), PATH_READ,
          ["path", "mode"], [("chmod", ALL), ("chmod_extended", DARWIN), ("fchmodat", ALL)],
          mutates=[FILE]),
    _kind("fchmod", "meta", row("fchmod", "fd", ("mode", 0o644)), FD_OP, ["fd", "mode"],
          [("fchmod", ALL)], mutates=[FILE]),
    _kind("chown", "meta", row("chown", "path"), PATH_READ, ["path"],
          [("chown", ALL), ("lchown", ALL), ("fchownat", ALL)], mutates=[FILE]),
    _kind("fchown", "meta", row("futimes", "fd"), FD_OP, ["fd"], [("fchown", ALL)],
          mutates=[FILE]),
    _kind("utimes", "meta", row("utimes", "path"), PATH_READ, ["path"],
          [("utimes", ALL), ("utimensat", LINUX)], mutates=[FILE]),
    _kind("futimes", "meta", row("futimes", "fd"), FD_OP, ["fd"], [("futimes", BSDISH)],
          mutates=[FILE]),
    # --- descriptors -------------------------------------------------
    _kind("dup", "other", row("dup", "fd"), OWN, ["fd"], [("dup", ALL)], performs=True),
    _kind("dup2", "other", row("dup2", "fd", "newfd"), OWN, ["fd", "newfd"],
          [("dup2", ALL), ("dup3", LINUX)], performs=True),
    _kind("fcntl", "other", _fcntl, OWN, ["fd", "cmd", "arg"],
          [("fcntl", ALL), ("fcntl_nocancel", DARWIN)], performs=True),
    _kind("flock", "other", row("flock", "fd", ("op", 0)), FD_OP, ["fd", "op"],
          [("flock", ALL)]),
    # --- hints and allocation ----------------------------------------
    # The paper's FreeBSD target lacked analogous hint APIs, so those
    # calls are ignored there (section 4.3.4).
    _kind("fadvise", "hint", row("fadvise", "fd", ("offset", 0), ("length", 0)), FD_OP,
          ["fd", "offset", "length"],
          [("posix_fadvise", LINUX_ILLUMOS, ["fd", "offset", "length", "advice"]),
           ("readahead", LINUX)]),
    _kind("fallocate", "hint", row("fallocate", "fd", ("offset", 0), "length"), OWN,
          ["fd", "offset", "length"], [("fallocate", LINUX), ("posix_fallocate", LINUX_ILLUMOS)],
          mutates=[FILE]),
    # --- memory mapping ----------------------------------------------
    _kind("mmap", "read", row("mmap", ("fd", -1), ("offset", 0), "length"), OWN,
          ["fd", "offset", "length"], [("mmap", ALL), ("mmap2", LINUX)]),
    _kind("munmap", "other", row("munmap", ("addr", 0), ("length", 0)), None,
          ["addr", "length"], [("munmap", ALL)]),
    _kind("msync", "fsync", row("msync", ("addr", 0), ("length", 0)), None,
          ["addr", "length"], [("msync", ALL)]),
    # --- pipes, shm, cwd ---------------------------------------------
    _kind("pipe", "other", row("pipe"), OWN, [], [("pipe", ALL), ("pipe2", LINUX)],
          performs=True),
    _kind("shm_open", "open",
          row("shm_open", "name", Flags(F.O_RDWR | F.O_CREAT), ("mode", 0o600)), OWN,
          ["name", "flags", "mode"], [("shm_open", ALL)], performs=True),
    _kind("shm_unlink", "meta", row("shm_unlink", "name"), OWN, ["name"],
          [("shm_unlink", ALL)], performs=True, mutates=[FILE]),
    _kind("chdir", "other", row("chdir", "path"), OWN, ["path"], [("chdir", ALL)],
          performs=True),
    _kind("fchdir", "other", row("fchdir", "fd"), OWN, ["fd"], [("fchdir", ALL)],
          performs=True),
    _kind("getcwd", "other", row("getcwd"), None, [], [("getcwd", ALL)]),
    # --- extended attributes (Linux spellings) -----------------------
    _kind("getxattr", "meta", row("getxattr", "path", "xname"), PATH_READ, ["path", "xname"],
          [("getxattr", LINUX | DARWIN)]),
    _kind("lgetxattr", "meta", row("getxattr", "path", "xname", follow=False),
          PATH_READ_NOFOLLOW, ["path", "xname"], [("lgetxattr", LINUX)]),
    _kind("fgetxattr", "meta", row("fgetxattr", "fd", "xname"), FD_OP, ["fd", "xname"],
          [("fgetxattr", LINUX | DARWIN)]),
    _kind("setxattr", "meta", row("setxattr", "path", "xname", ("size", 16)), PATH_READ,
          ["path", "xname", "size"], [("setxattr", LINUX | DARWIN)], mutates=[FILE]),
    _kind("lsetxattr", "meta", row("setxattr", "path", "xname", ("size", 16), follow=False),
          PATH_READ_NOFOLLOW, ["path", "xname", "size"], [("lsetxattr", LINUX)], mutates=[FILE]),
    _kind("fsetxattr", "meta", row("fsetxattr", "fd", "xname", ("size", 16)), FD_OP,
          ["fd", "xname", "size"], [("fsetxattr", LINUX | DARWIN)], mutates=[FILE]),
    _kind("listxattr", "meta", row("listxattr", "path"), PATH_READ, ["path"],
          [("listxattr", LINUX | DARWIN)]),
    _kind("llistxattr", "meta", row("listxattr", "path", follow=False),
          PATH_READ_NOFOLLOW, ["path"], [("llistxattr", LINUX)]),
    _kind("flistxattr", "meta", row("flistxattr", "fd"), FD_OP, ["fd"],
          [("flistxattr", LINUX | DARWIN)]),
    _kind("removexattr", "meta", row("removexattr", "path", "xname"), PATH_READ, ["path", "xname"],
          [("removexattr", LINUX | DARWIN)], mutates=[FILE]),
    _kind("lremovexattr", "meta", row("removexattr", "path", "xname", follow=False),
          PATH_READ_NOFOLLOW, ["path", "xname"], [("lremovexattr", LINUX)], mutates=[FILE]),
    _kind("fremovexattr", "meta", row("fremovexattr", "fd", "xname"), FD_OP, ["fd", "xname"],
          [("fremovexattr", LINUX | DARWIN)], mutates=[FILE]),
    # --- Darwin attribute-list family --------------------------------
    _kind("getattrlist", "stat", row("getattrlist", "path"), PATH_READ, ["path"],
          [("getattrlist", DARWIN)]),
    _kind("setattrlist", "meta", row("setattrlist", "path"), PATH_READ, ["path"],
          [("setattrlist", DARWIN)], mutates=[FILE]),
    _kind("fgetattrlist", "stat", row("fstat", "fd"), FD_OP, ["fd"],
          [("fgetattrlist", DARWIN)]),
    _kind("fsetattrlist", "meta", row("futimes", "fd"), FD_OP, ["fd"],
          [("fsetattrlist", DARWIN)], mutates=[FILE]),
    _kind("getattrlistbulk", "dir", row("getdents", "fd"), FD_OP, ["fd"],
          [("getattrlistbulk", DARWIN)], mutates=[FD]),
    _kind("exchangedata", "meta", row("exchangedata", "path1", "path2"), OWN,
          ["path1", "path2"], [("exchangedata", DARWIN)], mutates=[FILE]),
    # --- asynchronous I/O --------------------------------------------
    _kind("aio_read", "aio",
          row("aio_submit", "aiocb", "fd", "nbytes", ("offset", 0), Const(False)), OWN,
          ["aiocb", "fd", "nbytes", "offset"], [("aio_read", ALL)]),
    _kind("aio_write", "aio",
          row("aio_submit", "aiocb", "fd", "nbytes", ("offset", 0), Const(True)),
          "aio_read", ["aiocb", "fd", "nbytes", "offset"], [("aio_write", ALL)]),
    _kind("aio_error", "aio", row("aio_error", "aiocb"), OWN, ["aiocb"], [("aio_error", ALL)]),
    _kind("aio_return", "aio", row("aio_return", "aiocb"), OWN, ["aiocb"],
          [("aio_return", ALL)]),
    _kind("aio_suspend", "aio", row("aio_suspend", "aiocbs"), OWN, ["aiocbs"],
          [("aio_suspend", ALL)]),
    _kind("aio_cancel", "aio", row("aio_error", "aiocb"), "aio_error", ["aiocb"],
          [("aio_cancel", ALL)], mutates=[AIOCB]),
    _kind("lio_listio", "aio", _lio_listio, OWN, ["ops"], [("lio_listio", ALL)]),
]

REGISTRY = {spec.name: spec for specs in _TABLE for spec in specs}

#: Kind -> the spec of its row's first name; every per-kind field
#: (binding, rule, reads, performs, mutates) is the same on all its names.
KINDS = {specs[0].kind: specs[0] for specs in _TABLE}


def spec_for(name):
    """Look up a call by name, raising UnsupportedSyscallError if unknown."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnsupportedSyscallError(name) from None


#: Figure 10 buckets in display order.
CATEGORIES = [
    "read",
    "write",
    "open",
    "close",
    "fsync",
    "stat",
    "meta",
    "dir",
    "hint",
    "aio",
    "other",
]
