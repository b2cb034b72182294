"""The system-call registry.

Each entry maps a call name to:

- ``kind``: the semantic key shared by the executor's call table
  (:mod:`repro.syscalls.execute`: what the call does to the file system)
  and the ROOT resource extractor (:mod:`repro.core.fsstate`: which
  resources it touches; it performs the namespace-changing kinds through
  the same call table on the null machine).  Many names share one kind
  (``pread64`` and ``pread_nocancel`` are both ``pread``).
- ``category``: the Figure-10 thread-time bucket.
- ``platforms``: where the call exists natively; replaying a trace on a
  platform outside this set goes through the emulation layer.
- ``args``: documentation of the normalized argument names.

The registry knows 90+ calls, matching ARTC's "over 80 different
system calls".
"""

from repro.errors import UnsupportedSyscallError

ALL = frozenset(["linux", "darwin", "freebsd", "illumos"])
LINUX = frozenset(["linux"])
DARWIN = frozenset(["darwin"])
BSDISH = frozenset(["darwin", "freebsd"])
NOT_DARWIN = frozenset(["linux", "freebsd", "illumos"])


class SyscallSpec(object):
    __slots__ = ("name", "kind", "category", "platforms", "args")

    def __init__(self, name, kind, category, platforms, args):
        self.name = name
        self.kind = kind
        self.category = category
        self.platforms = platforms
        self.args = args

    def available_on(self, platform):
        return platform in self.platforms

    def __repr__(self):
        return "<SyscallSpec %s kind=%s>" % (self.name, self.kind)


def _spec(name, kind, category, platforms, args):
    return SyscallSpec(name, kind, category, platforms, tuple(args))


_TABLE = [
    # --- open/close --------------------------------------------------
    ("open", "open", "open", ALL, ["path", "flags", "mode"]),
    ("open64", "open", "open", LINUX, ["path", "flags", "mode"]),
    ("openat", "open", "open", ALL, ["path", "flags", "mode"]),
    ("open_nocancel", "open", "open", DARWIN, ["path", "flags", "mode"]),
    ("open_extended", "open", "open", DARWIN, ["path", "flags", "mode"]),
    ("guarded_open_np", "open", "open", DARWIN, ["path", "flags", "mode"]),
    ("creat", "creat", "open", ALL, ["path", "mode"]),
    ("close", "close", "close", ALL, ["fd"]),
    ("close_nocancel", "close", "close", DARWIN, ["fd"]),
    ("guarded_close_np", "close", "close", DARWIN, ["fd"]),
    # --- data transfer ----------------------------------------------
    ("read", "read", "read", ALL, ["fd", "nbytes"]),
    ("read_nocancel", "read", "read", DARWIN, ["fd", "nbytes"]),
    ("readv", "read", "read", ALL, ["fd", "nbytes"]),
    ("pread", "pread", "read", ALL, ["fd", "nbytes", "offset"]),
    ("pread64", "pread", "read", LINUX, ["fd", "nbytes", "offset"]),
    ("pread_nocancel", "pread", "read", DARWIN, ["fd", "nbytes", "offset"]),
    ("preadv", "pread", "read", ALL, ["fd", "nbytes", "offset"]),
    ("write", "write", "write", ALL, ["fd", "nbytes"]),
    ("write_nocancel", "write", "write", DARWIN, ["fd", "nbytes"]),
    ("writev", "write", "write", ALL, ["fd", "nbytes"]),
    ("pwrite", "pwrite", "write", ALL, ["fd", "nbytes", "offset"]),
    ("pwrite64", "pwrite", "write", LINUX, ["fd", "nbytes", "offset"]),
    ("pwrite_nocancel", "pwrite", "write", DARWIN, ["fd", "nbytes", "offset"]),
    ("pwritev", "pwrite", "write", ALL, ["fd", "nbytes", "offset"]),
    ("lseek", "lseek", "other", ALL, ["fd", "offset", "whence"]),
    ("_llseek", "lseek", "other", LINUX, ["fd", "offset", "whence"]),
    # --- durability --------------------------------------------------
    ("fsync", "fsync", "fsync", ALL, ["fd"]),
    ("fsync_nocancel", "fsync", "fsync", DARWIN, ["fd"]),
    ("fdatasync", "fdatasync", "fsync", NOT_DARWIN, ["fd"]),
    ("sync", "sync", "fsync", ALL, []),
    ("sync_file_range", "fdatasync", "fsync", LINUX, ["fd"]),
    # --- metadata reads ----------------------------------------------
    ("stat", "stat", "stat", ALL, ["path"]),
    ("stat64", "stat", "stat", BSDISH | LINUX, ["path"]),
    ("lstat", "lstat", "stat", ALL, ["path"]),
    ("lstat64", "lstat", "stat", BSDISH | LINUX, ["path"]),
    ("fstat", "fstat", "stat", ALL, ["fd"]),
    ("fstat64", "fstat", "stat", BSDISH | LINUX, ["fd"]),
    ("fstatat", "stat", "stat", ALL, ["path"]),
    ("newfstatat", "stat", "stat", LINUX, ["path"]),
    ("stat_extended", "stat_extended", "stat", DARWIN, ["path"]),
    ("lstat_extended", "lstat_extended", "stat", DARWIN, ["path"]),
    ("fstat_extended", "fstat_extended", "stat", DARWIN, ["fd"]),
    ("access", "access", "stat", ALL, ["path", "mode"]),
    ("faccessat", "access", "stat", ALL, ["path", "mode"]),
    ("readlink", "readlink", "stat", ALL, ["path"]),
    ("readlinkat", "readlink", "stat", ALL, ["path"]),
    ("statfs", "statfs", "stat", ALL, ["path"]),
    ("statfs64", "statfs", "stat", BSDISH | LINUX, ["path"]),
    ("fstatfs", "fstatfs", "stat", ALL, ["fd"]),
    ("fstatfs64", "fstatfs", "stat", BSDISH | LINUX, ["fd"]),
    ("getfsstat64", "statfs_global", "stat", DARWIN, []),
    # --- directories -------------------------------------------------
    ("mkdir", "mkdir", "meta", ALL, ["path", "mode"]),
    ("mkdirat", "mkdir", "meta", ALL, ["path", "mode"]),
    ("rmdir", "rmdir", "meta", ALL, ["path"]),
    ("getdents", "getdents", "dir", LINUX, ["fd"]),
    ("getdents64", "getdents", "dir", LINUX, ["fd"]),
    ("getdirentries", "getdents", "dir", BSDISH, ["fd"]),
    ("getdirentries64", "getdents", "dir", DARWIN, ["fd"]),
    ("getdirentriesattr", "getdirentriesattr", "dir", DARWIN, ["fd"]),
    # --- namespace ---------------------------------------------------
    ("unlink", "unlink", "meta", ALL, ["path"]),
    ("unlinkat", "unlink", "meta", ALL, ["path"]),
    ("rename", "rename", "meta", ALL, ["old", "new"]),
    ("renameat", "rename", "meta", ALL, ["old", "new"]),
    ("link", "link", "meta", ALL, ["target", "path"]),
    ("linkat", "link", "meta", ALL, ["target", "path"]),
    ("symlink", "symlink", "meta", ALL, ["target", "path"]),
    ("symlinkat", "symlink", "meta", ALL, ["target", "path"]),
    ("truncate", "truncate", "write", ALL, ["path", "length"]),
    ("truncate64", "truncate", "write", LINUX, ["path", "length"]),
    ("ftruncate", "ftruncate", "write", ALL, ["fd", "length"]),
    ("ftruncate64", "ftruncate", "write", LINUX, ["fd", "length"]),
    # --- attribute writes --------------------------------------------
    ("chmod", "chmod", "meta", ALL, ["path", "mode"]),
    ("chmod_extended", "chmod", "meta", DARWIN, ["path", "mode"]),
    ("fchmod", "fchmod", "meta", ALL, ["fd", "mode"]),
    ("fchmodat", "chmod", "meta", ALL, ["path", "mode"]),
    ("chown", "chown", "meta", ALL, ["path"]),
    ("lchown", "chown", "meta", ALL, ["path"]),
    ("fchown", "fchown", "meta", ALL, ["fd"]),
    ("fchownat", "chown", "meta", ALL, ["path"]),
    ("utimes", "utimes", "meta", ALL, ["path"]),
    ("utimensat", "utimes", "meta", LINUX, ["path"]),
    ("futimes", "futimes", "meta", BSDISH, ["fd"]),
    # --- descriptors -------------------------------------------------
    ("dup", "dup", "other", ALL, ["fd"]),
    ("dup2", "dup2", "other", ALL, ["fd", "newfd"]),
    ("dup3", "dup2", "other", LINUX, ["fd", "newfd"]),
    ("fcntl", "fcntl", "other", ALL, ["fd", "cmd", "arg"]),
    ("fcntl_nocancel", "fcntl", "other", DARWIN, ["fd", "cmd", "arg"]),
    ("flock", "flock", "other", ALL, ["fd", "op"]),
    # --- hints and allocation ----------------------------------------
    # The paper's FreeBSD target lacked analogous hint APIs, so those
    # calls are ignored there (section 4.3.4).
    ("posix_fadvise", "fadvise", "hint", frozenset(["linux", "illumos"]), ["fd", "offset", "length", "advice"]),
    ("readahead", "fadvise", "hint", LINUX, ["fd", "offset", "length"]),
    ("fallocate", "fallocate", "hint", LINUX, ["fd", "offset", "length"]),
    ("posix_fallocate", "fallocate", "hint", frozenset(["linux", "illumos"]), ["fd", "offset", "length"]),
    # --- memory mapping ----------------------------------------------
    ("mmap", "mmap", "read", ALL, ["fd", "offset", "length"]),
    ("mmap2", "mmap", "read", LINUX, ["fd", "offset", "length"]),
    ("munmap", "munmap", "other", ALL, ["addr", "length"]),
    ("msync", "msync", "fsync", ALL, ["addr", "length"]),
    # --- pipes, shm, cwd ---------------------------------------------
    ("pipe", "pipe", "other", ALL, []),
    ("pipe2", "pipe", "other", LINUX, []),
    ("shm_open", "shm_open", "open", ALL, ["name", "flags", "mode"]),
    ("shm_unlink", "shm_unlink", "meta", ALL, ["name"]),
    ("chdir", "chdir", "other", ALL, ["path"]),
    ("fchdir", "fchdir", "other", ALL, ["fd"]),
    ("getcwd", "getcwd", "other", ALL, []),
    # --- extended attributes (Linux spellings) -----------------------
    ("getxattr", "getxattr", "meta", LINUX | DARWIN, ["path", "xname"]),
    ("lgetxattr", "lgetxattr", "meta", LINUX, ["path", "xname"]),
    ("fgetxattr", "fgetxattr", "meta", LINUX | DARWIN, ["fd", "xname"]),
    ("setxattr", "setxattr", "meta", LINUX | DARWIN, ["path", "xname", "size"]),
    ("lsetxattr", "lsetxattr", "meta", LINUX, ["path", "xname", "size"]),
    ("fsetxattr", "fsetxattr", "meta", LINUX | DARWIN, ["fd", "xname", "size"]),
    ("listxattr", "listxattr", "meta", LINUX | DARWIN, ["path"]),
    ("llistxattr", "llistxattr", "meta", LINUX, ["path"]),
    ("flistxattr", "flistxattr", "meta", LINUX | DARWIN, ["fd"]),
    ("removexattr", "removexattr", "meta", LINUX | DARWIN, ["path", "xname"]),
    ("lremovexattr", "lremovexattr", "meta", LINUX, ["path", "xname"]),
    ("fremovexattr", "fremovexattr", "meta", LINUX | DARWIN, ["fd", "xname"]),
    # --- Darwin attribute-list family --------------------------------
    ("getattrlist", "getattrlist", "stat", DARWIN, ["path"]),
    ("setattrlist", "setattrlist", "meta", DARWIN, ["path"]),
    ("fgetattrlist", "fgetattrlist", "stat", DARWIN, ["fd"]),
    ("fsetattrlist", "fsetattrlist", "meta", DARWIN, ["fd"]),
    ("getattrlistbulk", "getattrlistbulk", "dir", DARWIN, ["fd"]),
    ("exchangedata", "exchangedata", "meta", DARWIN, ["path1", "path2"]),
    # --- asynchronous I/O --------------------------------------------
    ("aio_read", "aio_read", "aio", ALL, ["aiocb", "fd", "nbytes", "offset"]),
    ("aio_write", "aio_write", "aio", ALL, ["aiocb", "fd", "nbytes", "offset"]),
    ("aio_error", "aio_error", "aio", ALL, ["aiocb"]),
    ("aio_return", "aio_return", "aio", ALL, ["aiocb"]),
    ("aio_suspend", "aio_suspend", "aio", ALL, ["aiocbs"]),
    ("aio_cancel", "aio_cancel", "aio", ALL, ["aiocb"]),
    ("lio_listio", "lio_listio", "aio", ALL, ["ops"]),
]

REGISTRY = {}
for _name, _kind, _cat, _plats, _args in _TABLE:
    REGISTRY[_name] = _spec(_name, _kind, _cat, _plats, _args)


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
