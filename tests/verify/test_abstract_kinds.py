"""Every executor kind, abstract vs dynamic -- and no way back to a mirror.

Abstract replay (:mod:`repro.verify.abstract`) runs the replayer's own
per-action body on the concrete VFS, so it predicts a kind exactly when
the executor can run it.  This suite walks ``execute.HANDLERS``: each kind
has hand-built traces (a success and, where the op has one, a failing
errno) whose single-threaded prediction must be ``exact`` and agree --
per-action errno and final-state digest -- with a real replay on the
events core.  A kind without a case fails the suite, so a new table
row cannot ship unpredicted.  The same cases hold the fast cores to the
events core (per-action ``ret``/``err``/``matched`` and the digest), so
the bound call the precompiled kernel makes and the JIT writes out is
driven for every kind, branch and default.
The structural tests at the end keep ``verify/abstract.py`` a driver:
no op bodies, no errno names, no inode construction, and no per-action
pipeline of its own -- it runs the replayer's.
"""

import ast
import os

import pytest

import repro.verify.abstract as abstract_module
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, _ReplayRun, replay
from repro.bench import PLATFORMS
from repro.core.modes import ReplayMode
from repro.syscalls import execute
from repro.syscalls.registry import spec_for
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify import fs_digest, predict

LINUX, DARWIN = "ssd", "mac-ssd"  # PLATFORMS keys, by OS flavor

RD, WR, RW = "O_RDONLY", "O_WRONLY", "O_RDWR"


def R(name, args=None, ret=0, err=None, tid="T1"):
    """One hand-written trace record (index and times filled in later)."""
    return (tid, name, args or {}, -1 if err else ret, err)


def OPEN(path="/d/f", flags=RW, ret=3):
    return R("open", {"path": path, "flags": flags}, ret=ret)


def PIPE(read_end=3):
    return R("pipe", {}, ret=[read_end, read_end + 1])


class Case(object):
    def __init__(self, records, target=LINUX, expect=None, source=None):
        self.records = records
        self.target = target
        self.source = source or PLATFORMS[target].os_flavor
        # Replay outcomes, where they differ from what the trace saw
        # (cross-platform errno spellings).
        self.expect = expect if expect is not None else [r[4] for r in records]

    def benchmark(self):
        records = [
            TraceRecord(idx, tid, name, args, ret, err, idx / 10.0, idx / 10.0 + 0.001)
            for idx, (tid, name, args, ret, err) in enumerate(self.records)
        ]
        snap = Snapshot()
        for path in ("/d", "/d/sub", "/d/full"):
            snap.add(path, "dir")
        snap.add("/d/f", "reg", size=8192, xattrs=["user.a"])
        snap.add("/d/g", "reg", size=100)
        snap.add("/d/full/x", "reg", size=1)
        snap.add("/d/ln", "symlink", target="/d/f")
        return compile_trace(Trace(records, platform=self.source), snap)


def on_both(records):
    """The same trace self-replayed on a Linux and on a Darwin target."""
    return [Case(records), Case(records, target=DARWIN)]


def ported(records, expect=None):
    """A Darwin trace replayed on Linux, through the emulation planner."""
    return Case(records, target=LINUX, source="darwin", expect=expect)


XA = {"path": "/d/f", "xname": "user.a"}
XMISSING = {"path": "/d/f", "xname": "user.none"}
LN_XMISSING = {"path": "/d/ln", "xname": "user.none"}
FD_XA = {"fd": 3, "xname": "user.a"}
FD_XMISSING = {"fd": 3, "xname": "user.none"}
AIO = {"aiocb": "cb", "fd": 3, "nbytes": 100, "offset": 9000}

#: kind -> cases.  Keys are exactly ``execute.HANDLERS``.
CASES = {
    "open": [Case([
        OPEN(flags=RD),
        R("open", {"path": "/d/none", "flags": RD}, err="ENOENT"),
        R("open", {"path": "/d/new", "flags": "O_WRONLY|O_CREAT"}, ret=4),
        R("open", {"path": "/d/f", "flags": "O_WRONLY|O_CREAT|O_EXCL"}, err="EEXIST"),
        R("open", {"path": "/d/sub", "flags": WR}, err="EISDIR"),
        R("open", {"path": "/d/f", "flags": "O_RDWR|O_TRUNC"}, ret=5),
    ])],
    "creat": [Case([
        R("creat", {"path": "/d/new"}, ret=3),
        R("creat", {"path": "/d/sub"}, err="EISDIR"),
    ])],
    "close": [Case([
        OPEN(), R("close", {"fd": 3}), R("close", {"fd": 3}, err="EBADF"),
    ])],
    "read": [Case([
        OPEN(), R("read", {"fd": 3, "nbytes": 100}, ret=100),
        OPEN(flags=WR, ret=4), R("read", {"fd": 4, "nbytes": 1}, err="EBADF"),
        OPEN("/d/sub", RD, ret=5), R("read", {"fd": 5, "nbytes": 1}, err="EISDIR"),
    ])],
    "pread": [Case([
        OPEN(), R("pread", {"fd": 3, "nbytes": 100, "offset": 8000}, ret=100),
        R("pread", {"fd": 9, "nbytes": 1, "offset": 0}, err="EBADF"),
    ])],
    "write": [Case([
        OPEN(flags="O_WRONLY|O_APPEND"), R("write", {"fd": 3, "nbytes": 50}, ret=50),
        OPEN(flags=RD, ret=4), R("write", {"fd": 4, "nbytes": 1}, err="EBADF"),
    ])],
    "pwrite": [Case([
        OPEN(), R("pwrite", {"fd": 3, "nbytes": 10, "offset": 9000}, ret=10),
        R("pwrite", {"fd": 9, "nbytes": 1, "offset": 0}, err="EBADF"),
    ])],
    "lseek": [Case([
        OPEN(), R("lseek", {"fd": 3, "offset": -10, "whence": 2}, ret=8182),
        R("write", {"fd": 3, "nbytes": 20}, ret=20),
        R("lseek", {"fd": 3, "offset": -1, "whence": 0}, err="EINVAL"),
        R("lseek", {"fd": 3, "offset": 0, "whence": 7}, err="EINVAL"),
    ])],
    "fsync": on_both([
        OPEN(), R("pwrite", {"fd": 3, "nbytes": 10, "offset": 0}, ret=10),
        R("fsync", {"fd": 3}), R("fsync", {"fd": 9}, err="EBADF"),
    ]) + [ported([OPEN(), R("fsync", {"fd": 3}), R("fsync", {"fd": 9}, err="EBADF")])],
    "fdatasync": [Case([
        OPEN(), R("fdatasync", {"fd": 3}), R("fdatasync", {"fd": 9}, err="EBADF"),
    ])],
    "sync": [Case([OPEN(), R("pwrite", {"fd": 3, "nbytes": 10, "offset": 0}, ret=10),
                   R("sync")])],
    "stat": [Case([R("stat", {"path": "/d/ln"}),
                   R("stat", {"path": "/d/none"}, err="ENOENT"),
                   R("stat", {"path": "/d/f/x"}, err="ENOTDIR")])],
    "lstat": [Case([R("lstat", {"path": "/d/ln"}),
                    R("lstat", {"path": "/d/none"}, err="ENOENT")])],
    "fstat": [Case([OPEN(), R("fstat", {"fd": 3}), PIPE(4),
                    R("fstat", {"fd": 4}), R("fstat", {"fd": 9}, err="EBADF")])],
    "access": [Case([R("access", {"path": "/d/f", "mode": 4}),
                     R("access", {"path": "/d/none", "mode": 0}, err="ENOENT")])],
    "readlink": [Case([R("readlink", {"path": "/d/ln"}, ret="/d/f"),
                       R("readlink", {"path": "/d/f"}, err="EINVAL"),
                       R("readlink", {"path": "/d/none"}, err="ENOENT")])],
    "statfs": [Case([R("statfs", {"path": "/d"}),
                     R("statfs", {"path": "/none"}, err="ENOENT")])],
    "fstatfs": [Case([OPEN(), R("fstatfs", {"fd": 3}),
                      R("fstatfs", {"fd": 9}, err="EBADF")])],
    "statfs_global": [Case([R("getfsstat64")], target=DARWIN)],
    "mkdir": [Case([R("mkdir", {"path": "/d/m", "mode": 0o700}),
                    R("mkdir", {"path": "/d/m", "mode": 0o700}, err="EEXIST"),
                    R("mkdir", {"path": "/none/m", "mode": 0o700}, err="ENOENT")])],
    "rmdir": [Case([R("rmdir", {"path": "/d/sub"}),
                    R("rmdir", {"path": "/d/sub"}, err="ENOENT"),
                    R("rmdir", {"path": "/d/full"}, err="ENOTEMPTY"),
                    R("rmdir", {"path": "/d/f"}, err="ENOTDIR")])],
    "getdents": [Case([OPEN("/d", "O_RDONLY|O_DIRECTORY"), R("getdents", {"fd": 3}),
                       OPEN(ret=4), R("getdents", {"fd": 4}, err="EBADF")])],
    "unlink": [Case([R("unlink", {"path": "/d/g"}),
                     R("unlink", {"path": "/d/g"}, err="ENOENT"),
                     R("unlink", {"path": "/d/sub"}, err="EISDIR")])],
    "rename": [Case([R("rename", {"old": "/d/g", "new": "/d/h"}),
                     R("rename", {"old": "/d/g", "new": "/d/h"}, err="ENOENT"),
                     R("rename", {"old": "/d/h", "new": "/d/f"}),
                     R("rename", {"old": "/d", "new": "/d/sub/in"}, err="EINVAL"),
                     R("rename", {"old": "/d/sub", "new": "/d/full"}, err="ENOTEMPTY"),
                     R("rename", {"old": "/d/f", "new": "/d/sub"}, err="EISDIR")])],
    "link": [Case([R("link", {"target": "/d/f", "path": "/d/hard"}),
                   R("link", {"target": "/d/f", "path": "/d/hard"}, err="EEXIST"),
                   R("link", {"target": "/d/sub", "path": "/d/hd"}, err="EPERM"),
                   R("unlink", {"path": "/d/f"})])],
    "symlink": [Case([R("symlink", {"target": "/d/g", "path": "/d/soft"}),
                      R("symlink", {"target": "/d/g", "path": "/d/soft"}, err="EEXIST"),
                      R("stat", {"path": "/d/soft"})])],
    "truncate": [Case([R("truncate", {"path": "/d/f", "length": 10}),
                       R("truncate", {"path": "/d/sub", "length": 0}, err="EISDIR"),
                       R("truncate", {"path": "/d/f", "length": -1}, err="EINVAL"),
                       R("truncate", {"path": "/d/none", "length": 0}, err="ENOENT")])],
    "ftruncate": [Case([OPEN(), R("ftruncate", {"fd": 3, "length": 20000}),
                        R("ftruncate", {"fd": 9, "length": 0}, err="EBADF")])],
    "chmod": [Case([R("chmod", {"path": "/d/f", "mode": 0o600}),
                    R("chmod", {"path": "/d/none", "mode": 0o600}, err="ENOENT")])],
    "fchmod": [Case([OPEN(), R("fchmod", {"fd": 3, "mode": 0o600}),
                     PIPE(4),
                     R("fchmod", {"fd": 5, "mode": 0o600}),  # used to crash the replay
                     R("fchmod", {"fd": 9, "mode": 0o600}, err="EBADF")])],
    "chown": [Case([R("chown", {"path": "/d/f"}),
                    R("chown", {"path": "/d/none"}, err="ENOENT")])],
    "fchown": [Case([OPEN(), R("fchown", {"fd": 3}),
                     R("fchown", {"fd": 9}, err="EBADF")])],
    "utimes": [Case([R("utimes", {"path": "/d/f"}),
                     R("utimes", {"path": "/d/none"}, err="ENOENT")])],
    "futimes": [Case([OPEN(), R("futimes", {"fd": 3}),
                      R("futimes", {"fd": 9}, err="EBADF")], target=DARWIN)],
    "dup": [Case([OPEN(), R("dup", {"fd": 3}, ret=4), R("close", {"fd": 3}),
                  R("read", {"fd": 4, "nbytes": 10}, ret=10),
                  R("dup", {"fd": 9}, err="EBADF")])],
    # Replay aliases dup2 to dup (the descriptor *number* is an OS
    # artifact, section 4.2) and remaps later uses of the new name.
    "dup2": [Case([OPEN(), R("dup2", {"fd": 3, "newfd": 10}, ret=10),
                   R("pwrite", {"fd": 10, "nbytes": 10, "offset": 9000}, ret=10),
                   R("close", {"fd": 10}), R("close", {"fd": 3}),
                   R("dup2", {"fd": 9, "newfd": 11}, err="EBADF")])],
    "fcntl": on_both([
        OPEN(), R("fcntl", {"fd": 3, "cmd": "F_GETFL"}),
        R("fcntl", {"fd": 3, "cmd": "F_DUPFD"}, ret=4),
        R("fcntl", {"fd": 9, "cmd": "F_SETFD"}, err="EBADF"),
    ]) + [Case([
        OPEN(), R("fcntl", {"fd": 3, "cmd": "F_FULLFSYNC"}),
        R("fcntl", {"fd": 3, "cmd": "F_PREALLOCATE", "arg": 65536}),
        R("fcntl", {"fd": 3, "cmd": "F_RDADVISE", "offset": 0, "arg": 4096}),
        R("fcntl", {"fd": 3, "cmd": "F_NOCACHE", "arg": 1}),
    ], target=DARWIN)],
    "flock": [Case([OPEN(), R("flock", {"fd": 3, "op": 2}),
                    R("flock", {"fd": 9, "op": 2}, err="EBADF")])],
    "fadvise": [Case([
        OPEN(), R("posix_fadvise", {"fd": 3, "offset": 0, "length": 4096,
                                    "advice": "POSIX_FADV_WILLNEED"}),
        R("readahead", {"fd": 9, "offset": 0, "length": 4096}, err="EBADF"),
    ])],
    "fallocate": [Case([
        OPEN(), R("fallocate", {"fd": 3, "offset": 8192, "length": 4096}),
        R("fallocate", {"fd": 9, "offset": 0, "length": 1}, err="EBADF"),
    ])],
    "mmap": [Case([OPEN(), R("mmap", {"fd": 3, "offset": 0, "length": 4096}, ret=1),
                   R("mmap", {"fd": -1, "offset": 0, "length": 4096}, ret=1),
                   R("mmap", {"fd": 9, "offset": 0, "length": 1}, err="EBADF")])],
    "munmap": [Case([R("munmap", {"addr": 1, "length": 4096})])],
    "msync": [Case([R("msync", {"addr": 1, "length": 4096})])],
    "pipe": [Case([PIPE(), R("write", {"fd": 4, "nbytes": 10}, ret=10),
                   R("read", {"fd": 3, "nbytes": 10}, ret=10),
                   R("read", {"fd": 4, "nbytes": 1}, err="EBADF"),
                   R("lseek", {"fd": 3, "offset": 0, "whence": 0}, err="ESPIPE"),
                   R("futimes", {"fd": 3}),
                   R("close", {"fd": 3}), R("close", {"fd": 4})], target=DARWIN)],
    "shm_open": on_both([
        R("shm_open", {"name": "/seg", "flags": "O_RDWR|O_CREAT", "mode": 0o600}, ret=3),
        R("ftruncate", {"fd": 3, "length": 4096}),
        R("shm_open", {"name": "none", "flags": RW, "mode": 0o600}, err="ENOENT"),
        # O_RDONLY is the flag word 0: named, it is not the absent-key
        # default (O_RDWR|O_CREAT), which used to create the segment.
        R("shm_open", {"name": "none", "flags": RD, "mode": 0o600}, err="ENOENT"),
    ]),
    "shm_unlink": [Case([
        R("shm_open", {"name": "/seg", "flags": "O_RDWR|O_CREAT", "mode": 0o600}, ret=3),
        R("shm_unlink", {"name": "/seg"}),
        R("shm_unlink", {"name": "/seg"}, err="ENOENT"),
    ])],
    "chdir": [Case([R("chdir", {"path": "/d"}), R("stat", {"path": "f"}),
                    R("chdir", {"path": "/d/f"}, err="ENOTDIR"),
                    R("chdir", {"path": "none"}, err="ENOENT"),
                    R("mkdir", {"path": "rel", "mode": 0o755})])],
    "fchdir": [Case([OPEN("/d", "O_RDONLY|O_DIRECTORY"), R("fchdir", {"fd": 3}),
                     R("stat", {"path": "f"}), OPEN("f", ret=4),
                     # Both used to succeed and wreck the shared cwd.
                     R("fchdir", {"fd": 4}, err="ENOTDIR"),
                     PIPE(5),
                     R("fchdir", {"fd": 5}, err="ENOTDIR"),
                     R("mkdir", {"path": "rel", "mode": 0o755}),
                     R("fchdir", {"fd": 9}, err="EBADF")])],
    "getcwd": [Case([R("getcwd", {}, ret="/")])],
    "getattrlist": [Case([R("getattrlist", {"path": "/d/f"}),
                          R("getattrlist", {"path": "/d/none"}, err="ENOENT")],
                         target=DARWIN),
                    ported([R("getattrlist", {"path": "/d/f"}),  # -> stat
                            R("getattrlist", {"path": "/d/none"}, err="ENOENT")])],
    "setattrlist": [Case([R("setattrlist", {"path": "/d/f"}),
                          R("setattrlist", {"path": "/d/none"}, err="ENOENT")],
                         target=DARWIN)],
    "fgetattrlist": [Case([OPEN(), R("fgetattrlist", {"fd": 3}),
                           R("fgetattrlist", {"fd": 9}, err="EBADF")], target=DARWIN)],
    "fsetattrlist": [Case([OPEN(), R("fsetattrlist", {"fd": 3}),
                           R("fsetattrlist", {"fd": 9}, err="EBADF")], target=DARWIN)],
    "getattrlistbulk": [Case([OPEN("/d", RD), R("getattrlistbulk", {"fd": 3}),
                              OPEN(ret=4), R("getattrlistbulk", {"fd": 4}, err="EBADF")],
                             target=DARWIN)],
    "getdirentriesattr": [Case([OPEN("/d", RD), R("getdirentriesattr", {"fd": 3}),
                                R("getdirentriesattr", {"fd": 9}, err="EBADF")],
                               target=DARWIN)],
    "exchangedata": [Case([
        R("exchangedata", {"path1": "/d/f", "path2": "/d/g"}),
        R("exchangedata", {"path1": "/d/f", "path2": "/d/none"}, err="ENOENT"),
        R("exchangedata", {"path1": "/d/f", "path2": "/d/sub"}, err="EINVAL"),
    ], target=DARWIN), ported([  # -> a link and two renames
        R("exchangedata", {"path1": "/d/f", "path2": "/d/g"}),
        R("exchangedata", {"path1": "/d/f", "path2": "/d/none"}, err="ENOENT"),
    ])],
    "stat_extended": [Case([R("stat_extended", {"path": "/d/f"}),
                            R("stat_extended", {"path": "/d/none"}, err="ENOENT")],
                           target=DARWIN)],
    "lstat_extended": [Case([R("lstat_extended", {"path": "/d/ln"}),
                             R("lstat_extended", {"path": "/d/none"}, err="ENOENT")],
                            target=DARWIN)],
    "fstat_extended": [Case([OPEN(), R("fstat_extended", {"fd": 3}),
                             R("fstat_extended", {"fd": 9}, err="EBADF")],
                            target=DARWIN)],
    # A missing attribute is ENODATA on Linux, ENOATTR on Darwin.
    "getxattr": [
        Case([R("getxattr", XA, ret=16), R("getxattr", XMISSING, err="ENODATA"),
              R("getxattr", {"path": "/d/none", "xname": "user.a"}, err="ENOENT")]),
        Case([R("getxattr", XA, ret=16), R("getxattr", XMISSING, err="ENOATTR")],
             target=DARWIN),
        ported([R("getxattr", XA, ret=16), R("getxattr", XMISSING, err="ENOATTR")],
               expect=[None, "ENODATA"]),
    ],
    "lgetxattr": [Case([R("lgetxattr", XA, ret=16),
                        R("lgetxattr", LN_XMISSING, err="ENODATA")])],
    "fgetxattr": [
        Case([OPEN(), R("fgetxattr", FD_XA, ret=16),
              R("fgetxattr", FD_XMISSING, err="ENODATA"),
              R("fgetxattr", {"fd": 9, "xname": "user.a"}, err="EBADF")]),
        Case([OPEN(), R("fgetxattr", FD_XMISSING, err="ENOATTR")], target=DARWIN),
    ],
    "setxattr": on_both([
        R("setxattr", {"path": "/d/g", "xname": "user.b", "size": 8}),
        R("setxattr", {"path": "/d/none", "xname": "user.b", "size": 8}, err="ENOENT"),
    ]),
    "lsetxattr": [Case([R("lsetxattr", {"path": "/d/g", "xname": "user.b", "size": 8}),
                        R("lsetxattr", {"path": "/d/none", "xname": "u", "size": 8},
                          err="ENOENT")])],
    "fsetxattr": on_both([
        OPEN("/d/g"), R("fsetxattr", {"fd": 3, "xname": "user.b", "size": 8}),
        R("fsetxattr", {"fd": 9, "xname": "user.b", "size": 8}, err="EBADF"),
    ]),
    "listxattr": on_both([R("listxattr", {"path": "/d/f"}),
                          R("listxattr", {"path": "/d/none"}, err="ENOENT")]),
    "llistxattr": [Case([R("llistxattr", {"path": "/d/ln"}),
                         R("llistxattr", {"path": "/d/none"}, err="ENOENT")])],
    "flistxattr": on_both([OPEN(), R("flistxattr", {"fd": 3}),
                           R("flistxattr", {"fd": 9}, err="EBADF")]),
    "removexattr": [
        Case([R("removexattr", XA), R("removexattr", XA, err="ENODATA")]),
        Case([R("removexattr", XA), R("removexattr", XA, err="ENOATTR")], target=DARWIN),
    ],
    "lremovexattr": [Case([R("lremovexattr", XA),
                           R("lremovexattr", LN_XMISSING, err="ENODATA")])],
    "fremovexattr": [
        Case([OPEN(), R("fremovexattr", FD_XA), R("fremovexattr", FD_XA, err="ENODATA")]),
        Case([OPEN(), R("fremovexattr", FD_XA), R("fremovexattr", FD_XA, err="ENOATTR")],
             target=DARWIN),
    ],
    "aio_read": [Case([OPEN(), R("aio_read", dict(AIO, offset=0)),
                       R("aio_suspend", {"aiocbs": ["cb"]}),
                       R("aio_read", dict(AIO, aiocb="cb2", fd=9), err="EBADF")])],
    "aio_write": [Case([OPEN(), R("aio_write", AIO),
                        R("aio_suspend", {"aiocbs": ["cb"]}),
                        R("lseek", {"fd": 3, "offset": 0, "whence": 2}, ret=9100),
                        R("aio_write", dict(AIO, aiocb="cb2", fd=9), err="EBADF")])],
    "aio_error": [Case([OPEN(), R("aio_write", AIO),
                        R("aio_suspend", {"aiocbs": ["cb"]}),
                        R("aio_error", {"aiocb": "cb"}),
                        R("aio_error", {"aiocb": "never"}, err="EINVAL")])],
    "aio_return": [Case([OPEN(), R("aio_write", AIO),
                         R("aio_suspend", {"aiocbs": ["cb"]}),
                         R("aio_return", {"aiocb": "cb"}, ret=100),
                         R("aio_return", {"aiocb": "cb"}, err="EINVAL")])],
    "aio_suspend": [Case([OPEN(), R("aio_write", AIO), R("aio_read", dict(AIO, aiocb="rd")),
                          R("aio_suspend", {"aiocbs": ["cb", "rd", "never"]}),
                          R("truncate", {"path": "/d/f", "length": 5})])],
    "aio_cancel": [Case([OPEN(), R("aio_read", dict(AIO, offset=0)),
                         R("aio_suspend", {"aiocbs": ["cb"]}),
                         R("aio_cancel", {"aiocb": "cb"}),
                         R("aio_cancel", {"aiocb": "never"}, err="EINVAL")])],
    "lio_listio": [Case([
        OPEN(),
        R("lio_listio", {"ops": [
            {"aiocb": "a", "fd": 3, "nbytes": 100, "offset": 0},
            {"aiocb": "b", "fd": 3, "nbytes": 100, "offset": 9000, "is_write": True},
        ]}),
        R("lio_listio", {"ops": [
            {"aiocb": "c", "fd": 3, "nbytes": 10, "offset": 20000, "is_write": True},
            {"aiocb": "d", "fd": 9, "nbytes": 10, "offset": 0},
        ]}, err="EBADF"),
        R("stat", {"path": "/d/f"}),
    ]), Case([
        # Requests submitted through a list are waited for and reaped
        # under their generation-qualified names like any other.
        OPEN(),
        R("lio_listio", {"ops": [
            {"aiocb": "a", "fd": 3, "nbytes": 100, "offset": 0},
            {"aiocb": "b", "fd": 3, "nbytes": 100, "offset": 9000, "is_write": True},
        ]}),
        R("aio_suspend", {"aiocbs": ["a", "b"]}),
        R("aio_return", {"aiocb": "b"}, ret=100),
        R("aio_return", {"aiocb": "a"}, ret=100),
        R("truncate", {"path": "/d/f", "length": 5}),  # nothing left in flight
    ]), Case([
        # Each request's descriptor is remapped: the trace's 10 and 11
        # are the replay's 3 and 4 (the raw numbers used to go through:
        # EBADF, then EINVAL from both aio_returns).
        R("open", {"path": "/d/a", "flags": "O_RDWR|O_CREAT"}, ret=10),
        R("open", {"path": "/d/b", "flags": "O_RDWR|O_CREAT"}, ret=11),
        R("lio_listio", {"ops": [
            {"aiocb": "a", "fd": 10, "nbytes": 4096, "offset": 0, "is_write": True},
            {"aiocb": "b", "fd": 11, "nbytes": 4096, "offset": 0, "is_write": True},
        ]}),
        R("aio_suspend", {"aiocbs": ["a", "b"]}),
        R("aio_return", {"aiocb": "a"}, ret=4096),
        R("aio_return", {"aiocb": "b"}, ret=4096),
    ])],
}

FAST_CORES = ("scoreboard", "jit")


def test_every_handler_kind_has_a_case():
    assert sorted(CASES) == sorted(execute.HANDLERS)
    for kind, cases in CASES.items():
        for case in cases:
            kinds = {spec_for(record[1]).kind for record in case.records}
            assert kind in kinds, "no %s record in a case filed under it" % kind


def replayed(case, bench, core):
    """One single-threaded replay of ``case`` on a fresh target: the
    per-action outcomes and the final-state digest.  Every case replays
    as traced: no nonconformance warning on any core."""
    fs = PLATFORMS[case.target].make_fs(seed=1)
    initialize(fs, bench.snapshot)
    report = replay(bench, fs, ReplayConfig(mode=ReplayMode.SINGLE, core=core))
    assert not report.warnings, (core, [w.message for w in report.warnings])
    return report.results, fs_digest(fs)


@pytest.mark.parametrize("kind", sorted(execute.HANDLERS))
def test_fast_cores_agree_with_the_events_core(kind):
    for case in CASES[kind]:
        bench = case.benchmark()
        results, digest = replayed(case, bench, "events")
        want = [(r.ret, r.err, r.matched) for r in results]
        for core in FAST_CORES:
            where = "%s on core %s, %s on %s" % (kind, core, case.source, case.target)
            got, got_digest = replayed(case, bench, core)
            assert [(r.ret, r.err, r.matched) for r in got] == want, where
            assert got_digest == digest, where


@pytest.mark.parametrize("kind", sorted(execute.HANDLERS))
def test_prediction_agrees_with_dynamic_replay(kind, monkeypatch):
    ran = []
    binder = execute.BIND[kind]

    def counted(args):
        ran.append(kind)
        return binder(args)

    for case in CASES.get(kind, ()):
        bench = case.benchmark()
        results, digest = replayed(case, bench, "events")
        dynamic = [result.err for result in results]

        with monkeypatch.context() as patched:
            patched.setitem(execute.BIND, kind, counted)
            pred = predict(bench, ReplayMode.SINGLE,
                           target=PLATFORMS[case.target].os_flavor)

        where = "%s, %s on %s" % (kind, case.source, case.target)
        assert pred.status == "exact", "%s: %s" % (where, pred.reason)
        assert pred.outcomes == case.expect, where
        assert dynamic == case.expect, where
        assert pred.digest == digest, where
    # Some prediction went through the executor's own binding for the
    # kind (never for dup2: replay issues it as a dup).
    assert ran or kind == "dup2"


# ----------------------------------------------------------------------
# structure: the mirror cannot regrow
# ----------------------------------------------------------------------


def _abstract_tree():
    path = os.path.splitext(abstract_module.__file__)[0] + ".py"
    with open(path) as handle:
        return ast.parse(handle.read())


def test_abstract_defines_no_op_bodies_or_dispatch():
    tree = _abstract_tree()
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert not [n for n in names if n.startswith(("op_", "_k_"))]
    assert "AbstractFS" not in names
    assigned = [target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)]
    assert "_DISPATCH" not in assigned
    assert not hasattr(abstract_module, "AbstractFS")


def test_abstract_names_no_errno_and_builds_no_inodes():
    """Errno decisions and inode/descriptor construction belong to the
    VFS; a driver that needs either has started modelling again."""
    tree = _abstract_tree()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
            assert node.module != "repro.vfs.errnos"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.value.id != "Errno", "names Errno.%s" % node.attr
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("Inode", "OpenFile", "InodeTable")
    assert not imported & {"Errno", "VfsError", "Inode", "OpenFile", "resolve"}


def test_abstract_runs_the_replayers_per_action_body():
    """One per-action interpreter: the abstract run is a replay run
    whose translate -> plan -> perform -> remap body is the replayer's
    ``_perform``; it overrides only the two widening seams."""
    assert issubclass(abstract_module._AbstractRun, _ReplayRun)
    tree = _abstract_tree()
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_translate", "play", "_perform", "_update_maps"}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"static_args", "fd_sites", "step_plan",
                           "update_fd_map", "ExecContext", "perform"}
