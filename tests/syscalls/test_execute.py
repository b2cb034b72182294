"""Tests for the unified executor."""

import inspect

import pytest

from repro.syscalls import execute
from repro.syscalls.execute import perform
from repro.syscalls.registry import REGISTRY
from repro.tracing.tracer import TracedOS
from repro.vfs import flags as F
from repro.vfs.filesystem import FileSystem
from repro.vfs.null import drain, null_filesystem
from tests.conftest import make_fs, run


@pytest.fixture
def tree():
    fs = make_fs()
    fs.makedirs_now("/d")
    fs.create_file_now("/d/f", size=8192)
    return fs


def call(tree, name, /, **args):
    return run(tree, perform(tree, 1, name, args))


class TestBasicDispatch(object):
    def test_open_read_close_round_trip(self, tree):
        fd, err = call(tree, "open", path="/d/f", flags="O_RDONLY")
        assert err is None
        n, err = call(tree, "read", fd=fd, nbytes=100)
        assert (n, err) == (100, None)
        assert call(tree, "close", fd=fd) == (0, None)

    def test_symbolic_flag_strings_parsed(self, tree):
        fd, err = call(tree, "open", path="/d/new", flags="O_WRONLY|O_CREAT|O_EXCL")
        assert err is None
        assert tree.exists("/d/new")

    def test_numeric_flags_accepted(self, tree):
        from repro.vfs import flags as F

        fd, err = call(tree, "open", path="/d/f", flags=F.O_RDONLY)
        assert err is None

    def test_alias_names_dispatch(self, tree):
        fd, _ = call(tree, "open64", path="/d/f", flags="O_RDONLY")
        n, err = call(tree, "pread64", fd=fd, nbytes=10, offset=0)
        assert (n, err) == (10, None)
        stat, err = call(tree, "stat64", path="/d/f")
        assert err is None

    def test_errors_propagate(self, tree):
        assert call(tree, "open", path="/missing/f", flags="O_RDONLY") == (-1, "ENOENT")
        assert call(tree, "unlink", path="/d/zzz") == (-1, "ENOENT")

    def test_unknown_name_raises(self, tree):
        from repro.errors import UnsupportedSyscallError

        with pytest.raises(UnsupportedSyscallError):
            call(tree, "frobnicate", path="/d/f")


class TestFcntlDispatch(object):
    def test_dupfd(self, tree):
        fd, _ = call(tree, "open", path="/d/f", flags="O_RDONLY")
        new, err = call(tree, "fcntl", fd=fd, cmd="F_DUPFD")
        assert err is None and new != fd

    def test_fullfsync(self, tree):
        fd, _ = call(tree, "open", path="/d/f", flags="O_RDWR")
        call(tree, "write", fd=fd, nbytes=4096)
        assert call(tree, "fcntl", fd=fd, cmd="F_FULLFSYNC") == (0, None)
        assert tree.stack.cache.dirty_count == 0

    def test_preallocate(self, tree):
        fd, _ = call(tree, "open", path="/d/f", flags="O_RDWR")
        ret, err = call(tree, "fcntl", fd=fd, cmd="F_PREALLOCATE", arg=1 << 20)
        assert err is None
        assert tree.lookup("/d/f").size >= 1 << 20

    def test_unknown_cmd_validates_fd_only(self, tree):
        fd, _ = call(tree, "open", path="/d/f", flags="O_RDONLY")
        assert call(tree, "fcntl", fd=fd, cmd="F_GETPATH") == (0, None)
        assert call(tree, "fcntl", fd=99, cmd="F_GETPATH") == (-1, "EBADF")


class TestComplexKinds(object):
    def test_pipe_returns_pair(self, tree):
        (r, w), err = call(tree, "pipe")
        assert err is None
        assert r != w

    def test_lio_listio_submits_batch(self, tree):
        fd, _ = call(tree, "open", path="/d/f", flags="O_RDWR")
        ops = [
            {"aiocb": "a", "fd": fd, "nbytes": 100, "offset": 0},
            {"aiocb": "b", "fd": fd, "nbytes": 100, "offset": 4096, "is_write": True},
        ]
        ret, err = call(tree, "lio_listio", ops=ops)
        assert err is None
        assert call(tree, "aio_suspend", aiocbs=["a", "b"]) == (0, None)

    def test_getcwd_and_chdir(self, tree):
        assert call(tree, "chdir", path="/d") == (0, None)
        stat, err = call(tree, "stat", path="f")
        assert err is None

    def test_fchdir(self, tree):
        fd, _ = call(tree, "open", path="/d", flags="O_RDONLY|O_DIRECTORY")
        assert call(tree, "fchdir", fd=fd) == (0, None)
        stat, err = call(tree, "stat", path="f")
        assert err is None

    def test_shm_name_argument(self, tree):
        fd, err = call(tree, "shm_open", name="seg", flags="O_RDWR|O_CREAT")
        assert err is None
        assert call(tree, "shm_unlink", name="seg") == (0, None)

    def test_shm_open_read_only_does_not_create(self, tree):
        """``O_RDONLY`` is the flag word 0.  Named explicitly it is not
        the absent-key default (``O_RDWR|O_CREAT``): a read-only open of
        a missing segment fails as ``open`` on that path does."""
        assert call(tree, "shm_open", name="seg", flags="O_RDONLY") == (-1, "ENOENT")
        assert call(tree, "shm_open", name="seg", flags=0) == (-1, "ENOENT")
        assert not tree.exists("/dev/shm/seg")
        assert call(tree, "open", path="/dev/shm/seg", flags="O_RDONLY") == (
            -1, "ENOENT")
        fd, err = call(tree, "shm_open", name="seg")  # no flags: create
        assert err is None and tree.exists("/dev/shm/seg")


class TestCallTable(object):
    """``execute.HANDLERS`` against its neighbours: the registry's
    argument layouts on one side, ``FileSystem``'s signatures on the
    other."""

    SAMPLE = {"flags": "O_RDWR", "ops": [], "aiocbs": [], "cmd": "F_GETFL"}

    @staticmethod
    def required(kind):
        """The argument names a kind's row cannot bind without."""
        entry = execute.HANDLERS[kind]
        if isinstance(entry, execute.Row):
            return {param for param in entry.params if isinstance(param, str)}
        return {"fcntl": {"fd"}, "lio_listio": set()}[kind]

    def test_every_registry_name_binds_to_a_file_system_method(self, tree):
        assert len(REGISTRY) == 128
        for name, spec in REGISTRY.items():
            # A parsed strace / iBench line carries at most the layout's
            # names, so the row may require nothing outside it.
            assert self.required(spec.kind) <= set(spec.args), name
            args = {arg: self.SAMPLE.get(arg, 1) for arg in spec.args}
            method, argv, kwargs = execute.bind(spec.kind, args)
            bound = getattr(FileSystem, method)
            assert callable(bound), name
            inspect.signature(bound).bind(tree, 7, *argv, **kwargs)

    def test_layout_names_no_row_reads_are_listed(self):
        """What a layout names and its kind's row never reads: the
        ``advice`` word of ``posix_fadvise`` (one behaviour modelled)."""
        unread = set()
        for spec in REGISTRY.values():
            entry = execute.HANDLERS[spec.kind]
            if not isinstance(entry, execute.Row):
                continue
            read = {"flags" if isinstance(param, execute.Flags)
                    else param if isinstance(param, str) else param[0]
                    for param in entry.params
                    if not isinstance(param, execute.Const)}
            unread |= set(spec.args) - read
        assert unread == {"advice"}

    def test_bind_is_a_table_read(self):
        assert execute.bind("pread", {"fd": 3, "nbytes": 10, "offset": 4}) == (
            "pread", (3, 10, 4), {})
        assert execute.bind("shm_open", {"name": "/s"}) == (
            "shm_open", ("/s", F.O_RDWR | F.O_CREAT, 0o600), {})
        assert execute.bind("shm_open", {"name": "/s", "flags": "O_RDONLY"}) == (
            "shm_open", ("/s", F.O_RDONLY, 0o600), {})
        # A default applies to an absent key, never to a falsy value.
        assert execute.bind("mkdir", {"path": "/m", "mode": 0})[1] == ("/m", 0)
        assert execute.bind("mmap", {"fd": 0, "length": 1})[1] == (0, 0, 1)
        aiocbs = ["a@0"]
        assert execute.bind("aio_suspend", {"aiocbs": aiocbs})[1][0] is aiocbs
        with pytest.raises(KeyError, match="nbytes"):
            execute.bind("pread", {"fd": 3, "offset": 4})

    def test_bind_around_fd_splits_at_the_descriptor(self):
        """For exactly the kinds whose layout has a top-level ``fd``,
        ``BIND_AROUND_FD`` is ``bind`` with the descriptor taken out."""
        with_fd = {spec.kind for spec in REGISTRY.values() if "fd" in spec.args}
        fd = object()
        for name, spec in REGISTRY.items():
            args = {arg: self.SAMPLE.get(arg, 1) for arg in spec.args}
            if spec.kind not in with_fd:
                with pytest.raises(KeyError):
                    execute.BIND_AROUND_FD[spec.kind](args)
                continue
            args["fd"] = fd
            method, head, tail, kwargs = execute.BIND_AROUND_FD[spec.kind](args)
            assert execute.bind(spec.kind, args) == (
                method, head + (fd,) + tail, kwargs), name
            assert fd not in head + tail, name

    def test_missing_argument_is_a_replay_error_naming_the_call(self, tree):
        from repro.errors import ReplayError

        with pytest.raises(ReplayError) as refused:
            perform(tree, 1, "pread64", {"fd": 3, "offset": 0})
        assert str(refused.value) == (
            "syscall pread64 (kind pread) is missing argument 'nbytes';"
            " got ['fd', 'offset']")


class TestFailureContract(object):
    """A failing op raises one of ``FileSystem.FAILURES``; only a
    driver (here the null machine's ``drain`` and the tracer's
    ``call``) turns that into ``(-1, errno)`` through ``fs.failed``.
    There is no converting layer between a bound method and its body."""

    #: One failing call per method a ``HANDLERS`` row can bind, on the
    #: ``tree`` tree (``/d`` holds the file ``/d/f``; descriptor 99 is not
    #: open): ``(syscall name, args, errno)``.
    FAILING = [
        ("open", {"path": "/nope/x", "flags": "O_RDONLY"}, "ENOENT"),
        ("creat", {"path": "/nope/x"}, "ENOENT"),
        ("close", {"fd": 99}, "EBADF"),
        ("read", {"fd": 99, "nbytes": 1}, "EBADF"),
        ("pread", {"fd": 99, "nbytes": 1, "offset": 0}, "EBADF"),
        ("write", {"fd": 99, "nbytes": 1}, "EBADF"),
        ("pwrite", {"fd": 99, "nbytes": 1, "offset": 0}, "EBADF"),
        ("lseek", {"fd": 99, "offset": 0}, "EBADF"),
        ("fsync", {"fd": 99}, "EBADF"),
        ("fdatasync", {"fd": 99}, "EBADF"),
        ("stat", {"path": "/nope"}, "ENOENT"),
        ("lstat", {"path": "/nope"}, "ENOENT"),
        ("fstat", {"fd": 99}, "EBADF"),
        ("access", {"path": "/nope"}, "ENOENT"),
        ("readlink", {"path": "/d/f"}, "EINVAL"),
        ("statfs", {"path": "/nope"}, "ENOENT"),
        ("fstatfs", {"fd": 99}, "EBADF"),
        ("mkdir", {"path": "/d"}, "EEXIST"),
        ("rmdir", {"path": "/d/f"}, "ENOTDIR"),
        ("getdents", {"fd": 99}, "EBADF"),
        ("unlink", {"path": "/d"}, "EISDIR"),
        ("rename", {"old": "/nope", "new": "/d/g"}, "ENOENT"),
        ("link", {"target": "/d", "path": "/d/g"}, "EPERM"),
        ("symlink", {"target": "/t", "path": "/d/f"}, "EEXIST"),
        ("truncate", {"path": "/nope", "length": 0}, "ENOENT"),
        ("ftruncate", {"fd": 99, "length": 0}, "EBADF"),
        ("chmod", {"path": "/nope"}, "ENOENT"),
        ("fchmod", {"fd": 99}, "EBADF"),
        ("chown", {"path": "/nope"}, "ENOENT"),
        ("futimes", {"fd": 99}, "EBADF"),
        ("utimes", {"path": "/nope"}, "ENOENT"),
        ("dup", {"fd": 99}, "EBADF"),
        ("dup2", {"fd": 99, "newfd": 5}, "EBADF"),
        ("fcntl", {"fd": 99, "cmd": "F_FULLFSYNC"}, "EBADF"),
        ("flock", {"fd": 99}, "EBADF"),
        ("posix_fadvise", {"fd": 99}, "EBADF"),
        ("fallocate", {"fd": 99, "length": 1}, "EBADF"),
        ("mmap", {"fd": 99, "length": 1}, "EBADF"),
        ("shm_open", {"name": "seg", "flags": "O_RDONLY"}, "ENOENT"),
        ("shm_unlink", {"name": "seg"}, "ENOENT"),
        ("chdir", {"path": "/d/f"}, "ENOTDIR"),
        ("fchdir", {"fd": 99}, "EBADF"),
        ("getattrlist", {"path": "/nope"}, "ENOENT"),
        ("setattrlist", {"path": "/nope"}, "ENOENT"),
        ("exchangedata", {"path1": "/d", "path2": "/d/f"}, "EINVAL"),
        ("getxattr", {"path": "/nope", "xname": "user.x"}, "ENOENT"),
        ("fgetxattr", {"fd": 99, "xname": "user.x"}, "EBADF"),
        ("setxattr", {"path": "/nope", "xname": "user.x"}, "ENOENT"),
        ("fsetxattr", {"fd": 99, "xname": "user.x"}, "EBADF"),
        ("listxattr", {"path": "/nope"}, "ENOENT"),
        ("flistxattr", {"fd": 99}, "EBADF"),
        ("removexattr", {"path": "/nope", "xname": "user.x"}, "ENOENT"),
        ("fremovexattr", {"fd": 99, "xname": "user.x"}, "EBADF"),
        ("aio_read", {"aiocb": "a", "fd": 99, "nbytes": 1}, "EBADF"),
        ("lio_listio", {"ops": [{"aiocb": "a", "fd": 99, "nbytes": 1}]}, "EBADF"),
    ]

    #: Methods no arguments make raise: they cannot fail, or (the aio
    #: queries) their one failure is a returned value.
    NEVER_RAISE = {"sync", "getcwd", "munmap", "msync", "pipe", "aio_suspend",
                   "aio_error", "aio_return"}

    @staticmethod
    def null_tree():
        fs = null_filesystem()
        fs.makedirs_now("/d")
        fs.create_file_now("/d/f", size=8192)
        return fs

    def test_every_bound_method_has_a_failing_case(self):
        bound = {entry.method for entry in execute.HANDLERS.values()
                 if isinstance(entry, execute.Row)}
        bound |= {execute.bind("fcntl", {"fd": 3, "cmd": cmd})[0]
                  for cmd in ("F_FULLFSYNC", "F_DUPFD", "F_PREALLOCATE",
                              "F_RDADVISE", "F_GETFL")}
        bound.add(execute.bind("lio_listio", {})[0])
        covered = {execute.bind(REGISTRY[name].kind, args)[0]
                   for name, args, _ in self.FAILING}
        assert covered | self.NEVER_RAISE == bound
        assert not covered & self.NEVER_RAISE

    @pytest.mark.parametrize("name, args, errno", FAILING,
                             ids=[case[0] for case in FAILING])
    def test_op_raises_and_a_driver_converts(self, name, args, errno):
        tree = self.null_tree()
        method, argv, kwargs = execute.bind(REGISTRY[name].kind, args)
        op = getattr(tree, method)(1, *argv, **kwargs)
        with pytest.raises(FileSystem.FAILURES) as raised:
            for _ in op:  # driven bare: nothing converts
                pass
        assert raised.value.errno == errno
        tree = self.null_tree()
        assert drain(tree, perform(tree, 1, name, args)) == (-1, errno)

    @pytest.mark.parametrize("name, args, errno", FAILING[:4],
                             ids=[case[0] for case in FAILING[:4]])
    def test_the_tracer_converts_and_charges(self, name, args, errno):
        fs = make_fs()
        fs.makedirs_now("/d")
        fs.create_file_now("/d/f", size=8192)
        assert run(fs, TracedOS(fs).call(1, name, **args)) == (-1, errno)
        assert fs.engine.now == fs.stack.META_CPU  # the one failed-call charge

    def test_value_failures_stay_values(self, tree):
        """A missing xattr and an unknown aio control block are results
        the op returns, not raises, so no failed-call charge is added:
        an aio query costs its own one charge."""
        fs = tree
        for method, argv, errno in [("getxattr", ("/d/f", "user.x"), "ENODATA"),
                                    ("aio_error", ("nope",), "EINVAL"),
                                    ("aio_return", ("nope",), "EINVAL")]:
            start = fs.engine.now
            op = getattr(fs, method)(1, *argv)
            assert fs.engine.run_process(op) == (-1, errno), method
            if method != "getxattr":
                assert fs.engine.now - start == pytest.approx(fs.stack.META_CPU), method

    def test_no_converting_layer(self):
        assert not hasattr(FileSystem, "_run")
        assert not hasattr(FileSystem, "op_count")
