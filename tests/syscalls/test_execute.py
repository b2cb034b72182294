"""Tests for the unified executor."""

import inspect

import pytest

from repro.syscalls import execute
from repro.syscalls.execute import ExecContext, perform
from repro.syscalls.registry import REGISTRY
from repro.vfs import flags as F
from repro.vfs.filesystem import FileSystem
from tests.conftest import make_fs, run


@pytest.fixture
def ctx():
    fs = make_fs()
    fs.makedirs_now("/d")
    fs.create_file_now("/d/f", size=8192)
    return ExecContext(fs)


def call(ctx, name, /, **args):
    return run(ctx.fs, perform(ctx, 1, name, args))


class TestBasicDispatch(object):
    def test_open_read_close_round_trip(self, ctx):
        fd, err = call(ctx, "open", path="/d/f", flags="O_RDONLY")
        assert err is None
        n, err = call(ctx, "read", fd=fd, nbytes=100)
        assert (n, err) == (100, None)
        assert call(ctx, "close", fd=fd) == (0, None)

    def test_symbolic_flag_strings_parsed(self, ctx):
        fd, err = call(ctx, "open", path="/d/new", flags="O_WRONLY|O_CREAT|O_EXCL")
        assert err is None
        assert ctx.fs.exists("/d/new")

    def test_numeric_flags_accepted(self, ctx):
        from repro.vfs import flags as F

        fd, err = call(ctx, "open", path="/d/f", flags=F.O_RDONLY)
        assert err is None

    def test_alias_names_dispatch(self, ctx):
        fd, _ = call(ctx, "open64", path="/d/f", flags="O_RDONLY")
        n, err = call(ctx, "pread64", fd=fd, nbytes=10, offset=0)
        assert (n, err) == (10, None)
        stat, err = call(ctx, "stat64", path="/d/f")
        assert err is None

    def test_errors_propagate(self, ctx):
        assert call(ctx, "open", path="/missing/f", flags="O_RDONLY") == (-1, "ENOENT")
        assert call(ctx, "unlink", path="/d/zzz") == (-1, "ENOENT")

    def test_unknown_name_raises(self, ctx):
        from repro.errors import UnsupportedSyscallError

        with pytest.raises(UnsupportedSyscallError):
            call(ctx, "frobnicate", path="/d/f")


class TestFcntlDispatch(object):
    def test_dupfd(self, ctx):
        fd, _ = call(ctx, "open", path="/d/f", flags="O_RDONLY")
        new, err = call(ctx, "fcntl", fd=fd, cmd="F_DUPFD")
        assert err is None and new != fd

    def test_fullfsync(self, ctx):
        fd, _ = call(ctx, "open", path="/d/f", flags="O_RDWR")
        call(ctx, "write", fd=fd, nbytes=4096)
        assert call(ctx, "fcntl", fd=fd, cmd="F_FULLFSYNC") == (0, None)
        assert ctx.fs.stack.cache.dirty_count == 0

    def test_preallocate(self, ctx):
        fd, _ = call(ctx, "open", path="/d/f", flags="O_RDWR")
        ret, err = call(ctx, "fcntl", fd=fd, cmd="F_PREALLOCATE", arg=1 << 20)
        assert err is None
        assert ctx.fs.lookup("/d/f").size >= 1 << 20

    def test_unknown_cmd_validates_fd_only(self, ctx):
        fd, _ = call(ctx, "open", path="/d/f", flags="O_RDONLY")
        assert call(ctx, "fcntl", fd=fd, cmd="F_GETPATH") == (0, None)
        assert call(ctx, "fcntl", fd=99, cmd="F_GETPATH") == (-1, "EBADF")


class TestComplexKinds(object):
    def test_pipe_returns_pair(self, ctx):
        (r, w), err = call(ctx, "pipe")
        assert err is None
        assert r != w

    def test_lio_listio_submits_batch(self, ctx):
        fd, _ = call(ctx, "open", path="/d/f", flags="O_RDWR")
        ops = [
            {"aiocb": "a", "fd": fd, "nbytes": 100, "offset": 0},
            {"aiocb": "b", "fd": fd, "nbytes": 100, "offset": 4096, "is_write": True},
        ]
        ret, err = call(ctx, "lio_listio", ops=ops)
        assert err is None
        assert call(ctx, "aio_suspend", aiocbs=["a", "b"]) == (0, None)

    def test_getcwd_and_chdir(self, ctx):
        assert call(ctx, "chdir", path="/d") == (0, None)
        stat, err = call(ctx, "stat", path="f")
        assert err is None

    def test_fchdir(self, ctx):
        fd, _ = call(ctx, "open", path="/d", flags="O_RDONLY|O_DIRECTORY")
        assert call(ctx, "fchdir", fd=fd) == (0, None)
        stat, err = call(ctx, "stat", path="f")
        assert err is None

    def test_shm_name_argument(self, ctx):
        fd, err = call(ctx, "shm_open", name="seg", flags="O_RDWR|O_CREAT")
        assert err is None
        assert call(ctx, "shm_unlink", name="seg") == (0, None)

    def test_shm_open_read_only_does_not_create(self, ctx):
        """``O_RDONLY`` is the flag word 0.  Named explicitly it is not
        the absent-key default (``O_RDWR|O_CREAT``): a read-only open of
        a missing segment fails as ``open`` on that path does."""
        assert call(ctx, "shm_open", name="seg", flags="O_RDONLY") == (-1, "ENOENT")
        assert call(ctx, "shm_open", name="seg", flags=0) == (-1, "ENOENT")
        assert not ctx.fs.exists("/dev/shm/seg")
        assert call(ctx, "open", path="/dev/shm/seg", flags="O_RDONLY") == (
            -1, "ENOENT")
        fd, err = call(ctx, "shm_open", name="seg")  # no flags: create
        assert err is None and ctx.fs.exists("/dev/shm/seg")


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

    def test_every_registry_name_binds_to_a_file_system_method(self, ctx):
        assert len(REGISTRY) == 128
        for name, spec in REGISTRY.items():
            # A parsed strace / iBench line carries at most the layout's
            # names, so the row may require nothing outside it.
            assert self.required(spec.kind) <= set(spec.args), name
            args = {arg: self.SAMPLE.get(arg, 1) for arg in spec.args}
            method, argv, kwargs = execute.bind(spec.kind, args)
            bound = getattr(FileSystem, method)
            assert callable(bound), name
            inspect.signature(bound).bind(ctx.fs, 7, *argv, **kwargs)

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

    def test_missing_argument_is_a_replay_error_naming_the_call(self, ctx):
        from repro.errors import ReplayError

        with pytest.raises(ReplayError) as refused:
            perform(ctx, 1, "pread64", {"fd": 3, "offset": 0})
        assert str(refused.value) == (
            "syscall pread64 (kind pread) is missing argument 'nbytes';"
            " got ['fd', 'offset']")
