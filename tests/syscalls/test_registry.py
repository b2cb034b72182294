"""Tests for the system-call registry."""

import pytest

from repro.errors import UnsupportedSyscallError
from repro.syscalls.registry import CATEGORIES, KINDS, REGISTRY, spec_for
from repro.tracing.trace import TraceRecord


class TestRegistryContents(object):
    def test_supports_over_80_calls(self):
        # The paper: "capable of replaying over 80 different system calls".
        assert len(REGISTRY) > 80

    def test_core_posix_calls_present(self):
        for name in (
            "open", "close", "read", "write", "pread", "pwrite", "lseek",
            "fsync", "stat", "lstat", "fstat", "mkdir", "rmdir", "unlink",
            "rename", "link", "symlink", "readlink", "truncate", "dup",
            "dup2", "fcntl", "mmap", "chdir", "access", "statfs",
        ):
            assert name in REGISTRY, name

    def test_darwin_specific_calls_present(self):
        for name in (
            "getattrlist", "setattrlist", "exchangedata", "getdirentriesattr",
            "stat_extended", "fstat_extended", "open_nocancel",
        ):
            assert name in REGISTRY, name
            assert REGISTRY[name].available_on("darwin")

    def test_aio_family_present(self):
        for name in ("aio_read", "aio_write", "aio_error", "aio_return",
                     "aio_suspend", "lio_listio"):
            assert name in REGISTRY

    def test_aliases_share_kinds(self):
        assert spec_for("pread64").kind == spec_for("pread").kind
        assert spec_for("open64").kind == spec_for("open").kind
        assert spec_for("stat64").kind == spec_for("stat").kind
        assert spec_for("read_nocancel").kind == spec_for("read").kind

    def test_platform_availability(self):
        assert spec_for("exchangedata").available_on("darwin")
        assert not spec_for("exchangedata").available_on("linux")
        assert not spec_for("fallocate").available_on("darwin")
        assert spec_for("open").available_on("illumos")

    def test_unknown_call_raises(self):
        with pytest.raises(UnsupportedSyscallError):
            spec_for("io_uring_enter")

    def test_categories_cover_figure10_buckets(self):
        for bucket in ("read", "write", "fsync", "stat", "meta", "aio"):
            assert bucket in CATEGORIES

    def test_every_spec_has_valid_category(self):
        for spec in REGISTRY.values():
            assert spec.category in CATEGORIES, spec.name

    def test_every_kind_has_a_handler(self):
        from repro.syscalls.execute import HANDLERS

        for spec in REGISTRY.values():
            assert spec.kind in HANDLERS, spec.name


class TestOneRowPerKind(object):
    """Every kind's row states its binding, its touch rule and what it
    performs, reads and mutates once; each consumer reads the row."""

    #: The kinds whose touch rule is thread ordering only.
    UNRULED = {"getcwd", "msync", "munmap", "statfs_global", "sync"}

    #: Argument values a successful sample record of any kind can use
    #: on :meth:`model`'s tree (fd 3 is ``/d/f``, fd 4 is ``/d``).
    ARGS = {
        "path": "/d/f", "fd": 3, "nbytes": 4, "offset": 0, "length": 4,
        "whence": 0, "mode": 0o644, "xname": "user.a", "size": 16,
        "aiocb": "cb@1", "aiocbs": ["cb@1"], "op": 0, "addr": 0,
        "newfd": 9, "cmd": "F_DUPFD", "arg": 0, "flags": "O_RDONLY",
        "name": "s", "advice": 0, "old": "/d/f", "new": "/d/h",
        "target": "/d/f", "path1": "/d/f", "path2": "/d/g",
        "ops": [{"aiocb": "cb@2", "fd": 3, "nbytes": 4, "offset": 0}],
    }
    #: Where a kind's successful sample needs other values.
    OWN_ARGS = {
        "creat": {"path": "/d/new"}, "mkdir": {"path": "/d/new"},
        "symlink": {"path": "/d/new"}, "link": {"path": "/d/new"},
        "rmdir": {"path": "/d/e"}, "chdir": {"path": "/d"}, "fchdir": {"fd": 4},
    }
    RETS = {"open": 7, "creat": 7, "shm_open": 7, "dup": 8, "dup2": 9,
            "fcntl": 10, "pipe": [11, 12]}

    @staticmethod
    def model():
        from repro.core.fsstate import FsState
        from repro.tracing.snapshot import Snapshot

        snap = Snapshot()
        for entry in (("/d", "dir"), ("/d/e", "dir"), ("/d/f", "reg", 8),
                      ("/d/g", "reg", 8), ("/dev", "dir"), ("/dev/shm", "dir"),
                      ("/dev/shm/s", "reg", 0)):
            snap.add(*entry)
        state = FsState(snap)
        for idx, (path, flags, fd) in enumerate(
                (("/d/f", "O_RDWR", 3), ("/d", "O_RDONLY|O_DIRECTORY", 4))):
            state.apply(TraceRecord(idx, 1, "open", {"path": path, "flags": flags},
                                    fd, None, 0.0, 0.1))
        return state

    def sample(self, spec):
        args = {name: self.ARGS[name] for name in spec.args}
        args.update(self.OWN_ARGS.get(spec.kind, {}))
        return TraceRecord(2, 1, spec.name, args, self.RETS.get(spec.kind, 0),
                           None, 1.0, 1.1)

    def test_every_binding_compiles(self):
        from repro.syscalls import execute
        from repro.vfs.filesystem import FileSystem

        assert sorted(execute.BIND) == sorted(KINDS)
        for kind, spec in KINDS.items():
            method, argv, kwargs = execute.BIND[kind](self.sample(spec).args)
            assert callable(getattr(FileSystem, method)), kind
            assert (kind in execute.BIND_AROUND_FD) == ("fd" in spec.args), kind

    def test_every_rule_resolves_or_is_thread_ordering_only(self):
        from repro.core.fsstate import _RULES, FsState

        unruled = {kind for kind, spec in KINDS.items() if spec.rule is None}
        assert unruled == self.UNRULED
        for name, spec in REGISTRY.items():
            rule = _RULES[name]
            assert (rule is None) == (spec.kind in self.UNRULED), name
            if rule is not None:
                assert rule.__name__.startswith("_k_"), name
                assert getattr(FsState, rule.__name__) is rule, name

    def test_performs_is_what_the_rule_performs(self, monkeypatch):
        for kind, spec in KINDS.items():
            state = self.model()
            performed = []
            monkeypatch.setattr(
                state, "_perform",
                lambda tid, name, args, real=state._perform:
                    performed.append(name) or real(tid, name, args))
            state.apply(self.sample(spec))
            assert state.model_misses == 0, kind
            assert bool(performed) == spec.performs, (kind, performed)

    def test_reads_and_mutates_name_known_values(self):
        from repro.core.resources import AIOCB, FD, FILE

        assert {kind for kind, spec in KINDS.items() if spec.reads} == {"read", "pread"}
        for kind, spec in KINDS.items():
            assert spec.mutates <= {FILE, FD, AIOCB}, kind

    def test_every_name_carries_its_rows_fields(self):
        for spec in REGISTRY.values():
            row = KINDS[spec.kind]
            for field in ("category", "binding", "rule", "reads", "performs",
                          "mutates"):
                assert getattr(spec, field) == getattr(row, field), (spec.name, field)

    @pytest.mark.parametrize("module", [
        "repro.syscalls.execute", "repro.core.fsstate", "repro.lint.conflicts",
        "repro.artc.planir", "repro.artc.replayer",
    ])
    def test_no_consumer_restates_kinds(self, module):
        """A literal naming two or more kinds in a module that reads the
        rows is a second per-kind table."""
        import ast
        import importlib

        with open(importlib.import_module(module).__file__) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            items = (node.keys if isinstance(node, ast.Dict) else
                     node.elts if isinstance(node, (ast.Set, ast.List, ast.Tuple))
                     else ())
            named = [item.value for item in items
                     if isinstance(item, ast.Constant) and item.value in KINDS]
            assert len(named) < 2, (module, node.lineno, named)
