"""Direct unit tests for the compiler's trace model."""

import pytest

from repro.core.fsstate import FsState
from repro.core.resources import FD, FILE, PATH, Role
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import TraceRecord


def rec(idx, tid, name, args, ret=0, err=None):
    t = float(idx)
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.1)


def snapshot(*entries):
    snap = Snapshot()
    for entry in entries:
        snap.add(*entry)
    return snap


def touches_of(state, record):
    touches, _ann = state.apply(record)
    return touches


def keys(touches, kind=None, role=None):
    return [
        key
        for key, key_role in touches
        if (kind is None or key[0] == kind) and (role is None or key_role == role)
    ]


class TestResolution(object):
    def test_snapshot_tree_loaded(self):
        state = FsState(snapshot(("/a", "dir"), ("/a/f", "reg", 10)))
        node = state.fs.lookup("/a/f")
        assert node is not None
        assert node.ftype == "reg"

    def test_symlink_following(self):
        state = FsState(
            snapshot(("/a", "dir"), ("/a/f", "reg", 10), ("/l", "symlink", 0, "/a/f"))
        )
        res = state.fs.walk("/l", follow=True)
        assert res.inode.ftype == "reg"
        assert state.hops(res) == [state.fs.lookup("/l", follow=False).ino]

    def test_nofollow_returns_the_link(self):
        state = FsState(snapshot(("/l", "symlink", 0, "/target")))
        res = state.fs.walk("/l", follow=False)
        assert res.inode.ftype == "symlink"
        assert state.hops(res) == []  # reached, not followed

    def test_relative_symlink(self):
        state = FsState(
            snapshot(("/a", "dir"), ("/a/f", "reg", 1), ("/a/l", "symlink", 0, "f"))
        )
        assert state.fs.lookup("/a/l").ftype == "reg"

    def test_symlink_loop_gives_none(self):
        state = FsState(
            snapshot(("/x", "symlink", 0, "/y"), ("/y", "symlink", 0, "/x"))
        )
        assert state.fs.walk("/x") is None

    def test_base_tree_has_devfs(self):
        state = FsState()
        assert state.fs.lookup("/dev/random") is not None
        assert state.fs.lookup("/tmp") is not None

    def test_cwd_relative_paths(self):
        state = FsState(snapshot(("/a", "dir"), ("/a/f", "reg", 1)))
        state.cwd = "/a"
        assert state._norm("f") == "/a/f"


class TestPathGenerations(object):
    def test_create_bumps_generation(self):
        state = FsState(snapshot(("/d", "dir")))
        touches = touches_of(
            state, rec(0, 1, "open", {"path": "/d/x", "flags": "O_CREAT|O_WRONLY"}, ret=3)
        )
        created = keys(touches, PATH, Role.CREATE)
        assert (PATH, "/d/x", 1) in created

    def test_failed_access_uses_absence_generation(self):
        state = FsState(snapshot(("/d", "dir")))
        touches = touches_of(state, rec(0, 1, "stat", {"path": "/d/x"}, ret=-1, err="ENOENT"))
        assert (PATH, "/d/x", 0) in keys(touches, PATH, Role.USE)

    def test_unlink_creates_absence_generation(self):
        state = FsState(snapshot(("/d", "dir"), ("/d/x", "reg", 1)))
        touches = touches_of(state, rec(0, 1, "unlink", {"path": "/d/x"}))
        assert (PATH, "/d/x", 0) in keys(touches, PATH, Role.DELETE)
        assert (PATH, "/d/x", 1) in keys(touches, PATH, Role.CREATE)
        # A later failed stat lands in the new absence generation.
        touches = touches_of(state, rec(1, 2, "stat", {"path": "/d/x"}, ret=-1, err="ENOENT"))
        assert (PATH, "/d/x", 1) in keys(touches, PATH, Role.USE)

    def test_recreate_continues_the_chain(self):
        state = FsState(snapshot(("/d", "dir"), ("/d/x", "reg", 1)))
        touches_of(state, rec(0, 1, "unlink", {"path": "/d/x"}))
        touches = touches_of(
            state, rec(1, 1, "open", {"path": "/d/x", "flags": "O_CREAT|O_WRONLY"}, ret=3)
        )
        assert (PATH, "/d/x", 2) in keys(touches, PATH, Role.CREATE)


class TestDirectoryRename(object):
    @pytest.fixture
    def state(self):
        return FsState(
            snapshot(
                ("/d", "dir"),
                ("/d/sub", "dir"),
                ("/d/sub/f1", "reg", 1),
                ("/d/sub/f2", "reg", 1),
            )
        )

    def test_descendant_files_touched(self, state):
        ino_f1 = state.fs.lookup("/d/sub/f1").ino
        ino_f2 = state.fs.lookup("/d/sub/f2").ino
        touches = touches_of(state, rec(0, 1, "rename", {"old": "/d/sub", "new": "/d/moved"}))
        file_keys = keys(touches, FILE)
        assert (FILE, ino_f1) in file_keys
        assert (FILE, ino_f2) in file_keys

    def test_old_and_new_descendant_paths_transition(self, state):
        touches = touches_of(state, rec(0, 1, "rename", {"old": "/d/sub", "new": "/d/moved"}))
        names = {key[1] for key in keys(touches, PATH)}
        assert {"/d/sub", "/d/moved", "/d/sub/f1", "/d/moved/f1",
                "/d/sub/f2", "/d/moved/f2"} <= names

    def test_rename_onto_itself_keeps_the_descendant_order(self, state):
        inos = [state.fs.lookup(p).ino for p in ("/d/sub/f1", "/d/sub/f2")]
        touches_of(state, rec(0, 1, "rename", {"old": "/d/sub/f1", "new": "/d/sub/f1"}))
        touches = touches_of(state, rec(1, 1, "rename", {"old": "/d/sub", "new": "/d/moved"}))
        assert [key[1] for key in keys(touches, FILE)][-2:] == inos

    def test_tree_actually_moves(self, state):
        touches_of(state, rec(0, 1, "rename", {"old": "/d/sub", "new": "/d/moved"}))
        assert state.fs.lookup("/d/moved/f1") is not None
        assert state.fs.lookup("/d/sub") is None


class TestFdBookkeeping(object):
    def test_reuse_gets_new_generation(self):
        state = FsState(snapshot(("/f", "reg", 1), ("/g", "reg", 1)))
        _t, ann = state.apply(rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3))
        assert ann["ret_fd"] == 0
        state.apply(rec(1, 1, "close", {"fd": 3}))
        _t, ann = state.apply(rec(2, 1, "open", {"path": "/g", "flags": "O_RDONLY"}, ret=3))
        assert ann["ret_fd"] == 1

    def test_use_binds_to_current_generation(self):
        state = FsState(snapshot(("/f", "reg", 1)))
        state.apply(rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3))
        touches, ann = state.apply(rec(1, 2, "read", {"fd": 3, "nbytes": 10}, ret=10))
        assert ann["fd"] == 0
        assert (FD, 3, 0) in [key for key, _role in touches]

    def test_fd_use_touches_underlying_file(self):
        state = FsState(snapshot(("/f", "reg", 1)))
        ino = state.fs.lookup("/f").ino
        state.apply(rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3))
        touches, _ann = state.apply(rec(1, 1, "read", {"fd": 3, "nbytes": 10}, ret=10))
        assert (FILE, ino) in keys(touches, FILE)

    def test_untracked_fd_gets_implicit_binding(self):
        state = FsState()
        touches, ann = state.apply(rec(0, 1, "write", {"fd": 1, "nbytes": 5}, ret=5))
        assert ann["fd"] == 0  # stdout opened before the trace began

    def test_dup_creates_generation_for_new_number(self):
        state = FsState(snapshot(("/f", "reg", 1)))
        state.apply(rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3))
        touches, ann = state.apply(rec(1, 1, "dup", {"fd": 3}, ret=4))
        assert ann["ret_fd"] == 0
        assert (FD, 4, 0) in keys(touches, FD, Role.CREATE)

    def test_failed_use_of_a_bound_number_uses_its_generation(self):
        # The stage rule: the failed write still waits for its creator.
        state = FsState(snapshot(("/f", "reg", 1)))
        state.apply(rec(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"}, ret=3))
        touches, ann = state.apply(rec(
            1, 2, "pwrite", {"fd": 3, "nbytes": 10, "offset": 0}, ret=-1, err="EBADF"))
        assert ann["fd"] == 0
        assert keys(touches, FD, Role.USE) == [(FD, 3, 0)]
        assert keys(touches, FILE) == []

    def test_failed_use_of_an_unbound_number_touches_nothing(self):
        state = FsState()
        touches, ann = state.apply(rec(
            0, 1, "pwrite", {"fd": 7, "nbytes": 10, "offset": 0}, ret=-1, err="EBADF"))
        assert keys(touches, FD) == keys(touches, FILE) == []
        assert "fd" not in ann

    def test_pipe_creates_two(self):
        state = FsState()
        touches, ann = state.apply(rec(0, 1, "pipe", {}, ret=[3, 4]))
        assert ann["ret_fds"] == [0, 0]
        assert len(keys(touches, FD, Role.CREATE)) == 2


class TestHardLinksAndIdentity(object):
    def test_two_paths_one_file(self):
        state = FsState(snapshot(("/f", "reg", 1)))
        ino = state.fs.lookup("/f").ino
        state.apply(rec(0, 1, "link", {"target": "/f", "path": "/g"}))
        assert state.fs.lookup("/g").ino == ino

    def test_unlink_of_one_link_is_use_not_delete(self):
        state = FsState(snapshot(("/f", "reg", 1)))
        ino = state.fs.lookup("/f").ino
        state.apply(rec(0, 1, "link", {"target": "/f", "path": "/g"}))
        touches = touches_of(state, rec(1, 1, "unlink", {"path": "/f"}))
        roles = {role for key, role in touches if key == (FILE, ino)}
        assert roles == {Role.USE}

    def test_final_unlink_is_delete(self):
        state = FsState(snapshot(("/f", "reg", 1)))
        ino = state.fs.lookup("/f").ino
        touches = touches_of(state, rec(0, 1, "unlink", {"path": "/f"}))
        assert (FILE, ino) in keys(touches, FILE, Role.DELETE)

    def test_access_via_symlink_shares_file_uid(self):
        state = FsState(snapshot(("/f", "reg", 1), ("/l", "symlink", 0, "/f")))
        ino = state.fs.lookup("/f").ino
        touches, _ = state.apply(rec(0, 1, "stat", {"path": "/l"}))
        assert (FILE, ino) in keys(touches, FILE)


class TestRobustness(object):
    def test_contradictory_record_counts_model_miss(self):
        state = FsState()
        # Trace claims this open of a nonexistent deep path succeeded.
        state.apply(rec(0, 1, "open", {"path": "/no/such/dir/f", "flags": "O_RDONLY"}, ret=3))
        assert state.model_misses == 1

    def test_unmodeled_call_touches_thread_only(self):
        state = FsState()
        touches, ann = state.apply(rec(0, 1, "getcwd", {}, ret="/"))
        assert keys(touches, "thread") == [("thread", 1)]
        assert len(touches) == 1

    def test_failed_ops_do_not_mutate(self):
        state = FsState(snapshot(("/d", "dir")))
        state.apply(rec(0, 1, "mkdir", {"path": "/d/x"}, ret=-1, err="EEXIST"))
        assert state.fs.lookup("/d/x") is None

    def test_chdir_changes_relative_base(self):
        state = FsState(snapshot(("/d", "dir"), ("/d/f", "reg", 1)))
        state.apply(rec(0, 1, "chdir", {"path": "/d"}))
        touches, _ = state.apply(rec(1, 1, "stat", {"path": "f"}))
        assert any(key[1] == "/d/f" for key in keys(touches, PATH))

    def test_fchdir_through_a_refused_open_keeps_both_cwds(self):
        # The open is refused (no /d yet), so its descriptor has a name
        # and no null-machine descriptor; the fchdir is refused too.
        state = FsState(snapshot(("/f", "reg", 1)))
        state.apply(rec(0, 1, "open", {"path": "/d", "flags": "O_RDONLY|O_DIRECTORY"}, ret=3))
        state.apply(rec(1, 1, "fchdir", {"fd": 3}))
        assert state.model_misses == 2
        assert (state.cwd, state.fs.cwd) == ("/", state.fs.lookup("/").ino)
        touches, _ = state.apply(rec(2, 1, "stat", {"path": "f"}))
        assert (PATH, "/f", 0) in keys(touches, PATH)
        assert (FILE, state.fs.lookup("/f").ino) in keys(touches, FILE)

    def test_fchdir_through_a_refused_open_follows_its_name(self):
        # Once the name exists, the fchdir moves both cwds to it.
        state = FsState(snapshot(("/f", "reg", 1)))
        state.apply(rec(0, 1, "open", {"path": "/d", "flags": "O_RDONLY|O_DIRECTORY"}, ret=3))
        state.apply(rec(1, 1, "mkdir", {"path": "/d"}))
        state.apply(rec(2, 1, "open", {"path": "/d/f", "flags": "O_CREAT|O_WRONLY"}, ret=4))
        state.apply(rec(3, 1, "fchdir", {"fd": 3}))
        assert state.model_misses == 1
        assert (state.cwd, state.fs.cwd) == ("/d", state.fs.lookup("/d").ino)
        touches, _ = state.apply(rec(4, 1, "stat", {"path": "f"}))
        assert (PATH, "/d/f", 1) in keys(touches, PATH)
        assert (FILE, state.fs.lookup("/d/f").ino) in keys(touches, FILE)


class TestOneNamespace(object):
    """The model keeps no namespace of its own: it performs the calls
    that change one on the null machine, and only those."""

    SAMPLES = [
        ("open", {"path": "/d/f", "flags": "O_RDWR"}, 3),
        ("open", {"path": "/d", "flags": "O_RDONLY|O_DIRECTORY"}, 4),
        ("creat", {"path": "/d/new"}, 5),
        ("shm_open", {"name": "seg"}, 6),
        ("shm_unlink", {"name": "seg"}, 0),
        ("read", {"fd": 3, "nbytes": 10}, 10),
        ("write", {"fd": 3, "nbytes": 10}, 10),
        ("ftruncate", {"fd": 3, "length": 0}, 0),
        ("stat", {"path": "/d/f"}, 0),
        ("chmod", {"path": "/d/f", "mode": 0o600}, 0),
        ("truncate", {"path": "/d/f", "length": 5}, 0),
        ("dup", {"fd": 3}, 7),
        ("dup2", {"fd": 3, "newfd": 7}, 7),
        ("fcntl", {"fd": 3, "cmd": "F_DUPFD"}, 8),
        ("fcntl", {"fd": 3, "cmd": "F_GETFL"}, 0),
        ("pipe", {}, [9, 10]),
        ("fchdir", {"fd": 4}, 0),
        ("mkdir", {"path": "/d/sub"}, 0),
        ("symlink", {"target": "f", "path": "/d/l"}, 0),
        ("link", {"target": "/d/f", "path": "/d/g"}, 0),
        ("rename", {"old": "/d/g", "new": "/d/h"}, 0),
        ("unlink", {"path": "/d/h"}, 0),
        ("rmdir", {"path": "/d/sub"}, 0),
        ("chdir", {"path": "/"}, 0),
        ("close", {"fd": 3}, 0),
    ]

    def test_exactly_the_performed_kinds_reach_the_null_machine(self, monkeypatch):
        from repro.syscalls.registry import KINDS, spec_for

        state = FsState(snapshot(("/d", "dir"), ("/d/f", "reg", 1)))
        performed, current = set(), []
        original = FsState._perform

        def spy(self, tid, name, args):
            performed.add(current[-1])
            return original(self, tid, name, args)

        monkeypatch.setattr(FsState, "_perform", spy)
        for idx, (name, args, ret) in enumerate(self.SAMPLES):
            current.append(spec_for(name).kind)
            state.apply(rec(idx, 1, name, args, ret=ret))
        assert state.model_misses == 0
        assert performed == {kind for kind, spec in KINDS.items() if spec.performs}

    def test_module_keeps_no_second_model(self):
        import ast
        import repro.core.fsstate as module

        with open(module.__file__) as handle:
            tree = ast.parse(handle.read())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & {"SymNode", "resolve", "load_snapshot",
                              "_mkdir_quiet", "_setup_base_tree", "_clone_record"}
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert {"perform", "null_filesystem", "flags_of"} <= imported
        assert not imported & {"Errno", "VfsError", "Inode", "InodeTable", "resolve"}

    def test_creat_leaves_its_record_alone(self):
        from repro.artc import compile_trace
        from repro.core.resources import FILE
        from repro.lint.conflicts import touch_mutates
        from repro.syscalls.registry import spec_for
        from repro.tracing.trace import Trace

        record = rec(0, 1, "creat", {"path": "/d/f", "mode": 0o644}, ret=3)
        bench = compile_trace(Trace([record]), snapshot(("/d", "dir"), ("/d/f", "reg", 9)))
        assert bench.actions[0].record.args == {"path": "/d/f", "mode": 0o644}
        assert touch_mutates(FILE, Role.USE, spec_for("creat"), record)
