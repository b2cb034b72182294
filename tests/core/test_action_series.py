"""The paper's Figure 2 example, end to end through the trace model.

A snippet from a simple system-call trace for two threads; the trace
model must derive the action series of Figure 2(b).  Generation
numbers here count both existence and absence periods (the paper's
``@1``/``@2`` count only existence periods), so tests compare series
structure rather than literal generation values.
"""

import pytest

from repro.core.model import TraceModel
from repro.core.analysis import action_series, generations_by_name
from repro.core.resources import FILE, PATH, Role
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord


def _record(idx, tid, name, args, ret=0, err=None):
    t = float(idx)
    return TraceRecord(idx, tid, name, args, ret, err, t, t + 0.5)


@pytest.fixture(scope="module")
def model():
    snapshot = Snapshot(label="fig2")
    snapshot.add("/a", "dir")
    snapshot.add("/x", "dir")
    snapshot.add("/x/y", "dir")
    snapshot.add("/x/y/z", "reg", size=100)
    records = [
        _record(0, "T1", "mkdir", {"path": "/a/b", "mode": 0o755}),
        _record(1, "T1", "open", {"path": "/a/b/c", "flags": "O_RDWR|O_CREAT"}, ret=3),
        _record(2, "T1", "write", {"fd": 3, "nbytes": 100}, ret=100),
        _record(3, "T1", "close", {"fd": 3}),
        _record(4, "T1", "rename", {"old": "/a/b", "new": "/a/old"}),
        _record(5, "T2", "open", {"path": "/x/y/z", "flags": "O_RDONLY"}, ret=3),
        _record(6, "T2", "open", {"path": "/a/b", "flags": "O_RDWR|O_CREAT"}, ret=4),
    ]
    return TraceModel(Trace(records, label="fig2"), snapshot)


@pytest.fixture(scope="module")
def series(model):
    return action_series(model.actions)


def _file_series(model, series, path_at_time=None, uid=None):
    return {key: acts for key, acts in series.items() if key[0] == FILE}


def _uid_of(model, path):
    inode = model.state.fs.lookup(path)
    assert inode is not None
    return inode.ino


class TestThreadSeries(object):
    def test_t1(self, series):
        assert series[("thread", "T1")] == [0, 1, 2, 3, 4]

    def test_t2(self, series):
        assert series[("thread", "T2")] == [5, 6]


class TestFileSeries(object):
    def test_dir_a_touched_by_mkdir_rename_open(self, model, series):
        uid_a = _uid_of(model, "/a")
        assert series[(FILE, uid_a)] == [0, 4, 6]

    def test_dir_b_created_used_renamed(self, model, series):
        uid_b = _uid_of(model, "/a/old")  # dirB lives at /a/old after rename
        assert series[(FILE, uid_b)] == [0, 1, 4]

    def test_file1_series_includes_rename(self, model, series):
        uid_file1 = _uid_of(model, "/a/old/c")
        # Paper table lists 2,3,4 (1-based: open/write/close); the
        # rename of the parent directory also touches the file (its
        # pathname changes), as action 5's resource list shows.
        assert series[(FILE, uid_file1)] == [1, 2, 3, 4]

    def test_dir_y_only_touched_by_open(self, model, series):
        uid_y = _uid_of(model, "/x/y")
        assert series[(FILE, uid_y)] == [5]

    def test_file2_series(self, model, series):
        uid_z = _uid_of(model, "/x/y/z")
        assert series[(FILE, uid_z)] == [5]

    def test_file3_created_by_second_open(self, model, series):
        uid_file3 = _uid_of(model, "/a/b")
        assert series[(FILE, uid_file3)] == [6]


class TestPathGenerations(object):
    def test_a_b_has_two_existence_generations(self, model):
        gens = generations_by_name(model.actions)[(PATH, "/a/b")]
        # absence@0 -> exists(1,5) -> absence -> exists(7): the paper's
        # path(/a/b)@1 = [1,5] and path(/a/b)@2 = [7] (1-based).
        flattened = [acts for acts in gens if acts]
        assert [0, 4] in flattened  # mkdir creates, rename deletes
        assert flattened[-1] == [6]  # recreated by T2's open

    def test_a_b_c_generation(self, model):
        gens = generations_by_name(model.actions)[(PATH, "/a/b/c")]
        flattened = [acts for acts in gens if acts]
        assert [1, 4] in flattened  # open creates, dir rename deletes

    def test_new_paths_created_by_rename(self, model):
        by_name = generations_by_name(model.actions)
        assert [4] in by_name[(PATH, "/a/old")]
        assert [4] in by_name[(PATH, "/a/old/c")]

    def test_x_y_z_single_use(self, model):
        gens = generations_by_name(model.actions)[(PATH, "/x/y/z")]
        assert [acts for acts in gens if acts] == [[5]]


class TestFdGenerations(object):
    def test_fd3_two_generations(self, model):
        gens = generations_by_name(model.actions)[("fd", 3)]
        assert gens == [[1, 2, 3], [5]]

    def test_fd4_one_generation(self, model):
        gens = generations_by_name(model.actions)[("fd", 4)]
        assert gens == [[6]]


class TestRolesAndAnnotations(object):
    def test_mkdir_creates_dir_file_resource(self, model):
        touches = model.actions[0].touches
        uid_b = _uid_of(model, "/a/old")
        assert ((FILE, uid_b), Role.CREATE) in touches

    def test_open_annotation_carries_fd_generation(self, model):
        assert model.actions[1].ann["ret_fd"] == 0
        assert model.actions[5].ann["ret_fd"] == 1  # fd 3 reused
        assert model.actions[6].ann["ret_fd"] == 0  # fd 4 first use

    def test_write_close_annotations(self, model):
        assert model.actions[2].ann["fd"] == 0
        assert model.actions[3].ann["fd"] == 0

    def test_no_model_misses_on_clean_trace(self, model):
        assert model.model_misses == 0

    def test_rename_touches_four_paths(self, model):
        touches = model.actions[4].touches
        path_names = {key[1] for key, _role in touches if key[0] == PATH}
        assert path_names == {"/a/b", "/a/b/c", "/a/old", "/a/old/c"}
