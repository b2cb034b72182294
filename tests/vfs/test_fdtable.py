"""Unit tests for the descriptor table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vfs.errnos import Errno, VfsError
from repro.vfs.fdtable import FDTable, OpenFile


def of(ino=1):
    return OpenFile(ino, 0)


class TestAllocation(object):
    def test_starts_at_three(self):
        table = FDTable()
        assert table.alloc(of()) == 3

    def test_lowest_free_policy(self):
        table = FDTable()
        fds = [table.alloc(of()) for _ in range(4)]
        assert fds == [3, 4, 5, 6]
        table.remove(4)
        assert table.alloc(of()) == 4

    def test_lowest_floor_respected(self):
        table = FDTable()
        assert table.alloc(of(), lowest=10) == 10
        assert table.alloc(of(), lowest=10) == 11

    def test_get_unknown_raises_ebadf(self):
        with pytest.raises(VfsError) as info:
            FDTable().get(5)
        assert info.value.errno == "EBADF"


class TestDup(object):
    def test_dup_shares_description(self):
        table = FDTable()
        fd = table.alloc(of())
        dup_fd = table.dup(fd)
        assert table.get(fd) is table.get(dup_fd)
        assert table.get(fd).refcount == 2

    def test_remove_returns_description_only_at_last_ref(self):
        table = FDTable()
        fd = table.alloc(of())
        dup_fd = table.dup(fd)
        assert table.remove(fd) is None
        last = table.remove(dup_fd)
        assert last is not None
        assert last.refcount == 0

    def test_dup2_same_fd_is_noop(self):
        table = FDTable()
        fd = table.alloc(of())
        assert table.dup2(fd, fd) == fd
        assert table.get(fd).refcount == 1

    def test_dup2_closes_existing_target(self):
        table = FDTable()
        fd_a = table.alloc(of(1))
        fd_b = table.alloc(of(2))
        table.dup2(fd_a, fd_b)
        assert table.get(fd_b).ino == 1

    def test_open_fds_sorted(self):
        table = FDTable()
        for _ in range(3):
            table.alloc(of())
        assert table.open_fds() == [3, 4, 5]

    def test_contains_and_len(self):
        table = FDTable()
        fd = table.alloc(of())
        assert fd in table
        assert len(table) == 1


class LinearProbeTable(FDTable):
    """The reference: ``alloc`` walks up from the floor on every call,
    as it did before the table kept a lowest-possibly-free hint."""

    def alloc(self, open_file, lowest=None):
        fd = FDTable.FIRST_FD if lowest is None else lowest
        while fd in self._fds:
            fd += 1
        if fd >= FDTable.MAX_FDS:
            raise VfsError(Errno.EMFILE)
        self._fds[fd] = open_file
        return fd


SMALL_FD = st.integers(0, 12)
#: Floors below the std streams, among the open descriptors, and at
#: the table's end (EMFILE).
FLOOR = st.one_of(st.none(), SMALL_FD,
                  st.sampled_from([FDTable.MAX_FDS - 2, FDTable.MAX_FDS]))
FD_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), FLOOR),
        st.tuples(st.just("alloc"), st.none()),
        st.tuples(st.just("dup"), SMALL_FD, FLOOR),
        st.tuples(st.just("dup2"), SMALL_FD, SMALL_FD),
        st.tuples(st.just("remove"), SMALL_FD),
        st.tuples(st.just("remove"), SMALL_FD),
    ),
    min_size=1, max_size=60,
)


def apply(table, step):
    try:
        if step[0] == "alloc":
            return table.alloc(of(), step[1])
        if step[0] == "remove":
            return table.remove(step[1]) is not None
        return getattr(table, step[0])(*step[1:])
    except VfsError as exc:
        return exc.errno


class TestLowestFreeHint(object):
    @settings(max_examples=300, deadline=None)
    @given(FD_STEPS)
    def test_same_descriptors_as_the_linear_probe(self, steps):
        hinted, probed = FDTable(), LinearProbeTable()
        for step in steps:
            assert apply(hinted, step) == apply(probed, step)
            assert hinted.open_fds() == probed.open_fds()

    def test_probe_does_not_walk_the_open_descriptors(self):
        table = FDTable()
        for _ in range(200):
            table.alloc(of())
        table.remove(150)
        lookups = []

        class Spy(dict):
            def __contains__(self, fd):
                lookups.append(fd)
                return dict.__contains__(self, fd)

        table._fds = Spy(table._fds)
        assert table.alloc(of()) == 150
        assert table.alloc(of()) == 203
        assert len(lookups) <= 60  # 150, then 151..203; never 3..149
