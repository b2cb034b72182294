"""VFS tests: open/close/dup semantics."""

import pytest

from repro.vfs import flags as F
from tests.conftest import make_fs, run


@pytest.fixture
def fs():
    filesystem = make_fs()
    filesystem.makedirs_now("/d")
    filesystem.create_file_now("/d/file", size=8192)
    return filesystem


def call(fs, gen):
    return run(fs, gen)


class TestOpen(object):
    def test_open_existing(self, fs):
        fd, err = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        assert err is None
        assert fd >= 3

    def test_open_missing_enoent(self, fs):
        ret, err = call(fs, fs.open(1, "/d/nope", F.O_RDONLY))
        assert (ret, err) == (-1, "ENOENT")

    def test_create(self, fs):
        fd, err = call(fs, fs.open(1, "/d/new", F.O_CREAT | F.O_WRONLY, 0o600))
        assert err is None
        assert fs.exists("/d/new")
        assert fs.lookup("/d/new").mode == 0o600

    def test_create_missing_parent_enoent(self, fs):
        ret, err = call(fs, fs.open(1, "/nope/new", F.O_CREAT | F.O_WRONLY))
        assert err == "ENOENT"

    def test_excl_collision(self, fs):
        ret, err = call(fs, fs.open(1, "/d/file", F.O_CREAT | F.O_EXCL | F.O_WRONLY))
        assert err == "EEXIST"

    def test_excl_success_when_absent(self, fs):
        fd, err = call(fs, fs.open(1, "/d/fresh", F.O_CREAT | F.O_EXCL | F.O_WRONLY))
        assert err is None

    def test_trunc_zeroes_size(self, fs):
        fd, err = call(fs, fs.open(1, "/d/file", F.O_WRONLY | F.O_TRUNC))
        assert err is None
        assert fs.lookup("/d/file").size == 0

    def test_trunc_readonly_does_not_truncate(self, fs):
        call(fs, fs.open(1, "/d/file", F.O_RDONLY | F.O_TRUNC))
        assert fs.lookup("/d/file").size == 8192

    def test_open_dir_for_write_eisdir(self, fs):
        ret, err = call(fs, fs.open(1, "/d", F.O_WRONLY))
        assert err == "EISDIR"

    def test_open_dir_readonly_ok(self, fs):
        fd, err = call(fs, fs.open(1, "/d", F.O_RDONLY))
        assert err is None

    def test_o_directory_on_file_enotdir(self, fs):
        ret, err = call(fs, fs.open(1, "/d/file", F.O_RDONLY | F.O_DIRECTORY))
        assert err == "ENOTDIR"

    def test_fd_numbers_start_at_three_and_reuse_lowest(self, fs):
        fd_a, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        fd_b, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        assert (fd_a, fd_b) == (3, 4)
        call(fs, fs.close(1, fd_a))
        fd_c, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        assert fd_c == 3

    def test_independent_offsets_per_open(self, fs):
        fd_a, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        fd_b, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        call(fs, fs.read(1, fd_a, 4096))
        n, _ = call(fs, fs.read(1, fd_b, 8192))
        assert n == 8192  # fd_b unaffected by fd_a's offset


class TestClose(object):
    def test_double_close_ebadf(self, fs):
        fd, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        assert call(fs, fs.close(1, fd)) == (0, None)
        assert call(fs, fs.close(1, fd)) == (-1, "EBADF")

    def test_close_unknown_fd_ebadf(self, fs):
        assert call(fs, fs.close(1, 77)) == (-1, "EBADF")

    def test_deleted_while_open_readable_until_close(self, fs):
        fd, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        assert call(fs, fs.unlink(1, "/d/file")) == (0, None)
        n, err = call(fs, fs.read(1, fd, 100))
        assert (n, err) == (100, None)
        ino = fs.fdt.get(fd).ino
        call(fs, fs.close(1, fd))
        assert ino not in fs.table  # inode freed at last close


class TestDup(object):
    def test_dup_shares_offset(self, fs):
        fd, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        dup_fd, err = call(fs, fs.dup(1, fd))
        assert err is None
        call(fs, fs.read(1, fd, 4096))
        n, _ = call(fs, fs.read(1, dup_fd, 8192))
        assert n == 4096  # only 4096 left: offset was shared

    def test_dup_then_close_original_still_works(self, fs):
        fd, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        dup_fd, _ = call(fs, fs.dup(1, fd))
        call(fs, fs.close(1, fd))
        n, err = call(fs, fs.read(1, dup_fd, 10))
        assert (n, err) == (10, None)

    def test_dup2_replaces_target(self, fs):
        fd, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        other, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        new, err = call(fs, fs.dup2(1, fd, other))
        assert (new, err) == (other, None)
        # both descriptors view the same description now
        call(fs, fs.read(1, fd, 4096))
        n, _ = call(fs, fs.read(1, other, 8192))
        assert n == 4096

    def test_dup_bad_fd(self, fs):
        assert call(fs, fs.dup(1, 99)) == (-1, "EBADF")

    def test_dup2_onto_itself_is_a_no_op(self, fs):
        fd, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        inode = fs.lookup("/d/file")
        assert call(fs, fs.dup2(1, fd, fd)) == (fd, None)
        assert fd in fs.fdt
        assert inode.open_count == 1  # no second reference taken
        n, err = call(fs, fs.read(1, fd, 10))
        assert (n, err) == (10, None)

    def test_dup2_bad_old_fd_leaves_new_fd_open(self, fs):
        other, _ = call(fs, fs.open(1, "/d/file", F.O_RDONLY))
        inode = fs.lookup("/d/file")
        assert call(fs, fs.dup2(1, 99, other)) == (-1, "EBADF")
        assert other in fs.fdt
        assert inode.open_count == 1
        n, err = call(fs, fs.read(1, other, 10))
        assert (n, err) == (10, None)
