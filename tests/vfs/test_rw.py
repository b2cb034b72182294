"""VFS tests: read/write/seek/truncate/fsync data-path semantics."""

import pytest

from repro.vfs import flags as F
from tests.conftest import make_fs, run, syscall


@pytest.fixture
def fs():
    filesystem = make_fs()
    filesystem.makedirs_now("/d")
    filesystem.create_file_now("/d/file", size=10000)
    return filesystem


def call(fs, gen):
    return run(fs, gen)


def opened(fs, path, flags):
    fd, err = call(fs, fs.open(1, path, flags))
    assert err is None
    return fd


class TestRead(object):
    def test_read_advances_offset(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.read(1, fd, 4000))[0] == 4000
        assert call(fs, fs.read(1, fd, 4000))[0] == 4000
        assert call(fs, fs.read(1, fd, 4000))[0] == 2000  # EOF-short
        assert call(fs, fs.read(1, fd, 4000))[0] == 0

    def test_pread_does_not_move_offset(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.pread(1, fd, 100, 5000))[0] == 100
        assert call(fs, fs.read(1, fd, 10000))[0] == 10000

    def test_pread_past_eof_returns_zero(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.pread(1, fd, 100, 99999)) == (0, None)

    def test_read_wronly_ebadf(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY)
        assert call(fs, fs.read(1, fd, 10)) == (-1, "EBADF")

    def test_read_directory_eisdir(self, fs):
        fd = opened(fs, "/d", F.O_RDONLY)
        assert call(fs, fs.read(1, fd, 10)) == (-1, "EISDIR")


class TestWrite(object):
    def test_write_extends_file(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY)
        call(fs, fs.pwrite(1, fd, 5000, 8000))
        assert fs.lookup("/d/file").size == 13000

    def test_write_within_does_not_shrink(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY)
        call(fs, fs.pwrite(1, fd, 10, 0))
        assert fs.lookup("/d/file").size == 10000

    def test_append_mode_writes_at_end(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY | F.O_APPEND)
        call(fs, fs.write(1, fd, 100))
        assert fs.lookup("/d/file").size == 10100

    def test_write_rdonly_ebadf(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.write(1, fd, 10)) == (-1, "EBADF")

    def test_write_updates_mtime(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY)
        before = fs.lookup("/d/file").mtime
        call(fs, fs.write(1, fd, 10))
        assert fs.lookup("/d/file").mtime >= before


class TestSeek(object):
    def test_seek_set_cur_end(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.lseek(1, fd, 100, F.SEEK_SET)) == (100, None)
        assert call(fs, fs.lseek(1, fd, 50, F.SEEK_CUR)) == (150, None)
        assert call(fs, fs.lseek(1, fd, -1000, F.SEEK_END)) == (9000, None)

    def test_seek_negative_einval(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.lseek(1, fd, -5, F.SEEK_SET)) == (-1, "EINVAL")

    def test_seek_bad_whence(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.lseek(1, fd, 0, 9)) == (-1, "EINVAL")

    def test_seek_past_eof_legal(self, fs):
        fd = opened(fs, "/d/file", F.O_RDONLY)
        assert call(fs, fs.lseek(1, fd, 50000, F.SEEK_SET)) == (50000, None)


class TestTruncate(object):
    def test_truncate_path(self, fs):
        assert call(fs, fs.truncate(1, "/d/file", 100)) == (0, None)
        assert fs.lookup("/d/file").size == 100

    def test_truncate_grow(self, fs):
        call(fs, fs.truncate(1, "/d/file", 50000))
        assert fs.lookup("/d/file").size == 50000

    def test_truncate_negative_einval(self, fs):
        assert call(fs, fs.truncate(1, "/d/file", -1)) == (-1, "EINVAL")

    def test_ftruncate(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY)
        assert call(fs, fs.ftruncate(1, fd, 0)) == (0, None)
        assert fs.lookup("/d/file").size == 0

    def test_truncate_dir_eisdir(self, fs):
        assert call(fs, fs.truncate(1, "/d", 0)) == (-1, "EISDIR")


class TestFsync(object):
    def test_fsync_ok(self, fs):
        fd = opened(fs, "/d/file", F.O_WRONLY)
        call(fs, fs.write(1, fd, 4096))
        assert call(fs, fs.fsync(1, fd)) == (0, None)
        assert fs.stack.cache.dirty_count == 0

    def test_fsync_bad_fd(self, fs):
        assert call(fs, fs.fsync(1, 99)) == (-1, "EBADF")

    def test_darwin_fsync_skips_barrier(self):
        def workload(fs):
            def body():
                fd, _ = yield from syscall(fs, fs.open(1, "/f", F.O_CREAT | F.O_WRONLY))
                yield from syscall(fs, fs.write(1, fd, 4096))
                start = fs.engine.now
                yield from syscall(fs, fs.fsync(1, fd))
                return fs.engine.now - start

            return run(fs, body())

        linux_cost = workload(make_fs(platform="linux"))
        darwin_cost = workload(make_fs(platform="darwin"))
        assert darwin_cost < linux_cost

    def test_darwin_full_fsync_is_durable(self):
        fs = make_fs(platform="darwin")

        def body():
            fd, _ = yield from syscall(fs, fs.open(1, "/f", F.O_CREAT | F.O_WRONLY))
            yield from syscall(fs, fs.write(1, fd, 4096))
            yield from syscall(fs, fs.fsync(1, fd))
            commits_after_fsync = fs.stack.stats.journal_commits
            yield from syscall(fs, fs.write(1, fd, 4096))
            yield from syscall(fs, fs.full_fsync(1, fd))
            return commits_after_fsync, fs.stack.stats.journal_commits

        after_fsync, after_full = run(fs, body())
        # Darwin fsync only flushes to the device cache (no journal
        # commit/barrier); F_FULLFSYNC forces the real commit.
        assert after_fsync == 0
        assert after_full == 1


class TestSpecialFiles(object):
    def test_dev_null_reads_empty(self, fs):
        fd = opened(fs, "/dev/null", F.O_RDONLY)
        assert call(fs, fs.read(1, fd, 100)) == (0, None)

    def test_dev_zero_reads(self, fs):
        fd = opened(fs, "/dev/zero", F.O_RDONLY)
        assert call(fs, fs.read(1, fd, 100)) == (100, None)

    def test_dev_random_blocks_on_linux(self, fs):
        fd = opened(fs, "/dev/random", F.O_RDONLY)
        start = fs.engine.now
        call(fs, fs.read(1, fd, 64))
        assert fs.engine.now - start > 1.0  # entropy-pool stall

    def test_dev_random_fast_on_darwin(self):
        fs = make_fs(platform="darwin")
        fd = opened(fs, "/dev/random", F.O_RDONLY)
        start = fs.engine.now
        call(fs, fs.read(1, fd, 64))
        assert fs.engine.now - start < 0.01

    def test_dev_urandom_fast_everywhere(self, fs):
        fd = opened(fs, "/dev/urandom", F.O_RDONLY)
        start = fs.engine.now
        assert call(fs, fs.read(1, fd, 64)) == (64, None)
        assert fs.engine.now - start < 0.01


class TestPipes(object):
    def test_pipe_round_trip(self, fs):
        (read_end, write_end), err = call(fs, fs.pipe(1))
        assert err is None
        assert call(fs, fs.write(1, write_end, 100)) == (100, None)
        assert call(fs, fs.read(1, read_end, 100)) == (100, None)

    def test_pipe_wrong_direction_ebadf(self, fs):
        (read_end, write_end), _ = call(fs, fs.pipe(1))
        assert call(fs, fs.write(1, read_end, 10)) == (-1, "EBADF")
        assert call(fs, fs.read(1, write_end, 10)) == (-1, "EBADF")

    def test_pipe_lseek_espipe(self, fs):
        (read_end, _w), _ = call(fs, fs.pipe(1))
        assert call(fs, fs.lseek(1, read_end, 0, F.SEEK_SET)) == (-1, "ESPIPE")
