"""VFS tests: hints, mmap, shm, fcntl, and attribute-list calls."""

import pytest

from repro.vfs import flags as F
from tests.conftest import make_fs, run, syscall


@pytest.fixture
def fs():
    filesystem = make_fs()
    filesystem.create_file_now("/data", size=1 << 20)
    return filesystem


def call(fs, gen):
    return run(fs, gen)


def opened(fs, path="/data", flags=F.O_RDWR):
    fd, err = call(fs, fs.open(1, path, flags))
    assert err is None
    return fd


class TestHints(object):
    def test_fadvise_prefetches(self, fs):
        fd = opened(fs)
        call(fs, fs.fadvise(1, fd, 0, 65536))
        fs.engine.run()  # drain the async readahead
        assert fs.stack.cache.contains((fs.lookup("/data").ino, 0))

    def test_fadvise_then_read_is_fast(self, fs):
        fd = opened(fs)
        call(fs, fs.fadvise(1, fd, 0, 65536))
        fs.engine.run()

        def body():
            start = fs.engine.now
            yield from syscall(fs, fs.pread(1, fd, 65536, 0))
            return fs.engine.now - start

        # Clock may keep advancing afterwards for async readahead; only
        # the in-call latency matters here.
        assert run(fs, body()) < 0.001

    def test_fallocate_extends_size(self, fs):
        fd = opened(fs)
        assert call(fs, fs.fallocate(1, fd, 1 << 20, 65536)) == (0, None)
        assert fs.lookup("/data").size == (1 << 20) + 65536

    def test_flock_succeeds(self, fs):
        fd = opened(fs)
        assert call(fs, fs.flock(1, fd)) == (0, None)

    def test_flock_bad_fd(self, fs):
        assert call(fs, fs.flock(1, 99)) == (-1, "EBADF")


class TestMmap(object):
    def test_mmap_faults_in_pages(self, fs):
        fd = opened(fs)
        addr, err = call(fs, fs.mmap(1, fd, 0, 65536))
        assert err is None
        assert addr > 0
        assert fs.stack.cache.contains((fs.lookup("/data").ino, 0))

    def test_anonymous_mmap(self, fs):
        addr, err = call(fs, fs.mmap(1, -1, 0, 4096))
        assert err is None

    def test_munmap_msync(self, fs):
        assert call(fs, fs.munmap(1, 0x7F0000000000, 4096)) == (0, None)
        assert call(fs, fs.msync(1, 0x7F0000000000, 4096)) == (0, None)


class TestShm(object):
    def test_shm_open_creates_under_dev_shm(self, fs):
        fd, err = call(fs, fs.shm_open(1, "seg"))
        assert err is None
        assert fs.exists("/dev/shm/seg")

    def test_shm_unlink(self, fs):
        call(fs, fs.shm_open(1, "seg"))
        assert call(fs, fs.shm_unlink(1, "seg")) == (0, None)
        assert not fs.exists("/dev/shm/seg")


class TestAttributeLists(object):
    def test_getattrlist_like_stat(self, fs):
        stat, err = call(fs, fs.getattrlist(1, "/data"))
        assert err is None
        assert stat.size == 1 << 20

    def test_getattrlist_missing(self, fs):
        assert call(fs, fs.getattrlist(1, "/zzz")) == (-1, "ENOENT")

    def test_setattrlist(self, fs):
        assert call(fs, fs.setattrlist(1, "/data")) == (0, None)


class TestMetaWrites(object):
    def test_chmod(self, fs):
        assert call(fs, fs.chmod(1, "/data", 0o400)) == (0, None)
        assert fs.lookup("/data").mode == 0o400

    def test_fchmod(self, fs):
        fd = opened(fs)
        assert call(fs, fs.fchmod(1, fd, 0o755)) == (0, None)
        assert fs.lookup("/data").mode == 0o755

    def test_fchmod_on_pipe_is_a_noop(self, fs):
        # A pipe has no inode: this used to die with a bare KeyError.
        (read_end, write_end), err = call(fs, fs.pipe(1))
        assert err is None
        for fd in (read_end, write_end):
            assert call(fs, fs.fchmod(1, fd, 0o600)) == (0, None)

    def test_fchmod_bad_fd(self, fs):
        assert call(fs, fs.fchmod(1, 99, 0o600)) == (-1, "EBADF")

    def test_utimes_and_chown(self, fs):
        assert call(fs, fs.utimes(1, "/data")) == (0, None)
        assert call(fs, fs.chown(1, "/data")) == (0, None)

    def test_utimes_missing(self, fs):
        assert call(fs, fs.utimes(1, "/zzz")) == (-1, "ENOENT")


class TestFchdir(object):
    def test_fchdir_moves_cwd(self, fs):
        fs.makedirs_now("/a/b")
        fs.create_file_now("/a/b/c", size=10)
        fd = opened(fs, "/a/b", F.O_RDONLY | F.O_DIRECTORY)
        assert call(fs, fs.fchdir(1, fd)) == (0, None)
        assert fs.cwd == fs.lookup("/a/b").ino
        stat, err = call(fs, fs.stat(1, "c"))
        assert err is None and stat.size == 10

    def test_fchdir_on_regular_file_enotdir(self, fs):
        # Used to make the file the cwd, breaking every relative walk.
        fd = opened(fs)
        cwd = fs.cwd
        assert call(fs, fs.fchdir(1, fd)) == (-1, "ENOTDIR")
        assert fs.cwd == cwd
        assert call(fs, fs.stat(1, "data"))[1] is None

    def test_fchdir_on_pipe_enotdir(self, fs):
        # Used to set cwd to None; the *next* relative walk then raised.
        (read_end, _), _ = call(fs, fs.pipe(1))
        cwd = fs.cwd
        assert call(fs, fs.fchdir(1, read_end)) == (-1, "ENOTDIR")
        assert fs.cwd == cwd
        assert call(fs, fs.stat(1, "data"))[1] is None

    def test_fchdir_bad_fd(self, fs):
        assert call(fs, fs.fchdir(1, 99)) == (-1, "EBADF")
