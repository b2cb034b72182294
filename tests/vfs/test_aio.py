"""VFS tests: asynchronous I/O control blocks."""

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


def opened(fs, flags=F.O_RDWR):
    fd, err = call(fs, fs.open(1, "/data", flags))
    assert err is None
    return fd


class TestAio(object):
    def test_submit_then_suspend_then_return(self, fs):
        fd = opened(fs)

        def body():
            ret, err = yield from syscall(fs, fs.aio_submit(1, "cb1", fd, 4096, 0, False))
            assert (ret, err) == (0, None)
            status, _ = yield from syscall(fs, fs.aio_error(1, "cb1"))
            assert status in ("EINPROGRESS", 0)
            yield from syscall(fs, fs.aio_suspend(1, ["cb1"]))
            status, _ = yield from syscall(fs, fs.aio_error(1, "cb1"))
            assert status == 0
            result, err = yield from syscall(fs, fs.aio_return(1, "cb1"))
            return result, err

        assert run(fs, body()) == (4096, None)

    def test_aio_write_extends_file(self, fs):
        fd = opened(fs)

        def body():
            yield from syscall(fs, fs.aio_submit(1, "cbw", fd, 4096, 1 << 20, True))
            yield from syscall(fs, fs.aio_suspend(1, ["cbw"]))
            yield from syscall(fs, fs.aio_return(1, "cbw"))

        run(fs, body())
        assert fs.lookup("/data").size == (1 << 20) + 4096

    def test_aio_read_truncated_at_eof(self, fs):
        fd = opened(fs)

        def body():
            yield from syscall(fs, fs.aio_submit(1, "cb", fd, 9999, (1 << 20) - 100, False))
            yield from syscall(fs, fs.aio_suspend(1, ["cb"]))
            result, _ = yield from syscall(fs, fs.aio_return(1, "cb"))
            return result

        assert run(fs, body()) == 100

    def test_aio_overlaps_with_synchronous_io(self, fs):
        fd = opened(fs)

        def body():
            start = fs.engine.now
            yield from syscall(fs, fs.aio_submit(1, "cb", fd, 4096, 500000, False))
            # Synchronous read proceeds while the AIO is in flight.
            yield from syscall(fs, fs.pread(1, fd, 4096, 0))
            mid = fs.engine.now - start
            yield from syscall(fs, fs.aio_suspend(1, ["cb"]))
            total = fs.engine.now - start
            return mid, total

        mid, total = run(fs, body())
        # Overlap: the combined time is less than two serial reads.
        assert total < mid * 2

    def test_aio_error_unknown_cb_einval(self, fs):
        assert call(fs, fs.aio_error(1, "nope")) == (-1, "EINVAL")

    def test_aio_return_consumes_cb(self, fs):
        fd = opened(fs)

        def body():
            yield from syscall(fs, fs.aio_submit(1, "cb", fd, 4096, 0, False))
            yield from syscall(fs, fs.aio_suspend(1, ["cb"]))
            yield from syscall(fs, fs.aio_return(1, "cb"))
            return (yield from syscall(fs, fs.aio_return(1, "cb")))

        assert run(fs, body()) == (-1, "EINVAL")

    def test_aio_submit_bad_fd(self, fs):
        assert call(fs, fs.aio_submit(1, "cb", 99, 10, 0, False)) == (-1, "EBADF")

    def test_suspend_multiple(self, fs):
        fd = opened(fs)

        def body():
            yield from syscall(fs, fs.aio_submit(1, "a", fd, 4096, 0, False))
            yield from syscall(fs, fs.aio_submit(1, "b", fd, 4096, 500000, False))
            yield from syscall(fs, fs.aio_suspend(1, ["a", "b"]))
            ra, _ = yield from syscall(fs, fs.aio_return(1, "a"))
            rb, _ = yield from syscall(fs, fs.aio_return(1, "b"))
            return ra, rb

        assert run(fs, body()) == (4096, 4096)
