"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.sim import Engine
from repro.storage import HDD, SSD, StorageStack
from repro.vfs import FileSystem


def make_fs(seed=0, device=None, platform="linux", cache_bytes=256 * 1024 * 1024,
            scheduler="cfq", fs_profile="ext4", obs=None):
    """A fresh engine + stack + file system.

    ``obs`` attaches an observability context before the stack is
    built (instrumented components discover it at construction time).
    """
    engine = Engine(seed, obs=obs)
    stack = StorageStack(
        engine,
        device if device is not None else HDD(),
        cache_bytes,
        fs_profile=fs_profile,
        scheduler=scheduler,
    )
    return FileSystem(engine, stack, platform)


def syscall(fs, op):
    """``yield from syscall(fs, fs.read(...))`` inside a test process: the
    op's ``(ret, err)``, a failure converted by ``fs.failed`` as the
    replay kernels convert it."""
    try:
        return (yield from op)
    except fs.FAILURES as exc:
        return (yield from fs.failed(exc))


def run(fs, gen):
    """Drive one generator -- an op or a test process -- to completion
    on fs's engine; a failing op returns ``(-1, errno)``."""
    return fs.engine.run_process(syscall(fs, gen))


@pytest.fixture
def fs():
    return make_fs()


@pytest.fixture
def fs_ssd():
    return make_fs(device=SSD(), scheduler="fifo")


@pytest.fixture
def fs_darwin():
    return make_fs(platform="darwin")
