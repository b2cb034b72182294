"""The null machine: a :class:`FileSystem` with the timing taken out.

A storage stack and an engine that do nothing, so the VFS op bodies run
their state changes and nothing else.  Two clients run the concrete
file system here instead of keeping a model of their own: abstract
replay (:mod:`repro.verify.abstract`) predicts a replay's outcomes and
final state, and the compiler's trace model (:mod:`repro.core.fsstate`)
asks what each traced name means.  An errno or resolution fix in the
VFS therefore reaches both, and every replay core, at once.
"""

from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.vfs.filesystem import FileSystem


class _ResidentCache(object):
    """A page cache where everything is resident and nothing dirty."""

    def lookup(self, key: Any) -> bool:
        return True

    def absent(self, file_id: int, start: int, end: int) -> Tuple[int, ...]:
        return ()

    def insert_run(self, file_id: int, blocks: Sequence[int],
                   dirty: bool) -> Tuple[Any, ...]:
        return ()

    def dirty_keys_of(self, file_id: int) -> Tuple[Any, ...]:
        return ()


class _NullProfile(object):
    name = "abstract"


class _NullStack(object):
    """Timing-free stand-in for the storage stack: every I/O path is
    an empty generator, every charge is no effect at all."""

    PAGE_CPU = META_CPU = BARRIER_LATENCY = 0.0
    cache = _ResidentCache()
    profile = _NullProfile()

    def _nothing(self, *args: Any, **kwargs: Any) -> Iterator[Any]:
        return iter(())

    meta_read = meta_read_cold = namespace_op = read = write = _nothing
    fsync = _flush_keys = sync_all = _runs = _nothing
    drop_file = warm_metadata = ensure_blocks = _nothing

    @property
    def alloc(self) -> "_NullStack":
        return self  # the allocator's one call, ensure_blocks, is above


class _NullEngine(object):
    """An engine whose clock stands still.  The VFS spawns exactly one
    kind of process, an aio completion, one per request it accepts;
    here it runs to its end at once (``spawned`` counts them)."""

    now = 0.0

    def __init__(self) -> None:
        self.spawned = 0

    def advance(self, seconds: float) -> bool:
        return True  # every charge is taken, and costs nothing

    def spawn(self, process: Iterator[Any], name: Optional[str] = None) -> None:
        self.spawned += 1
        for _ in process:
            pass


def null_filesystem(platform: str = "linux") -> FileSystem:
    """A fresh :class:`FileSystem` on the null machine; its engine is
    ``fs.engine``."""
    return FileSystem(_NullEngine(), _NullStack(), platform=platform)


def drain(fs: FileSystem, op: Iterator[Any]) -> Any:
    """Run an op generator of ``fs`` to its end, discarding every
    timing effect it yields; returns the call's ``(ret, err)``, a
    failure converted by :meth:`FileSystem.failed` (which never
    raises)."""
    try:
        while True:
            next(op)
    except StopIteration as done:
        return done.value
    except FileSystem.FAILURES as exc:
        return drain(fs, fs.failed(exc))
