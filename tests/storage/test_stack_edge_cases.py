"""Storage-stack edge cases: in-flight pages, RAID writes, journal wrap."""

from repro.sim import Engine
from repro.storage import HDD, RAID0, StorageStack
from repro.storage.alloc import BlockAllocator
from repro.vfs import flags as F
from tests.conftest import make_fs, run, syscall


def make_stack(device=None, **kwargs):
    engine = Engine(kwargs.pop("seed", 0))
    stack = StorageStack(engine, device or HDD(), 64 << 20, **kwargs)
    return engine, stack


class TestInflightPages(object):
    def test_second_reader_waits_for_inflight_page(self):
        engine, stack = make_stack()
        stack.alloc.ensure_blocks("f", 64)
        done = {}

        def reader(tid):
            # Mid-file offset: no readahead, exactly one block involved.
            yield from stack.read(tid, "f", 100 * 4096, 4096)
            done[tid] = engine.now

        engine.spawn(reader(1))
        engine.spawn(reader(2))
        engine.run()
        # One physical read served both; the second reader finished at
        # (or a hair after) the same moment, not after a second seek.
        assert stack.stats.reads_submitted == 1
        assert abs(done[1] - done[2]) < 0.001

    def test_inflight_map_drains(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 65536)

        engine.run_process(body())
        engine.run()
        assert stack._inflight == {}

    def test_reader_behind_prefetch_waits_not_skips(self):
        engine, stack = make_stack()
        latencies = []

        def body():
            # Sequential stream: triggers readahead.
            for block in range(32):
                start = engine.now
                yield from stack.read(1, "f", block * 4096, 4096)
                latencies.append(engine.now - start)

        engine.run_process(body())
        # The stream cannot run faster than the disk: total time must be
        # at least the media-rate transfer of all the data it consumed.
        transfer = 32 * 4096 / (100 * 1024 * 1024)
        assert sum(latencies) >= transfer


class TestRaidWrites(object):
    def test_large_write_stripes_across_members(self):
        engine, stack = make_stack(RAID0(2), scheduler="fifo")

        def body():
            yield from stack.write(1, "f", 0, 2 << 20)  # 2 MB, 4 chunks
            yield from stack.fsync(1, "f")

        engine.run_process(body())
        # Both members saw traffic: head moved on each spindle.
        positions = [s.position() for s in stack.device.spindles]
        assert all(p > 0 for p in positions)

    def test_striped_fsync_faster_than_single_disk(self):
        def timed(device):
            engine, stack = make_stack(device, scheduler="fifo", seed=4)

            def body():
                yield from stack.write(1, "f", 0, 8 << 20)
                yield from stack.fsync(1, "f")

            engine.run_process(body())
            return engine.now

        assert timed(RAID0(2)) < timed(HDD()) * 0.8


class TestJournal(object):
    def test_journal_cursor_wraps(self):
        engine, stack = make_stack()
        for _ in range(10000):
            stack._journal_lba(16)
        assert 0 <= stack._meta_journal_cursor < BlockAllocator.JOURNAL_ZONE_BLOCKS

    def test_journal_writes_in_journal_zone(self):
        engine, stack = make_stack()
        lba = stack._journal_lba(8)
        assert BlockAllocator.INODE_ZONE_BLOCKS <= lba
        assert lba < BlockAllocator.INODE_ZONE_BLOCKS + BlockAllocator.JOURNAL_ZONE_BLOCKS


class TestMetadataWarmth(object):
    def test_warm_metadata_makes_meta_read_cheap(self):
        engine, stack = make_stack()
        stack.warm_metadata([42])

        def body():
            start = engine.now
            yield from stack.meta_read(1, 42)
            return engine.now - start

        assert engine.run_process(body()) < 0.0001

    def test_drop_caches_keep_metadata(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 4096)
            yield from stack.meta_read(1, 42)

        engine.run_process(body())
        stack.drop_caches(keep_metadata=True)
        assert stack.cache.contains(("ino", 42))
        assert not stack.cache.contains(("f", 0))
        stack.drop_caches(keep_metadata=False)
        assert not stack.cache.contains(("ino", 42))


class TestReadaheadStateLifetime(object):
    def test_deleted_files_leave_no_stream_state(self):
        """A churn replay creates, reads and deletes files without
        end; the per-(thread, file) readahead state goes with the
        file, so the table tracks the live files, not the history."""
        fs = make_fs()
        streams = fs.stack.cache._streams

        def churn():
            for n in range(50):
                path = "/f%d" % n
                fd, _ = yield from syscall(fs, fs.open(1, path, F.O_RDWR | F.O_CREAT))
                yield from syscall(fs, fs.pwrite(1, fd, 8192, 0))
                yield from syscall(fs, fs.pread(1, fd, 4096, 0))
                yield from syscall(fs, fs.pread(2, fd, 4096, 4096))
                yield from syscall(fs, fs.close(1, fd))
                assert len(streams) == 1
                yield from syscall(fs, fs.unlink(1, path))
                assert len(streams) == 0

        run(fs, churn())

    def test_truncated_file_keeps_its_streams(self):
        """O_TRUNC empties a file that lives on: a reader's stream
        position is per open file on a real kernel and survives."""
        fs = make_fs()
        fs.create_file_now("/f", 65536)

        def body():
            fd, _ = yield from syscall(fs, fs.open(1, "/f", F.O_RDONLY))
            yield from syscall(fs, fs.pread(1, fd, 4096, 0))
            before = dict(fs.stack.cache._streams)
            yield from syscall(fs, fs.open(2, "/f", F.O_WRONLY | F.O_TRUNC))
            return before

        before = run(fs, body())
        assert before and fs.stack.cache._streams == before
