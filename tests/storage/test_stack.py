"""Integration tests for the assembled storage stack."""

import os
import sys

from repro.sim import Engine
from repro.storage import HDD, RAID0, SSD, StorageStack


def make_stack(device=None, cache_bytes=64 * 1024 * 1024, seed=0, **kwargs):
    engine = Engine(seed)
    stack = StorageStack(engine, device or HDD(), cache_bytes, **kwargs)
    return engine, stack


def timed(engine, gen):
    start = engine.now
    engine.run_process(gen)
    return engine.now - start


class TestReadPath(object):
    def test_cached_read_is_nearly_free(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 4096)
            t_miss = engine.now
            yield from stack.read(1, "f", 0, 4096)
            return t_miss, engine.now

        t_miss, t_done = engine.run_process(body())
        assert (t_done - t_miss) < t_miss / 100

    def test_sequential_stream_triggers_readahead(self):
        engine, stack = make_stack()

        def body():
            # Two sequential reads from BOF establish a stream.
            yield from stack.read(1, "f", 0, 4096 * 8)
            yield from stack.read(1, "f", 4096 * 8 + stack.cache.READAHEAD_MIN * 4096, 4096 * 8)

        engine.run_process(body())
        # readahead inserted pages past what was requested
        assert len(stack.cache) > 16 + 4

    def test_zero_length_read_costs_only_cpu(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 0)
            return engine.now

        assert engine.run_process(body()) < 0.001
        assert stack.stats.reads_submitted == 0

    def test_random_reads_slower_than_sequential(self):
        def reader(stack, offsets):
            for offset in offsets:
                yield from stack.read(1, "f", offset, 4096)

        engine_a, stack_a = make_stack()
        t_seq = timed(engine_a, reader(stack_a, [i * 4096 for i in range(64)]))
        engine_b, stack_b = make_stack()
        t_rand = timed(
            engine_b, reader(stack_b, [(i * 7919) % 100000 * 4096 for i in range(64)])
        )
        assert t_rand > t_seq * 3


class TestWritePath(object):
    def test_buffered_write_is_fast(self):
        engine, stack = make_stack()

        def body():
            yield from stack.write(1, "f", 0, 65536)
            return engine.now

        assert engine.run_process(body()) < 0.001
        assert stack.cache.dirty_count == 16

    def test_fsync_flushes_dirty_pages(self):
        engine, stack = make_stack()

        def body():
            yield from stack.write(1, "f", 0, 65536)
            yield from stack.fsync(1, "f")

        engine.run_process(body())
        assert stack.cache.dirty_count == 0
        assert stack.stats.fsyncs == 1
        assert stack.stats.blocks_written >= 16

    def test_fsync_costs_real_time_on_hdd(self):
        engine, stack = make_stack()

        def body():
            yield from stack.write(1, "f", 0, 4096)
            yield from stack.fsync(1, "f")
            return engine.now

        # At least one seek to the journal zone plus the barrier; the
        # exact rotational delay varies with the per-run phase salt.
        assert engine.run_process(body()) > 0.0015

    def test_fsync_other_file_leaves_dirty(self):
        engine, stack = make_stack()

        def body():
            yield from stack.write(1, "a", 0, 4096)
            yield from stack.fsync(1, "b")

        engine.run_process(body())
        assert stack.cache.dirty_count == 1

    def test_ext3_ordered_data_drags_other_files(self):
        engine, stack = make_stack(fs_profile="ext3")

        def body():
            yield from stack.write(1, "a", 0, 4096)
            yield from stack.write(1, "b", 0, 4096)
            yield from stack.fsync(1, "b")

        engine.run_process(body())
        assert stack.cache.dirty_count == 0  # a was flushed too

    def test_dirty_throttling_kicks_in(self):
        engine, stack = make_stack(cache_bytes=4096 * 100)  # 100 pages, limit 20

        def body():
            yield from stack.write(1, "f", 0, 4096 * 50)
            return engine.now

        elapsed = engine.run_process(body())
        assert stack.cache.dirty_count <= stack.cache.dirty_limit
        assert elapsed > 0.001  # synchronous writeback happened

    def test_sync_all(self):
        engine, stack = make_stack()

        def body():
            yield from stack.write(1, "a", 0, 4096)
            yield from stack.write(1, "b", 0, 4096)
            yield from stack.sync_all(1)

        engine.run_process(body())
        assert stack.cache.dirty_count == 0


class TestMetadata(object):
    def test_meta_read_caches(self):
        engine, stack = make_stack()

        def body():
            yield from stack.meta_read(1, 42)
            t_first = engine.now
            yield from stack.meta_read(1, 42)
            return t_first, engine.now

        t_first, t_second = engine.run_process(body())
        assert (t_second - t_first) < t_first / 10

    def test_namespace_ops_batch_journal_writes(self):
        engine, stack = make_stack()

        def body():
            for index in range(64):
                yield from stack.namespace_op(1, index)

        engine.run_process(body())
        assert stack.stats.writes_submitted >= 1

    def test_journal_commit_includes_pending_meta(self):
        engine, stack = make_stack()

        def body():
            yield from stack.namespace_op(1, 1)
            yield from stack.fsync(1, 1)

        engine.run_process(body())
        assert stack._pending_meta_blocks == 0
        assert stack.stats.journal_commits == 1

    def test_drop_file_invalidates(self):
        engine, stack = make_stack()

        def body():
            yield from stack.write(1, "f", 0, 4096)
            stack.drop_file(1, "f")

        engine.run_process(body())
        assert stack.cache.dirty_count == 0


class TestDevices(object):
    def test_raid_parallelism_for_two_threads(self):
        def workload(stack):
            def reader(tid, fid):
                for index in range(100):
                    offset = ((index * 7919 + tid * 13) % 100000) * 4096
                    yield from stack.read(tid, fid, offset, 4096)

            stack.engine.spawn(reader(1, "a"))
            stack.engine.spawn(reader(2, "b"))
            stack.engine.run()
            return stack.engine.now

        engine_h, stack_h = make_stack(HDD(), scheduler="fifo")
        stack_h.alloc.ensure_blocks("a", 110000)
        stack_h.alloc.ensure_blocks("b", 110000)
        t_hdd = workload(stack_h)

        engine_r, stack_r = make_stack(RAID0(2), scheduler="fifo")
        stack_r.alloc.ensure_blocks("a", 110000)
        stack_r.alloc.ensure_blocks("b", 110000)
        t_raid = workload(stack_r)
        assert t_raid < t_hdd * 0.8

    def test_ssd_much_faster_than_hdd(self):
        def reads(stack):
            def body():
                for index in range(50):
                    yield from stack.read(1, "f", ((index * 7919) % 90000) * 4096, 4096)

            return timed(stack.engine, body())

        _, stack_h = make_stack(HDD())
        _, stack_s = make_stack(SSD(), scheduler="fifo")
        assert reads(stack_s) < reads(stack_h) / 10

    def test_stats_accumulate(self):
        engine, stack = make_stack()

        def body():
            yield from stack.read(1, "f", 0, 8192)
            yield from stack.write(1, "f", 0, 4096)
            yield from stack.fsync(1, "f")

        engine.run_process(body())
        stats = stack.stats.as_dict()
        assert stats["reads_submitted"] >= 1
        assert stats["blocks_read"] >= 2
        assert stats["fsyncs"] == 1


class TestCallBudget(object):
    """The block request path makes each decision once, in one frame
    (docs/PERFORMANCE.md, *Simulation floor*).  The budgets are the
    Python calls the path makes inside ``repro/storage`` today -- the
    code this path replaced made 49 and 83 -- so a helper, a closure or
    a property that creeps back onto it fails here, where a timing
    could not tell."""

    STORAGE = os.sep + os.path.join("repro", "storage") + os.sep

    def storage_calls(self, body):
        engine, stack = make_stack(fs_profile="ext4", scheduler="cfq")
        stack.alloc.ensure_blocks("f", 1000)
        engine.run()  # the dispatcher parks
        calls = []

        def profiler(frame, event, arg):
            if event == "call" and self.STORAGE in frame.f_code.co_filename:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            engine.run_process(body(stack))
        finally:
            sys.setprofile(None)
        return calls

    def test_cold_one_block_read(self):
        def body(stack):
            yield from stack.read(1, "f", 500 * 4096, 4096)

        calls = self.storage_calls(body)
        assert len(calls) <= 30, sorted(calls)

    def test_one_page_write_and_fsync(self):
        def body(stack):
            yield from stack.write(1, "f", 0, 4096)
            yield from stack.fsync(1, "f")

        calls = self.storage_calls(body)
        assert len(calls) <= 51, sorted(calls)
