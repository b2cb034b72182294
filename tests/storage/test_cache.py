"""Unit tests for the page cache."""

import sys

import pytest

from repro.storage import cache as cache_module
from repro.storage.cache import PageCache


class TestResidency(object):
    def test_miss_then_hit(self):
        cache = PageCache(16)
        assert not cache.lookup(("f", 0))
        cache.insert(("f", 0), dirty=False)
        assert cache.lookup(("f", 0))
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PageCache(2)
        cache.insert(("f", 0), dirty=False)
        cache.insert(("f", 1), dirty=False)
        cache.lookup(("f", 0))  # 0 becomes MRU
        cache.insert(("f", 2), dirty=False)  # evicts 1
        assert cache.contains(("f", 0))
        assert not cache.contains(("f", 1))
        assert cache.contains(("f", 2))

    def test_capacity_respected(self):
        cache = PageCache(4)
        for block in range(10):
            cache.insert(("f", block), dirty=False)
        assert len(cache) == 4

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(0)

    def test_reinsert_moves_to_mru(self):
        cache = PageCache(2)
        cache.insert(("f", 0), dirty=False)
        cache.insert(("f", 1), dirty=False)
        cache.insert(("f", 0), dirty=False)  # refresh
        cache.insert(("f", 2), dirty=False)  # evicts 1, not 0
        assert cache.contains(("f", 0))


class TestDirty(object):
    def test_eviction_returns_dirty_keys(self):
        cache = PageCache(2)
        cache.insert(("f", 0), dirty=True)
        cache.insert(("f", 1), dirty=False)
        evicted = cache.insert(("f", 2), dirty=False)
        assert evicted == [("f", 0)]

    def test_clean_eviction_returns_nothing(self):
        cache = PageCache(1)
        cache.insert(("f", 0), dirty=False)
        assert cache.insert(("f", 1), dirty=False) == []

    def test_mark_clean(self):
        cache = PageCache(4)
        cache.insert(("f", 0), dirty=True)
        assert cache.dirty_count == 1
        cache.mark_clean([("f", 0)])
        assert cache.dirty_count == 0
        # now evicting it returns nothing
        cache.insert(("f", 1), dirty=False)
        cache.insert(("f", 2), dirty=False)
        cache.insert(("f", 3), dirty=False)
        assert cache.insert(("f", 4), dirty=False) == []

    def test_rewrite_keeps_single_dirty_entry(self):
        cache = PageCache(4)
        cache.insert(("f", 0), dirty=True)
        cache.insert(("f", 0), dirty=True)
        assert cache.dirty_count == 1

    def test_dirty_upgrade_on_reinsert(self):
        cache = PageCache(4)
        cache.insert(("f", 0), dirty=False)
        cache.insert(("f", 0), dirty=True)
        assert cache.dirty_count == 1

    def test_dirty_keys_of_filters_by_file(self):
        cache = PageCache(8)
        cache.insert(("a", 0), dirty=True)
        cache.insert(("b", 0), dirty=True)
        cache.insert(("a", 1), dirty=True)
        assert sorted(cache.dirty_keys_of("a")) == [("a", 0), ("a", 1)]

    def test_oldest_dirty_ordering(self):
        cache = PageCache(8)
        for block in range(4):
            cache.insert(("f", block), dirty=True)
        assert cache.oldest_dirty(2) == [("f", 0), ("f", 1)]

    def test_invalidate_file_discards_dirty(self):
        cache = PageCache(8)
        cache.insert(("a", 0), dirty=True)
        cache.insert(("b", 0), dirty=True)
        cache.invalidate_file("a")
        assert not cache.contains(("a", 0))
        assert cache.contains(("b", 0))
        assert cache.dirty_count == 1

    def test_drop_clean_keeps_dirty(self):
        cache = PageCache(8)
        cache.insert(("a", 0), dirty=False)
        cache.insert(("a", 1), dirty=True)
        cache.drop_clean()
        assert not cache.contains(("a", 0))
        assert cache.contains(("a", 1))

    def test_dirty_limit_fraction(self):
        cache = PageCache(100, dirty_ratio=0.2)
        assert cache.dirty_limit == 20


class TestLruOrder(object):
    """Recency is a stamp per page; the order exists only where it is
    read (``pages()``, eviction)."""

    def test_pages_lists_lru_first_with_dirty_state(self):
        cache = PageCache(16)
        cache.insert(("ino", 5), dirty=False)
        cache.insert_run("f", range(3), dirty=True)
        cache.lookup(("ino", 5))
        cache.touch_range("f", 1, 1, None)
        assert cache.pages() == [
            (("f", 0), True), (("f", 2), True), (("ino", 5), False),
            (("f", 1), True),
        ]

    def test_a_run_is_ordered_by_block_long_or_short(self):
        for length in (PageCache.BATCH_MIN - 1, 4 * PageCache.BATCH_MIN):
            cache = PageCache(256)
            cache.insert_run("f", list(reversed(range(length))), dirty=False)
            assert [key for key, _ in cache.pages()] == [
                ("f", block) for block in reversed(range(length))
            ]
            cache.touch_range("f", 0, length, None)
            assert [key for key, _ in cache.pages()] == [
                ("f", block) for block in range(length)
            ]

    def test_page_used_after_victim_list_was_made_is_spared(self):
        cache = PageCache(4)
        cache.insert_run("f", range(4), dirty=False)
        cache.insert(("g", 0), dirty=False)  # evicts f0; victims: f1 f2 f3
        cache.lookup(("f", 1))  # the listed stamp of f1 is stale now
        cache.insert(("g", 1), dirty=False)  # so this evicts f2
        assert [key for key, _ in cache.pages()] == [
            ("f", 3), ("g", 0), ("f", 1), ("g", 1),
        ]

    def test_dropped_and_reinserted_page_is_not_evicted_by_its_old_entry(self):
        cache = PageCache(3)
        cache.insert_run("f", range(3), dirty=False)
        cache.insert(("g", 0), dirty=False)  # evicts f0; victims: f1 f2
        cache.invalidate_file("f")
        cache.insert_run("f", [2, 1], dirty=False)  # g0 f2 f1, new stamps
        cache.insert(("g", 1), dirty=False)  # full: evicts g0, not f1
        assert [key for key, _ in cache.pages()] == [
            ("f", 2), ("f", 1), ("g", 1),
        ]

    def test_emptied_files_leave_nothing_behind(self):
        cache = PageCache(2)
        for name in "abcdef":
            cache.insert_run(name, range(2), dirty=True)
        cache.mark_clean(cache.all_dirty_keys())
        cache.invalidate_keys([("f", 0), ("f", 1)])
        assert len(cache) == 0 and cache.pages() == []
        assert cache._files == {} and cache._file_dirty == {}


class TestRunLengthIndependence(object):
    """What the range operations are for: on a resident run they cost
    the same number of interpreter steps whatever its length -- the
    per-page work happens inside ``dict.update`` and set operations."""

    @staticmethod
    def lines_inside_cache(call):
        """``line`` trace events inside ``repro/storage/cache.py``
        (comprehension frames included) while ``call()`` runs."""
        lines = []

        def tracer(frame, event, arg):
            if frame.f_code.co_filename != cache_module.__file__:
                return None
            if event == "line":
                lines.append(frame.f_lineno)
            return tracer

        sys.settrace(tracer)
        try:
            call()
        finally:
            sys.settrace(None)
        return len(lines)

    def steps(self, length):
        cache = PageCache(4096)
        cache.insert_run("f", range(length), dirty=True)  # resident, dirty
        return {
            "touch_range": self.lines_inside_cache(
                lambda: cache.touch_range("f", 0, length, None)),
            "absent": self.lines_inside_cache(
                lambda: cache.absent("f", 0, length)),
            "insert_run": self.lines_inside_cache(
                lambda: cache.insert_run("f", range(length), dirty=True)),
        }

    def test_resident_run_costs_the_same_steps_at_8_and_512_pages(self):
        short, long = self.steps(8), self.steps(512)
        assert min(short.values()) > 0  # the tracer saw the file
        assert short == long


class TestReadahead(object):
    @staticmethod
    def span(plan):
        start, end = plan
        return end - start

    def test_random_access_gets_no_prefetch(self):
        cache = PageCache(64)
        assert self.span(cache.readahead_plan("t", "f", 500, 1)) == 0

    def test_scan_from_bof_detected(self):
        cache = PageCache(64)
        assert self.span(cache.readahead_plan("t", "f", 0, 4)) > 0

    def test_sequential_stream_keeps_prefetching(self):
        cache = PageCache(256)
        position = 0
        total = 0
        for _ in range(40):
            start, end = cache.readahead_plan("t", "f", position, 1)
            total += end - start
            position += 1
        # The stream reads 40 blocks; readahead must have covered them
        # and run ahead of the reader.
        assert total >= 40

    def test_window_capped(self):
        cache = PageCache(4096)
        position = 0
        for _ in range(200):
            start, end = cache.readahead_plan("t", "f", position, 1)
            assert end - start <= 2 * PageCache.READAHEAD_MAX
            position += 1

    def test_prefetch_is_chunky_not_per_read(self):
        cache = PageCache(4096)
        plans = []
        position = 0
        for _ in range(64):
            plans.append(cache.readahead_plan("t", "f", position, 1))
            position += 1
        chunks = [end - start for start, end in plans if end > start]
        # Some reads trigger no new prefetch (still inside the last
        # chunk), and issued chunks are multi-block.
        assert len(chunks) < 40
        assert max(chunks) >= PageCache.READAHEAD_MIN

    def test_broken_stream_stops_prefetch(self):
        cache = PageCache(64)
        cache.readahead_plan("t", "f", 0, 4)
        assert self.span(cache.readahead_plan("t", "f", 900, 1)) == 0

    def test_streams_are_per_thread_and_file(self):
        cache = PageCache(64)
        cache.readahead_plan("t1", "f", 0, 4)
        # Another thread reading elsewhere in the same file does not
        # inherit t1's stream state.
        assert self.span(cache.readahead_plan("t2", "f", 900, 1)) == 0
