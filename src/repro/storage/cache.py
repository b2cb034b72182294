"""An LRU page cache with dirty tracking and readahead state.

The cache is pure bookkeeping -- all timing happens in the stack, which
asks the cache what is resident, inserts pages, and receives back the
dirty pages it must write out on eviction.  Keys are ``(file_id,
block_index)`` for data pages and ``("ino", file_id)`` for cached inode
metadata (the dentry/inode cache collapsed into one structure).
"""

from collections import OrderedDict


class PageCache(object):
    def __init__(self, capacity_pages, dirty_ratio=0.20):
        if capacity_pages <= 0:
            raise ValueError("cache must hold at least one page")
        self.capacity_pages = capacity_pages
        self.dirty_limit = max(1, int(capacity_pages * dirty_ratio))
        self._pages = OrderedDict()  # key -> dirty(bool), LRU order
        self._dirty = OrderedDict()  # key -> True, oldest-dirtied first
        # Per-file views of the two maps above, so unlink invalidation
        # and per-file fsync are O(pages of that file) instead of a
        # scan of the whole cache.  Buckets key on ``key[0]`` (the
        # file_id of data pages, the literal "ino" for metadata) and
        # hold keys as insertion-ordered dict-sets; within one file the
        # dirty bucket's order equals the global oldest-dirtied order
        # restricted to that file, so writeback order is unchanged.
        self._file_pages = {}  # key[0] -> {key: True}
        self._file_dirty = {}  # key[0] -> {key: True}
        self._streams = {}  # file_id -> {tid: [next_block, window, ra_end]}
        self.hits = 0
        self.misses = 0

    # -- residency ---------------------------------------------------

    def __len__(self):
        return len(self._pages)

    @property
    def dirty_count(self):
        return len(self._dirty)

    def contains(self, key):
        return key in self._pages

    def lookup(self, key):
        """Touch ``key``; return True on hit."""
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key, dirty):
        """Make ``key`` resident.  Returns a list of evicted *dirty*
        keys that the caller must write back."""
        evicted = []
        if key in self._pages:
            self._pages.move_to_end(key)
            if dirty and not self._pages[key]:
                self._pages[key] = True
                self._dirty[key] = True
                self._file_dirty.setdefault(key[0], {})[key] = True
            return evicted
        if len(self._pages) >= self.capacity_pages:
            self._make_room(evicted)
        self._pages[key] = dirty
        self._file_pages.setdefault(key[0], {})[key] = True
        if dirty:
            self._dirty[key] = True
            self._file_dirty.setdefault(key[0], {})[key] = True
        return evicted

    def _make_room(self, evicted):
        """Evict from the LRU end until one more page fits, appending
        the dirty victims to ``evicted``."""
        pages = self._pages
        while len(pages) >= self.capacity_pages:
            old_key, old_dirty = pages.popitem(last=False)
            self._drop_from_index(self._file_pages, old_key)
            if old_dirty:
                self._dirty.pop(old_key, None)
                self._drop_from_index(self._file_dirty, old_key)
                evicted.append(old_key)

    # -- block ranges of one file --------------------------------------
    #
    # The data path works in runs of blocks.  Each method below does to
    # its blocks, in order, exactly what the per-key call would -- the
    # same LRU moves, counters, index updates and evictions -- in one
    # call per run instead of one per 4 KiB page.

    def touch_range(self, file_id, first, nblocks, inflight):
        """:meth:`lookup` each block of ``[first, first + nblocks)``.

        Returns ``(missing, waits)``: the blocks that are not resident,
        and the completion events ``inflight`` (a ``key -> event`` map)
        holds for resident blocks that are still being fetched."""
        pages = self._pages
        if nblocks == 1:  # the random-read shape: no lists to build up
            key = (file_id, first)
            if key not in pages:
                self.misses += 1
                return [first], []
            pages.move_to_end(key)
            self.hits += 1
            if inflight:
                event = inflight.get(key)
                if event is not None and not event.is_set:
                    return [], [event]
            return [], []
        missing = []
        waits = []
        if file_id not in self._file_pages:
            missing.extend(range(first, first + nblocks))
        else:
            touch = pages.move_to_end
            for block in range(first, first + nblocks):
                key = (file_id, block)
                if key in pages:
                    touch(key)
                    if inflight:
                        event = inflight.get(key)
                        if event is not None and not event.is_set:
                            waits.append(event)
                else:
                    missing.append(block)
        self.misses += len(missing)
        self.hits += nblocks - len(missing)
        return missing, waits

    def absent(self, file_id, start, end):
        """The blocks of ``[start, end)`` that are not resident
        (:meth:`contains` each: no touch, no counters)."""
        if file_id not in self._file_pages:
            return list(range(start, end))
        pages = self._pages
        return [
            block for block in range(start, end)
            if (file_id, block) not in pages
        ]

    def insert_run(self, file_id, blocks, dirty):
        """:meth:`insert` each of ``blocks``, all clean or all dirty.
        Returns the evicted *dirty* keys, in eviction order."""
        evicted = []
        pages = self._pages
        capacity = self.capacity_pages
        # This file's index buckets, fetched on first use and again
        # after an eviction (which drops a bucket it empties).
        resident = dirtied = None
        for block in blocks:
            key = (file_id, block)
            if key in pages:
                pages.move_to_end(key)
                if not dirty or pages[key]:
                    continue
            else:
                if len(pages) >= capacity:
                    self._make_room(evicted)
                    resident = dirtied = None
                if resident is None:
                    resident = self._file_pages.setdefault(file_id, {})
                resident[key] = True
            pages[key] = dirty
            if dirty:
                self._dirty[key] = True
                if dirtied is None:
                    dirtied = self._file_dirty.setdefault(file_id, {})
                dirtied[key] = True
        return evicted

    @staticmethod
    def _drop_from_index(index, key):
        bucket = index.get(key[0])
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del index[key[0]]

    def mark_clean(self, keys):
        for key in keys:
            if self._pages.get(key):
                self._pages[key] = False
            self._dirty.pop(key, None)
            self._drop_from_index(self._file_dirty, key)

    def dirty_keys_of(self, file_id):
        return list(self._file_dirty.get(file_id, ()))

    def all_dirty_keys(self):
        return list(self._dirty)

    def oldest_dirty(self, count):
        out = []
        for key in self._dirty:
            out.append(key)
            if len(out) >= count:
                break
        return out

    def invalidate_keys(self, keys):
        """Drop specific pages (e.g. a faulted read that never filled
        them); dirty state is discarded with the page."""
        for key in keys:
            if key in self._pages:
                del self._pages[key]
                self._dirty.pop(key, None)
                self._drop_from_index(self._file_pages, key)
                self._drop_from_index(self._file_dirty, key)

    def invalidate_file(self, file_id):
        """Drop every page of ``file_id`` (e.g. after unlink of the last
        link); dirty pages are discarded, as on a real kernel."""
        doomed = self._file_pages.pop(file_id, None)
        if not doomed:
            return
        for key in doomed:
            del self._pages[key]
            self._dirty.pop(key, None)
        self._file_dirty.pop(file_id, None)

    def forget_streams(self, file_id):
        """Drop the readahead state of every reader of ``file_id``: the
        file is gone for good (a file that lives on, however empty,
        keeps its streams)."""
        self._streams.pop(file_id, None)

    def drop_clean(self, keep_metadata=True):
        """Evict clean pages (``echo 1 > drop_caches``).

        With ``keep_metadata`` the inode/dentry entries survive, which
        matches the common benchmarking situation: data caches are
        cleared (or simply too small) while the namespace that setup
        just created is still hot.  Pass False for a full
        ``echo 3``-style drop."""
        keep = OrderedDict(
            (key, dirty)
            for key, dirty in self._pages.items()
            if dirty or (keep_metadata and key[0] == "ino")
        )
        self._pages = keep
        self._file_pages = {}
        for key in keep:
            self._file_pages.setdefault(key[0], {})[key] = True
        self._streams.clear()

    # -- readahead ---------------------------------------------------

    READAHEAD_MIN = 8
    READAHEAD_MAX = 64

    def readahead_plan(self, tid, file_id, first_block, nblocks):
        """Update per-stream sequentiality state; return the block range
        ``(start, end)`` to prefetch asynchronously (empty for random
        access).

        A stream is sequential when each read starts where the previous
        one ended (prefetched blocks in between are cache hits and do
        not break the stream).  The window doubles up to
        ``READAHEAD_MAX`` and is pulled in chunks: a new chunk is
        issued when the reader crosses the second half of the
        previously prefetched region, like the kernel's async
        readahead."""
        streams = self._streams.get(file_id)
        if streams is None:
            streams = self._streams[file_id] = {}
        state = streams.get(tid)  # [expected_next, window, ra_end]
        read_end = first_block + nblocks
        if state is not None and first_block == state[0]:
            window = min(max(state[1] * 2, self.READAHEAD_MIN), self.READAHEAD_MAX)
            ra_end = max(state[2], read_end)
        elif state is None and first_block == 0:
            window = self.READAHEAD_MIN  # fresh scan from BOF
            ra_end = read_end
        else:
            streams[tid] = [read_end, 0, read_end]
            return (read_end, read_end)  # random access: no prefetch
        target = read_end + window
        if target - ra_end >= max(1, window // 2) or read_end > ra_end - window // 2:
            start, end = ra_end, max(ra_end, target)
        else:
            start, end = ra_end, ra_end  # still inside the last chunk
        streams[tid] = [read_end, window, max(ra_end, end)]
        return (start, end)
