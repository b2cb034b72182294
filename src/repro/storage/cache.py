"""An LRU page cache with dirty tracking and readahead state.

The cache is pure bookkeeping -- all timing happens in the stack, which
asks the cache what is resident, inserts pages, and receives back the
dirty pages it must write out on eviction.  A key is ``(file_id,
block_index)``; cached inode metadata (the dentry/inode cache collapsed
into the same structure) is ``("ino", file_id)``, a page of the file
``"ino"``.

Residency is kept per file and recency as a stamp per page: a use
stores the next tick of one counter, a run of blocks takes consecutive
ticks in block order.  "Sorted by stamp" is therefore the LRU order, and
only eviction ever sorts.  A long resident run costs a fixed number of
interpreter steps (the per-page work is inside ``dict.update``).
"""

from itertools import count, islice


class PageCache(object):
    def __init__(self, capacity_pages, dirty_ratio=0.20):
        if capacity_pages <= 0:
            raise ValueError("cache must hold at least one page")
        self.capacity_pages = capacity_pages
        self.dirty_limit = max(1, int(capacity_pages * dirty_ratio))
        self._files = {}  # file -> {block: stamp of its last use}
        self._count = 0  # resident pages, all files
        self._ticks = count(1)  # the stamps, handed out once each
        # (stamp, file, block), most recent first, as of the last sort;
        # an entry whose page has another stamp by now is skipped.
        self._victims = []
        self._dirty = {}  # key -> True, oldest-dirtied first
        # The same per file ({block: key}), in the same order, so a
        # per-file fsync writes back in the order a full one would.
        self._file_dirty = {}
        self._streams = {}  # file_id -> {tid: [next_block, window, ra_end]}
        self.hits = 0
        self.misses = 0

    # -- residency ---------------------------------------------------

    def __len__(self):
        return self._count

    @property
    def dirty_count(self):
        return len(self._dirty)

    def contains(self, key):
        return key[1] in self._files.get(key[0], ())

    def _by_stamp(self):
        """``(stamp, file, block)`` of every page, LRU first (stamps
        are unique: no comparison reaches a file)."""
        return sorted(
            (stamp, file_id, block)
            for file_id, blocks in self._files.items()
            for block, stamp in blocks.items()
        )

    def pages(self):
        """``[(key, dirty), ...]`` in LRU order (tests, diagnostics)."""
        keys = [entry[1:] for entry in self._by_stamp()]
        return [(key, key in self._dirty) for key in keys]

    def lookup(self, key):
        """Touch ``key``; return True on hit."""
        file_id, block = key
        blocks = self._files.get(file_id)
        if blocks is not None and block in blocks:
            blocks[block] = next(self._ticks)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key, dirty):
        """Make ``key`` resident; returns the evicted *dirty* keys."""
        return self.insert_run(key[0], key[1:], dirty)

    def _make_room(self, evicted):
        """Evict from the LRU end until one more page fits; dirty
        victims go on ``evicted``.  A page used after the victim list
        was made has a larger stamp than everything on it, so what is
        left of the list is always a prefix of the LRU order."""
        victims = self._victims
        while self._count >= self.capacity_pages:
            if not victims:
                victims = self._victims = self._by_stamp()
                victims.reverse()
            stamp, file_id, block = victims.pop()
            blocks = self._files.get(file_id)
            if blocks is not None and blocks.get(block) == stamp:
                self._drop(blocks, file_id, block, evicted)

    def _drop(self, blocks, file_id, block, evicted):
        """Take a resident page out; a dirty one goes on ``evicted``."""
        del blocks[block]
        if not blocks:
            del self._files[file_id]
        self._count -= 1
        if self._clean(file_id, block):
            evicted.append((file_id, block))

    def _clean(self, file_id, block):
        """Forget that a page is dirty; return whether it was."""
        dirtied = self._file_dirty.get(file_id)
        if dirtied is None or block not in dirtied:
            return False
        del self._dirty[dirtied.pop(block)]
        if not dirtied:
            del self._file_dirty[file_id]
        return True

    # -- block ranges of one file --------------------------------------
    #
    # The data path works in runs of blocks.  Each method below does to
    # its blocks, in order, exactly what the per-key call would -- the
    # same recency order, counters, dirty order and evictions.  A run of
    # BATCH_MIN blocks or more is stamped by one ``dict.update``; a
    # shorter one (LevelDB's one- and two-block shape) is walked, which
    # costs less than the batch's set-up (they cross at 4-16 blocks).
    BATCH_MIN = 8

    def touch_range(self, file_id, first, nblocks, inflight):
        """:meth:`lookup` each block of ``[first, first + nblocks)``.

        Returns ``(missing, waits)``: the blocks that are not resident,
        and the completion events ``inflight`` (this file's ``block ->
        event`` map, or None) holds for resident blocks still in flight."""
        blocks = self._files.get(file_id)
        if nblocks == 1:  # the random-read shape: nothing to build up
            if blocks is None or first not in blocks:
                self.misses += 1
                return [first], []
            blocks[first] = next(self._ticks)
            self.hits += 1
            event = inflight.get(first) if inflight else None
            return [], ([] if event is None or event.is_set else [event])
        run = range(first, first + nblocks)
        if blocks is None:
            self.misses += nblocks
            return list(run), []
        if nblocks < self.BATCH_MIN:
            missing = []
            for block in run:
                if block in blocks:
                    blocks[block] = next(self._ticks)
                else:
                    missing.append(block)
        else:
            # Stamp the whole run.  A block that was not resident lands
            # at the end of the dict (insertion order): take it off.
            resident = len(blocks)
            blocks.update(zip(run, self._ticks))
            missing = [blocks.popitem()[0] for _ in range(len(blocks) - resident)]
            missing.reverse()
        self.misses += len(missing)
        self.hits += nblocks - len(missing)
        if not inflight:
            return missing, []
        return missing, [  # not the fetch of a page evicted in flight
            inflight[block] for block in sorted(inflight.keys() & run)
            if block in blocks and not inflight[block].is_set
        ]

    def absent(self, file_id, start, end):
        """The blocks of ``[start, end)`` that are not resident
        (:meth:`contains` each: no touch, no counters)."""
        resident = self._files.get(file_id, ())
        return sorted(set(range(start, end)).difference(resident))

    def insert_run(self, file_id, blocks, dirty):
        """:meth:`insert` each of ``blocks``, all clean or all dirty.
        Returns the evicted *dirty* keys, in eviction order."""
        files = self._files
        resident = files.get(file_id)
        dirtied = self._file_dirty.get(file_id) if dirty else None
        if self.BATCH_MIN <= len(blocks) <= self.capacity_pages - self._count:
            # Nothing can be evicted: resident or not, repeated or not,
            # every block takes the next stamp.
            if resident is None:
                resident = files[file_id] = {}
            self._count -= len(resident)
            resident.update(zip(blocks, self._ticks))
            self._count += len(resident)
            if dirty and not (dirtied and dirtied.keys() >= set(blocks)):
                if dirtied is None:
                    dirtied = self._file_dirty[file_id] = {}
                mark = self._dirty
                for block in blocks:
                    if block not in dirtied:
                        key = dirtied[block] = (file_id, block)
                        mark[key] = True
            return []
        evicted = []
        ticks = self._ticks
        for block in blocks:
            if resident is None or block not in resident:
                if self._count >= self.capacity_pages:
                    self._make_room(evicted)
                    # Eviction drops a per-file dict it empties.
                    resident = files.get(file_id)
                    dirtied = self._file_dirty.get(file_id)
                if resident is None:
                    resident = files[file_id] = {}
                self._count += 1
            resident[block] = next(ticks)
            if dirty and (dirtied is None or block not in dirtied):
                if dirtied is None:
                    dirtied = self._file_dirty[file_id] = {}
                key = dirtied[block] = (file_id, block)
                self._dirty[key] = True
        return evicted

    def mark_clean(self, keys):
        for file_id, block in keys:
            self._clean(file_id, block)

    def dirty_keys_of(self, file_id):
        return list(self._file_dirty.get(file_id, {}).values())

    def all_dirty_keys(self):
        return list(self._dirty)

    def oldest_dirty(self, count):
        return list(islice(self._dirty, count))

    def invalidate_keys(self, keys):
        """Drop specific pages (e.g. a faulted read that never filled
        them); dirty state is discarded with the page."""
        for file_id, block in keys:
            blocks = self._files.get(file_id)
            if blocks is not None and block in blocks:
                self._drop(blocks, file_id, block, [])

    def invalidate_file(self, file_id):
        """Drop every page of ``file_id`` (e.g. after unlink of the last
        link); dirty pages are discarded, as on a real kernel."""
        self._count -= len(self._files.pop(file_id, ()))
        for key in self._file_dirty.pop(file_id, {}).values():
            del self._dirty[key]

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
        kept = {}
        for file_id, blocks in self._files.items():
            if not (keep_metadata and file_id == "ino"):
                dirtied = self._file_dirty.get(file_id, ())
                blocks = {block: blocks[block] for block in dirtied}
            if blocks:
                kept[file_id] = blocks
        self._files = kept
        self._count = sum(map(len, kept.values()))
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
