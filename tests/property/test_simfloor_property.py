"""Property-based tests for the two batched bookkeepers of the simulator.

- ``PageCache`` keeps residency per file and recency as stamps, and
  its range operations work on a whole run inside ``dict.update``.
  They must do to a run of blocks exactly what the per-key calls do one
  page at a time (the reference is the per-block loops
  ``StorageStack`` ran before the range operations existed), and the
  whole class must answer as the per-page ``OrderedDict`` cache it
  replaced, kept below as ``ReferencePageCache``: every return value
  (evicted dirty keys in order), counter, dirty listing and the LRU
  order after every step.  Capacities are small, so evictions and
  dirty write-back order (which no perf workload reaches) are
  exercised.
- ``FileSystem._walk``'s two-generation memo (full paths dropped by
  any dentry change, directory prefixes only by directory and symlink
  dentry changes) must never serve a walk that a cold
  ``nodes.resolve`` would answer differently.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.sim import Event
from repro.storage.cache import PageCache
from repro.vfs import flags as F
from repro.vfs.errnos import VfsError
from repro.vfs.nodes import resolve

from tests.conftest import make_fs, run

# -- page cache: range operations == per-page loops == the old class -----


class ReferencePageCache(object):
    """``repro.storage.cache.PageCache`` as it stood before residency
    went per file and recency became stamps: one ``OrderedDict`` of all
    pages in LRU order, moved one page at a time.  ``touch_range`` takes
    the in-flight table keyed ``(file_id, block)`` across all files, as
    the stack kept it then."""

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
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._pages)

    def pages(self):
        return list(self._pages.items())

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


FILE_IDS = [7, 8, 9]
FILES = st.sampled_from(FILE_IDS)


def cache_steps(top_block, top_count):
    """Operation lists over blocks ``0..top_block`` of three files."""
    block = st.integers(0, top_block)
    count = st.integers(0, top_count)
    blocks = st.lists(block, max_size=6)
    return st.lists(
        st.one_of(
            # file, first block, blocks, readahead window, in-flight blocks
            st.tuples(st.just("read"), FILES, block, count, count,
                      st.lists(st.tuples(block, st.booleans()), max_size=4)),
            st.tuples(st.just("write"), FILES, block, count),
            st.tuples(st.just("redirty"), FILES, blocks),
            st.tuples(st.just("flush_file"), FILES),
            # the stack never asks for fewer than one page (asked for
            # none, the old class answered with one)
            st.tuples(st.just("flush_oldest"), st.integers(1, 9)),
            st.tuples(st.just("flush_all")),
            st.tuples(st.just("invalidate"), FILES, blocks),
            st.tuples(st.just("drop_file"), FILES),
            st.tuples(st.just("drop_clean"), st.booleans()),
            st.tuples(st.just("inode"), FILES, st.booleans()),
            # one data page by key: lookup, or insert clean / dirty
            st.tuples(st.just("page"), FILES, block,
                      st.sampled_from([None, False, True])),
        ),
        min_size=1,
        max_size=40,
    )


def cache_state(cache):
    return (
        cache.pages(),
        len(cache),
        cache.dirty_count,
        cache.all_dirty_keys(),
        cache.oldest_dirty(3),
        [cache.dirty_keys_of(file_id) for file_id in FILE_IDS + ["ino"]],
        [cache.contains((file_id, 0)) for file_id in FILE_IDS],
        cache.hits,
        cache.misses,
    )


def fetches(cache, file_id, flying):
    """An in-flight table as ``cache`` takes it, from ``(block, already
    completed)`` pairs, and the block each event fetches."""
    events = {}
    for block, done in flying:
        events[block] = event = Event()
        if done:
            event.set()
    if isinstance(cache, ReferencePageCache):
        inflight = {(file_id, block): event for block, event in events.items()}
    else:
        inflight = events or None
    return inflight, {id(event): block for block, event in events.items()}


def by_range(cache, step):
    op = step[0]
    if op == "read":
        _, file_id, first, nblocks, window, flying = step
        inflight, fetched = fetches(cache, file_id, flying)
        missing, waits = cache.touch_range(file_id, first, nblocks, inflight)
        end = first + nblocks
        prefetch = cache.absent(file_id, end, end + window)
        evicted = cache.insert_run(file_id, missing + prefetch, dirty=False)
        # events compare by identity, which differs between two runs
        return missing, [fetched[id(e)] for e in waits], prefetch, evicted
    if op == "write":
        _, file_id, first, nblocks = step
        return cache.insert_run(file_id, range(first, first + nblocks), dirty=True)
    if op == "redirty":
        return cache.insert_run(step[1], step[2], dirty=True)
    if op == "flush_file":
        return cache.mark_clean(cache.dirty_keys_of(step[1]))
    if op == "flush_oldest":
        return cache.mark_clean(cache.oldest_dirty(step[1]))
    if op == "flush_all":
        return cache.mark_clean(cache.all_dirty_keys())
    return shared(cache, step)


def by_page(cache, step):
    """The loops of ``StorageStack.read`` / ``write`` / ``_flush_keys``
    as they stood before the range operations."""
    op = step[0]
    if op == "read":
        _, file_id, first, nblocks, window, flying = step
        # a later pair for a block replaces an earlier one
        pending = {block for block, done in dict(flying).items() if not done}
        missing = []
        waits = []
        for block in range(first, first + nblocks):
            if cache.lookup((file_id, block)):
                if block in pending:
                    waits.append(block)
                continue
            missing.append(block)
        end = first + nblocks
        prefetch = [
            block for block in range(end, end + window)
            if not cache.contains((file_id, block))
        ]
        evicted = []
        for block in missing + prefetch:
            evicted.extend(cache.insert((file_id, block), dirty=False))
        return missing, waits, prefetch, evicted
    if op == "write":
        _, file_id, first, nblocks = step
        evicted = []
        for block in range(first, first + nblocks):
            evicted.extend(cache.insert((file_id, block), dirty=True))
        return evicted
    if op == "redirty":
        evicted = []
        for block in step[2]:
            evicted.extend(cache.insert((step[1], block), dirty=True))
        return evicted
    if op == "flush_file":
        keys = cache.dirty_keys_of(step[1])
    elif op == "flush_oldest":
        keys = cache.oldest_dirty(step[1])
    elif op == "flush_all":
        keys = cache.all_dirty_keys()
    else:
        return shared(cache, step)
    for key in keys:
        cache.mark_clean([key])


def shared(cache, step):
    """Steps that only churn the state both caches start the next
    range from; one spelling."""
    op = step[0]
    if op == "invalidate":
        cache.invalidate_keys([(step[1], block) for block in step[2]])
    elif op == "drop_file":
        cache.invalidate_file(step[1])
    elif op == "drop_clean":
        cache.drop_clean(step[1])
    elif op == "inode":
        key = ("ino", step[1])
        if step[2]:
            return cache.insert(key, dirty=False)
        return cache.lookup(key)
    elif op == "page":
        key = (step[1], step[2])
        if step[3] is None:
            return cache.lookup(key)
        return cache.insert(key, dirty=step[3])


@given(cache_steps(15, 9), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_range_operations_equal_per_page_loops(steps, capacity):
    ranged = PageCache(capacity)
    paged = PageCache(capacity)
    for step in steps:
        assert by_range(ranged, step) == by_page(paged, step), step
        assert cache_state(ranged) == cache_state(paged), step


@given(
    st.one_of(cache_steps(15, 9), cache_steps(90, 70)),
    st.one_of(st.integers(1, 12), st.integers(1, 200)),
)
@settings(max_examples=500, deadline=None)
def test_cache_equals_the_per_page_cache_it_replaced(steps, capacity):
    cache = PageCache(capacity)
    reference = ReferencePageCache(capacity)
    for step in steps:
        assert by_range(cache, step) == by_range(reference, step), step
        assert cache_state(cache) == cache_state(reference), step


# -- path walks: the memo == a cold resolve ------------------------------

NAMES = ["a", "b", "l"]
NAME = st.sampled_from(NAMES)
#: Where an operation lands: /w/x or /w/x/y.
SPOT = st.lists(NAME, min_size=1, max_size=2).map(lambda p: "/w/" + "/".join(p))
TARGET = st.sampled_from(["a", "b", "/w/a", "/w/b/a", "../a", "..", "l", "/w"])

WALK_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["mkdir", "rmdir", "create", "unlink"]), SPOT),
        st.tuples(st.sampled_from(["rename", "link"]), SPOT, SPOT),
        st.tuples(st.just("symlink"), TARGET, SPOT),
        st.tuples(st.just("chdir"), st.sampled_from(["/", "/w"])),
    ),
    min_size=1,
    max_size=25,
)

PROBES = (
    ["/w/" + x for x in NAMES]
    + ["/w/%s/%s" % (x, y) for x in NAMES for y in NAMES]
    + ["/w/%s/%s/%s" % (x, y, z) for x in NAMES for y in "al" for z in "ab"]
    + ["", "/", ".", "..", "a", "w/a", "a/b", "w/l/a", "l/..", "/w/a/", "/w/a/.",
       "/w/a/..", "/w/a/../b", "/w/l/../a", "/w//l/b", "x" * 4097]
)


def walked(walk):
    try:
        res = walk()
    except VfsError as exc:
        return exc.errno
    return res.inode, res.parent, res.name, list(res.visited)


@given(WALK_STEPS)
@settings(max_examples=120, deadline=None)
def test_memoised_walks_equal_cold_resolves(steps):
    fs = make_fs()
    fs.makedirs_now("/w")
    for step in [("warm",)] + steps:
        op = step[0]
        if op == "create":
            ret, err = run(fs, fs.open(1, step[1], F.O_WRONLY | F.O_CREAT))
            if err is None:
                run(fs, fs.close(1, ret))
        elif op == "symlink":
            run(fs, fs.symlink(1, step[1], step[2]))
        elif op != "warm":
            run(fs, getattr(fs, op)(1, *step[1:]))
        # Every probe was walked after the previous step too, so both
        # memos hold an entry for it that this step may have outdated.
        for path in PROBES:
            for follow in (True, False):
                assert walked(lambda: fs._walk(path, follow)) == walked(
                    lambda: resolve(fs.table, fs.cwd, path, follow)
                ), (step, path, follow)
