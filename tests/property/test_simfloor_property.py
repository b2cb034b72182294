"""Property-based tests for the two batched bookkeepers of the simulator.

- ``PageCache``'s range operations must do to a run of blocks exactly
  what the per-key calls do one page at a time -- the reference here is
  the per-block loops ``StorageStack`` ran before the range operations
  existed.  The capacity is tiny, so evictions and dirty write-back
  order (which no perf workload reaches) are exercised.
- ``FileSystem._walk``'s two-generation memo (full paths dropped by
  any dentry change, directory prefixes only by directory and symlink
  dentry changes) must never serve a walk that a cold
  ``nodes.resolve`` would answer differently.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Event
from repro.storage.cache import PageCache
from repro.vfs import flags as F
from repro.vfs.errnos import VfsError
from repro.vfs.nodes import resolve

from tests.conftest import make_fs, run

# -- page cache: range operations == per-page loops ----------------------

FILES = st.sampled_from([7, 8, 9])
BLOCK = st.integers(0, 15)
COUNT = st.integers(0, 9)
BLOCKS = st.lists(BLOCK, max_size=6)

CACHE_STEPS = st.lists(
    st.one_of(
        # file, first block, blocks, readahead window, in-flight blocks
        st.tuples(st.just("read"), FILES, BLOCK, COUNT, COUNT,
                  st.lists(st.tuples(BLOCK, st.booleans()), max_size=4)),
        st.tuples(st.just("write"), FILES, BLOCK, COUNT),
        st.tuples(st.just("redirty"), FILES, BLOCKS),
        st.tuples(st.just("flush_file"), FILES),
        st.tuples(st.just("flush_oldest"), COUNT),
        st.tuples(st.just("flush_all")),
        st.tuples(st.just("invalidate"), FILES, BLOCKS),
        st.tuples(st.just("drop_file"), FILES),
        st.tuples(st.just("drop_clean"), st.booleans()),
        st.tuples(st.just("inode"), FILES, st.booleans()),
    ),
    min_size=1,
    max_size=40,
)


def cache_state(cache):
    return (
        list(cache._pages.items()),
        list(cache._dirty),
        [(file_id, list(keys)) for file_id, keys in cache._file_pages.items()],
        [(file_id, list(keys)) for file_id, keys in cache._file_dirty.items()],
        cache.hits,
        cache.misses,
    )


def fetches(file_id, flying):
    """An in-flight table: ``(block, already completed)`` pairs."""
    inflight = {}
    for block, done in flying:
        inflight[(file_id, block)] = event = Event()
        if done:
            event.set()
    return inflight


def waited(inflight, waits):
    """The blocks whose fetches ``waits`` holds, in its order (events
    compare by identity, which differs between the two runs)."""
    return [
        key[1] for event in waits
        for key, fetch in inflight.items() if fetch is event
    ]


def by_range(cache, step):
    op = step[0]
    if op == "read":
        _, file_id, first, nblocks, window, flying = step
        inflight = fetches(file_id, flying)
        missing, waits = cache.touch_range(file_id, first, nblocks, inflight)
        end = first + nblocks
        prefetch = cache.absent(file_id, end, end + window)
        evicted = cache.insert_run(file_id, missing + prefetch, dirty=False)
        return missing, waited(inflight, waits), prefetch, evicted
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
        inflight = fetches(file_id, flying)
        missing = []
        waits = []
        for block in range(first, first + nblocks):
            key = (file_id, block)
            if cache.lookup(key):
                event = inflight.get(key)
                if event is not None and not event.is_set:
                    waits.append(event)
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
        return missing, waited(inflight, waits), prefetch, evicted
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


@given(CACHE_STEPS, st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_range_operations_equal_per_page_loops(steps, capacity):
    ranged = PageCache(capacity)
    paged = PageCache(capacity)
    for step in steps:
        assert by_range(ranged, step) == by_page(paged, step), step
        assert cache_state(ranged) == cache_state(paged), step


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
