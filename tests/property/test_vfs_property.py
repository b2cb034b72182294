"""Property-based tests: VFS namespace semantics against a dict oracle.

A random sequence of namespace operations runs both through the VFS and
through a trivial in-memory oracle; existence and file sizes must agree
afterwards.
"""

from hypothesis import given, settings, strategies as st

from tests.conftest import make_fs, syscall

NAMES = ["a", "b", "c"]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "unlink", "mkdir", "rmdir", "rename", "truncate"]),
        st.sampled_from(NAMES),
        st.sampled_from(NAMES),
        st.integers(min_value=0, max_value=100_000),
    ),
    min_size=1,
    max_size=25,
)


class Oracle(object):
    """Ground-truth model: path -> ("dir"|size)."""

    def __init__(self):
        self.entries = {}

    def create(self, name, size):
        if self.entries.get(name) == "dir":
            return False
        self.entries.setdefault(name, 0)
        return True

    def unlink(self, name):
        if name not in self.entries or self.entries[name] == "dir":
            return False
        del self.entries[name]
        return True

    def mkdir(self, name):
        if name in self.entries:
            return False
        self.entries[name] = "dir"
        return True

    def rmdir(self, name):
        if self.entries.get(name) != "dir":
            return False
        del self.entries[name]
        return True

    def rename(self, old, new):
        if old not in self.entries or old == new:
            return old == new and old in self.entries
        if self.entries.get(new) == "dir" and self.entries[old] != "dir":
            return False
        if self.entries[old] == "dir" and new in self.entries and (
            self.entries[new] != "dir"
        ):
            return False
        self.entries[new] = self.entries.pop(old)
        return True

    def truncate(self, name, size):
        if self.entries.get(name) in (None, "dir"):
            return False
        self.entries[name] = size
        return True


@given(OPS)
@settings(max_examples=50, deadline=None)
def test_namespace_agrees_with_oracle(ops):
    fs = make_fs()
    fs.makedirs_now("/w")
    oracle = Oracle()

    def body():
        for op, x, y, size in ops:
            path_x, path_y = "/w/" + x, "/w/" + y
            if op == "create":
                # 0x41: O_WRONLY|O_CREAT
                ret, err = yield from syscall(fs, fs.open(1, path_x, 0x41, 0o644))
                if err is None:
                    yield from syscall(fs, fs.ftruncate(1, ret, size))
                    yield from syscall(fs, fs.close(1, ret))
                ok = err is None
                expected = oracle.create(x, size)
                if ok and expected:
                    oracle.truncate(x, size)
            elif op == "unlink":
                _ret, err = yield from syscall(fs, fs.unlink(1, path_x))
                ok, expected = err is None, oracle.unlink(x)
            elif op == "mkdir":
                _ret, err = yield from syscall(fs, fs.mkdir(1, path_x))
                ok, expected = err is None, oracle.mkdir(x)
            elif op == "rmdir":
                _ret, err = yield from syscall(fs, fs.rmdir(1, path_x))
                ok, expected = err is None, oracle.rmdir(x)
            elif op == "rename":
                _ret, err = yield from syscall(fs, fs.rename(1, path_x, path_y))
                ok, expected = err is None, oracle.rename(x, y)
            elif op == "truncate":
                _ret, err = yield from syscall(fs, fs.truncate(1, path_x, size))
                ok, expected = err is None, oracle.truncate(x, size)
            assert ok == expected, (op, x, y, ok, expected)

    fs.engine.run_process(body())

    # Final states agree.
    for name in NAMES:
        entry = oracle.entries.get(name)
        node = fs.lookup("/w/" + name, follow=False)
        if entry is None:
            assert node is None
        elif entry == "dir":
            assert node is not None and node.is_dir
        else:
            assert node is not None and node.is_reg
            assert node.size == entry


@given(st.lists(st.tuples(st.sampled_from(["f1", "f2"]),
                          st.integers(min_value=0, max_value=63),
                          st.booleans()),
                min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_cache_invariants_under_random_io(accesses):
    from repro.storage.cache import PageCache

    cache = PageCache(16)
    for file_id, block, dirty in accesses:
        evicted = cache.insert((file_id, block), dirty)
        for key in evicted:
            assert key != (file_id, block)
        assert len(cache) <= cache.capacity_pages
        assert cache.dirty_count <= len(cache)
    # Every reported-dirty key is resident.
    for key in cache.all_dirty_keys():
        assert cache.contains(key)


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=1, max_value=64)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_allocator_never_overlaps_extents(growths):
    from repro.storage.alloc import BlockAllocator

    alloc = BlockAllocator(max_extent_blocks=16)
    sizes = {}
    for file_id, grow in growths:
        sizes[file_id] = sizes.get(file_id, 0) + grow
        alloc.ensure_blocks(file_id, sizes[file_id])
    seen = {}
    for file_id, size in sizes.items():
        for block in range(size):
            lba = alloc.block_lba(file_id, block)
            assert lba not in seen, (
                "lba %d assigned to both %s and %s" % (lba, seen[lba], file_id)
            )
            seen[lba] = file_id
