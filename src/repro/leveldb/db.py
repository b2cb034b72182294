"""The LSM store: WAL + memtable + tables + leader-based group commit."""

from repro.leveldb.memtable import MemTable
from repro.leveldb.sstable import build_table, read_key
from repro.leveldb.wal import WriteAheadLog
from repro.sim.events import Event, WaitEvent


class DBOptions(object):
    """Tuning knobs.

    ``sync``: fsync the WAL on every commit (the ``fillsync``
    benchmark's mode).  ``memtable_bytes``: flush threshold -- small
    values produce many table files, spreading random reads across
    files the way a populated LevelDB does.  ``l0_compaction_trigger``:
    merge the oldest level-0 tables into level 1 when level 0 grows
    past this many files.
    """

    def __init__(
        self,
        sync=False,
        memtable_bytes=256 * 1024,
        l0_compaction_trigger=12,
        compaction_width=4,
    ):
        self.sync = sync
        self.memtable_bytes = memtable_bytes
        self.l0_compaction_trigger = l0_compaction_trigger
        self.compaction_width = compaction_width


class MiniLevelDB(object):
    def __init__(self, osapi, path, options=None):
        self.osapi = osapi
        self.path = path.rstrip("/")
        self.options = options or DBOptions()
        self.memtable = MemTable()
        self.wal = WriteAheadLog(osapi, self.path + "/000001.log")
        self.level0 = []  # newest last
        self.level1 = []  # sorted, non-overlapping
        self._table_seq = 1
        self._manifest_fd = None
        self._queue = []
        self._leader_busy = False
        self.stats = {"commits": 0, "batches": 0, "flushes": 0, "compactions": 0}

    # -- lifecycle ------------------------------------------------------

    def open(self, tid):
        yield from self.osapi.call(tid, "mkdir", path=self.path, mode=0o755)
        fd, err = yield from self.osapi.call(
            tid,
            "open",
            path=self.path + "/MANIFEST-000001",
            flags="O_WRONLY|O_CREAT|O_APPEND",
            mode=0o644,
        )
        if err is not None:
            raise IOError("cannot open manifest: %s" % err)
        self._manifest_fd = fd
        yield from self.wal.open(tid)

    def close(self, tid):
        if self.memtable.entries:
            yield from self._flush(tid)
        yield from self.wal.close(tid)
        if self._manifest_fd is not None:
            yield from self.osapi.call(tid, "close", fd=self._manifest_fd)
            self._manifest_fd = None
        for table in self.level0 + self.level1:
            if table.fd is not None:
                yield from self.osapi.call(tid, "close", fd=table.fd)
                table.fd = None

    # -- writes -----------------------------------------------------------

    def put(self, tid, key, value_size):
        """Insert one record via group commit.

        When several threads write concurrently, the first becomes the
        *leader*: it drains the queue, appends everyone's records as
        one WAL batch (one write + one fsync), applies them to the
        memtable, and wakes the waiters -- real LevelDB's writer
        protocol, and the reason fillsync behaves like a
        single-threaded write workload (section 5.2.2).
        """
        slot = (key, value_size, Event())
        self._queue.append(slot)
        self.stats["commits"] += 1
        if self._leader_busy:
            yield WaitEvent(slot[2])
            return
        self._leader_busy = True
        try:
            while self._queue:
                batch, self._queue = self._queue, []
                items = [(entry[0], entry[1]) for entry in batch]
                yield from self.wal.append_batch(tid, items, self.options.sync)
                self.stats["batches"] += 1
                for key2, size2 in items:
                    self.memtable.put(key2, size2)
                for entry in batch:
                    if not entry[2].is_set:
                        entry[2].set()
                if self.memtable.bytes >= self.options.memtable_bytes:
                    yield from self._flush(tid)
        finally:
            self._leader_busy = False

    def _next_table_path(self):
        self._table_seq += 1
        return "%s/%06d.ldb" % (self.path, self._table_seq)

    def _flush(self, tid):
        """Memtable -> new level-0 table + manifest edit + fresh WAL."""
        items = self.memtable.sorted_items()
        if not items:
            return
        table = yield from build_table(
            self.osapi, tid, self._next_table_path(), items
        )
        self.level0.append(table)
        self.memtable = MemTable()
        yield from self._manifest_edit(tid)
        yield from self.wal.reset(tid)
        self.stats["flushes"] += 1
        if len(self.level0) > self.options.l0_compaction_trigger:
            yield from self._compact(tid)

    def _manifest_edit(self, tid):
        yield from self.osapi.call(tid, "write", fd=self._manifest_fd, nbytes=64)
        yield from self.osapi.call(tid, "fsync", fd=self._manifest_fd)

    def _compact(self, tid):
        """Merge the oldest level-0 tables into one level-1 table."""
        width = min(self.options.compaction_width, len(self.level0))
        victims = self.level0[:width]
        self.level0 = self.level0[width:]
        merged = {}
        for table in victims:  # oldest first; newer overwrite older
            for block in table.blocks:
                yield from read_key(self.osapi, tid, table, block.first_key)
            for key in table._keys:
                merged[key] = 100  # sizes are synthetic post-merge
        items = sorted(merged.items())
        table = yield from build_table(
            self.osapi, tid, self._next_table_path(), items
        )
        self.level1.append(table)
        self.level1.sort(key=lambda t: t.smallest)
        for victim in victims:
            if victim.fd is not None:
                yield from self.osapi.call(tid, "close", fd=victim.fd)
                victim.fd = None
            yield from self.osapi.call(tid, "unlink", path=victim.path)
        yield from self._manifest_edit(tid)
        self.stats["compactions"] += 1

    # -- reads --------------------------------------------------------------

    def get(self, tid, key):
        """Point lookup: memtable, then level 0 newest-first, then level 1."""
        value = self.memtable.get(key)
        if value is not None:
            return value
        for table in reversed(self.level0):
            if table.may_contain(key):
                found = yield from read_key(self.osapi, tid, table, key)
                if found:
                    return found
        for table in self.level1:
            if table.may_contain(key):
                found = yield from read_key(self.osapi, tid, table, key)
                if found:
                    return found
        return None
