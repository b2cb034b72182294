"""Tests for the mini LSM key-value store."""

from repro.leveldb import DBOptions, MiniLevelDB
from repro.leveldb.memtable import MemTable
from repro.tracing.tracer import TracedOS
from tests.conftest import make_fs


def open_db(fs, path="/db", **options):
    osapi = TracedOS(fs)
    database = MiniLevelDB(osapi, path, DBOptions(**options))
    fs.engine.run_process(database.open(0))
    return database


def drive(fs, gen):
    return fs.engine.run_process(gen)


class TestMemTable(object):
    def test_put_get(self):
        table = MemTable()
        table.put("k1", 100)
        assert table.get("k1") == 100
        assert table.get("k2") is None

    def test_overwrite_updates_bytes(self):
        table = MemTable()
        table.put("k", 100)
        first = table.bytes
        table.put("k", 50)
        assert table.bytes < first

    def test_sorted_items(self):
        table = MemTable()
        table.put("b", 1)
        table.put("a", 2)
        assert [k for k, _v in table.sorted_items()] == ["a", "b"]


class TestBasicOperation(object):
    def test_put_then_get_from_memtable(self):
        fs = make_fs()
        db = open_db(fs)
        drive(fs, db.put(1, "key1", 100))
        assert drive(fs, db.get(1, "key1")) == 100

    def test_get_missing_returns_none(self):
        fs = make_fs()
        db = open_db(fs)
        assert drive(fs, db.get(1, "ghost")) is None

    def test_flush_creates_table_and_resets_wal(self):
        fs = make_fs()
        db = open_db(fs, memtable_bytes=512)
        for index in range(16):
            drive(fs, db.put(1, "k%04d" % index, 100))
        assert db.stats["flushes"] >= 1
        assert len(db.level0 + db.level1) >= 1
        assert len(db.memtable) < 16
        assert fs.exists("/db/000002.ldb")

    def test_get_reads_from_tables_after_flush(self):
        fs = make_fs()
        db = open_db(fs, memtable_bytes=512)
        for index in range(16):
            drive(fs, db.put(1, "k%04d" % index, 100))
        for index in range(16):
            assert drive(fs, db.get(1, "k%04d" % index)) is not None

    def test_close_flushes_remaining(self):
        fs = make_fs()
        db = open_db(fs)
        drive(fs, db.put(1, "k", 100))
        drive(fs, db.close(1))
        assert db.stats["flushes"] == 1
        assert len(db.memtable) == 0

    def test_db_files_on_disk(self):
        fs = make_fs()
        db = open_db(fs)
        drive(fs, db.put(1, "k", 100))
        assert fs.exists("/db/MANIFEST-000001")
        assert fs.exists("/db/000001.log")


class TestGroupCommit(object):
    def test_concurrent_writers_batch(self):
        fs = make_fs()
        db = open_db(fs, sync=True)

        def writer(tid):
            for index in range(10):
                yield from db.put(tid, "t%d-%04d" % (tid, index), 100)

        processes = [fs.engine.spawn(writer(tid)) for tid in range(1, 9)]
        fs.engine.run()
        assert all(not p.alive for p in processes)
        assert db.stats["commits"] == 80
        # The leader batches: far fewer WAL appends than commits.
        assert db.stats["batches"] < db.stats["commits"] / 1.5

    def test_sequential_writer_gets_no_batching(self):
        fs = make_fs()
        db = open_db(fs, sync=True)
        for index in range(10):
            drive(fs, db.put(1, "k%d" % index, 100))
        assert db.stats["batches"] == 10

    def test_sync_mode_fsyncs_wal(self):
        fs = make_fs()
        db = open_db(fs, sync=True)
        before = fs.stack.stats.fsyncs
        drive(fs, db.put(1, "k", 100))
        assert fs.stack.stats.fsyncs > before

    def test_async_mode_does_not_fsync(self):
        fs = make_fs()
        db = open_db(fs, sync=False)
        before = fs.stack.stats.fsyncs
        drive(fs, db.put(1, "k", 100))
        assert fs.stack.stats.fsyncs == before


class TestCompaction(object):
    def test_l0_merges_into_l1(self):
        fs = make_fs()
        db = open_db(fs, memtable_bytes=512, l0_compaction_trigger=4,
                     compaction_width=4)
        for index in range(200):
            drive(fs, db.put(1, "k%05d" % index, 100))
        assert db.stats["compactions"] >= 1
        assert len(db.level1) >= 1
        assert len(db.level0) <= 8

    def test_compaction_preserves_reads(self):
        fs = make_fs()
        db = open_db(fs, memtable_bytes=512, l0_compaction_trigger=4)
        for index in range(200):
            drive(fs, db.put(1, "k%05d" % index, 100))
        for index in (0, 50, 100, 199):
            assert drive(fs, db.get(1, "k%05d" % index)) is not None

    def test_compaction_unlinks_victims(self):
        fs = make_fs()
        db = open_db(fs, memtable_bytes=512, l0_compaction_trigger=4)
        for index in range(200):
            drive(fs, db.put(1, "k%05d" % index, 100))
        on_disk = fs.lookup("/db").children
        tables = [n for n in on_disk if n.endswith(".ldb")]
        assert len(tables) == len(db.level0 + db.level1)


class TestBenchDrivers(object):
    def test_populate_builds_many_nonoverlapping_tables(self):
        from repro.leveldb import populate

        fs = make_fs()
        osapi = TracedOS(fs)

        def body():
            return (yield from populate(osapi, 0, "/db", nkeys=2000, value_size=100))

        db = drive(fs, body())
        assert len(db.level0 + db.level1) > 10
        ranges = sorted(
            (t.smallest, t.largest) for t in db.level0 + db.level1
        )
        for (s1, l1), (s2, _l2) in zip(ranges, ranges[1:]):
            assert l1 <= s2  # fillseq keys: non-overlapping tables

    def test_fillsync_and_readrandom_run(self):
        from repro.leveldb import fillsync, populate, readrandom

        fs = make_fs()
        osapi = TracedOS(fs)

        def body():
            db = yield from populate(osapi, 0, "/db", nkeys=500, value_size=100)
            elapsed_reads = yield from readrandom(
                osapi, db, nthreads=4, ops_per_thread=20, nkeys=500
            )
            db2 = MiniLevelDB(osapi, "/db2", DBOptions(sync=True))
            yield from db2.open(0)
            elapsed_fill = yield from fillsync(osapi, db2, nthreads=4, ops_per_thread=5)
            return elapsed_reads, elapsed_fill

        reads, fill = drive(fs, body())
        assert reads > 0
        assert fill > 0
