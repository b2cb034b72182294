"""LevelDB ``fillsync``: the write path of the same storage layers."""

from repro.leveldb.apps import LevelDBFillSync

NAME = "ldb_fillsync"
WHY = (
    "LevelDB fillsync (8 threads x 800 puts, 3.4k actions) ssd to hdd-ext4: "
    "dirty pages, writeback, journal commits and barriers, so a read-path "
    "gain that costs the write path shows"
)
SOURCE = "ssd"
TARGET = "hdd-ext4"
CORES = ("auto", "events", "jit")
SHARES = {
    False: {"batch": 0.35, "cores": 0.30, "stream": 0.35},
    True: {"batch": 0.20, "cores": 0.25, "stream": 0.18},
}
MODES = False
SHARD = False
SERVE = None


def build_app(seed, quick=False):
    # fillsync draws nothing itself; the seed reaches it through the
    # traced machine's engine (device phase, hence interleaving).
    return LevelDBFillSync(nthreads=8, ops_per_thread=100 if quick else 800)
