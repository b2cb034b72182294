"""LevelDB ``readrandom``: cold shared-fd preads, deep device queue."""

from repro.leveldb.apps import LevelDBReadRandom

NAME = "ldb_readrandom"
WHY = (
    "LevelDB readrandom (8 threads x 600 gets, 6.2k actions) ssd to hdd-ext4: "
    "cold preads keep the queue deep, so stack, scheduler, device and engine "
    "dominate; a single resource component, so no sharding"
)
SOURCE = "ssd"
TARGET = "hdd-ext4"
CORES = ("auto", "events", "jit")
SHARES = {
    False: {"batch": 0.35, "cores": 0.30, "stream": 0.35},
    True: {"batch": 0.15, "cores": 0.22, "stream": 0.12},
}
MODES = False
SHARD = True
SERVE = None


def build_app(seed, quick=False):
    if quick:
        return LevelDBReadRandom(
            nthreads=8, ops_per_thread=75, nkeys=3000, seed=7 + seed
        )
    return LevelDBReadRandom(nthreads=8, ops_per_thread=600, seed=7 + seed)
