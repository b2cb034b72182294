"""The section 5.2.1 microbenchmark programs.

Each one is "a simple program" constructing a specific feedback loop
between workload and storage stack:

- :class:`ParallelRandomReaders` (Figures 5a, 5b): N threads, each
  reading random 4 KB blocks from its own large file -- queue depth
  grows with N, letting the scheduler/disk shorten seeks.
- :class:`CacheSensitiveReaders` (Figure 5c): thread 1 sequentially
  reads its whole file before random-reading it; thread 2 random-reads
  its own file throughout.  Whether thread 1's random reads hit cache
  depends on the target's memory size.
- :class:`CompetingSequentialReaders` (Figures 5d, 6): two threads
  stream separate large files with 4 KB reads; throughput depends on
  the CFQ ``slice_sync`` anticipation window.

And one for the file-size dependency refinement (paper section 8):

- :class:`LogFollower`: a producer appends records to a log while
  follower threads re-read the regions it has published.  Plain
  ``file_seq`` chains every read behind every other access to the log;
  stage ordering alone lets a read replay before its bytes existed; the
  ``file_size`` mode orders each read behind the append that produced
  its bytes.
"""

import random

from repro.sim.events import Event, WaitEvent
from repro.workloads.base import Application, must


class ParallelRandomReaders(Application):
    """N threads x R random 4 KB preads from per-thread files."""

    def __init__(self, nthreads=2, reads_per_thread=1000, file_bytes=1 << 30, seed=11):
        self.nthreads = nthreads
        self.reads_per_thread = reads_per_thread
        self.file_bytes = file_bytes
        self.seed = seed
        self.name = "randreads%d" % nthreads

    def setup(self, fs):
        fs.makedirs_now("/data")
        for index in range(1, self.nthreads + 1):
            fs.create_file_now("/data/reader%d" % index, size=self.file_bytes)

    def _reader(self, osapi, tid):
        path = "/data/reader%d" % tid
        fd = must((yield from osapi.call(tid, "open", path=path, flags="O_RDONLY")))
        rng = random.Random(self.seed * 1000 + tid)
        nblocks = self.file_bytes // 4096
        for _ in range(self.reads_per_thread):
            offset = rng.randrange(nblocks) * 4096
            yield from osapi.call(tid, "pread", fd=fd, nbytes=4096, offset=offset)
        must((yield from osapi.call(tid, "close", fd=fd)))

    def main(self, osapi):
        bodies = [
            self._reader(osapi, tid) for tid in range(1, self.nthreads + 1)
        ]
        return (yield from self.spawn_threads(osapi, bodies))


class CacheSensitiveReaders(Application):
    """Thread 1 scans its file then random-reads it; thread 2
    random-reads its own file the whole time."""

    def __init__(self, file_bytes=1 << 30, random_reads=1000, seed=23):
        self.file_bytes = file_bytes
        self.random_reads = random_reads
        self.seed = seed
        self.name = "cachereaders"

    def setup(self, fs):
        fs.makedirs_now("/data")
        fs.create_file_now("/data/scan", size=self.file_bytes)
        fs.create_file_now("/data/other", size=self.file_bytes)

    def _scanner(self, osapi, tid=1):
        fd = must(
            (yield from osapi.call(tid, "open", path="/data/scan", flags="O_RDONLY"))
        )
        chunk = 1 << 20
        for offset in range(0, self.file_bytes, chunk):
            yield from osapi.call(tid, "pread", fd=fd, nbytes=chunk, offset=offset)
        rng = random.Random(self.seed)
        nblocks = self.file_bytes // 4096
        for _ in range(self.random_reads):
            offset = rng.randrange(nblocks) * 4096
            yield from osapi.call(tid, "pread", fd=fd, nbytes=4096, offset=offset)
        must((yield from osapi.call(tid, "close", fd=fd)))

    def _random_reader(self, osapi, tid=2):
        fd = must(
            (yield from osapi.call(tid, "open", path="/data/other", flags="O_RDONLY"))
        )
        rng = random.Random(self.seed + 1)
        nblocks = self.file_bytes // 4096
        for _ in range(self.random_reads):
            offset = rng.randrange(nblocks) * 4096
            yield from osapi.call(tid, "pread", fd=fd, nbytes=4096, offset=offset)
        must((yield from osapi.call(tid, "close", fd=fd)))

    def main(self, osapi):
        return (
            yield from self.spawn_threads(
                osapi, [self._scanner(osapi, 1), self._random_reader(osapi, 2)]
            )
        )


class CompetingSequentialReaders(Application):
    """Two threads issuing sequential 4 KB reads from separate files."""

    def __init__(self, nthreads=2, reads_per_thread=2000, file_bytes=256 << 20, seed=5):
        self.nthreads = nthreads
        self.reads_per_thread = reads_per_thread
        self.file_bytes = file_bytes
        self.seed = seed
        self.name = "seqreaders%d" % nthreads

    def setup(self, fs):
        fs.makedirs_now("/data")
        for index in range(1, self.nthreads + 1):
            fs.create_file_now("/data/stream%d" % index, size=self.file_bytes)

    def _streamer(self, osapi, tid):
        path = "/data/stream%d" % tid
        fd = must((yield from osapi.call(tid, "open", path=path, flags="O_RDONLY")))
        for _ in range(self.reads_per_thread):
            yield from osapi.call(tid, "read", fd=fd, nbytes=4096)
        must((yield from osapi.call(tid, "close", fd=fd)))

    def main(self, osapi):
        bodies = [
            self._streamer(osapi, tid) for tid in range(1, self.nthreads + 1)
        ]
        return (yield from self.spawn_threads(osapi, bodies))

    @property
    def total_bytes(self):
        return self.nthreads * self.reads_per_thread * 4096


class LogFollower(Application):
    """One appender, three followers re-reading published regions."""

    name = "logfollower"
    roots = ("/data",)

    def __init__(self, appends=60, chunk=65536, reads_per_follower=120):
        self.appends = appends
        self.chunk = chunk
        self.reads_per_follower = reads_per_follower

    def setup(self, fs):
        fs.makedirs_now("/data")
        fs.create_file_now("/data/log", size=self.chunk)  # one seed record

    def main(self, osapi):
        published = {"n": 1}
        tick = [Event()]

        def producer(tid=1):
            fd = must((yield from osapi.call(
                tid, "open", path="/data/log", flags="O_WRONLY|O_APPEND")))
            for _ in range(self.appends):
                yield from osapi.call(tid, "write", fd=fd, nbytes=self.chunk)
                yield from osapi.call(tid, "fsync", fd=fd)
                published["n"] += 1
                old, tick[0] = tick[0], Event()
                old.set()
            yield from osapi.call(tid, "close", fd=fd)

        def follower(tid):
            rng = random.Random(tid * 31)
            fd = must((yield from osapi.call(
                tid, "open", path="/data/log", flags="O_RDONLY")))
            for _ in range(self.reads_per_follower):
                index = rng.randrange(published["n"])
                yield from osapi.call(
                    tid, "pread", fd=fd, nbytes=self.chunk,
                    offset=index * self.chunk,
                )
                if rng.random() < 0.3 and not tick[0].is_set:
                    yield WaitEvent(tick[0])  # wait for fresh data
            yield from osapi.call(tid, "close", fd=fd)

        bodies = [producer(1)] + [follower(tid) for tid in (2, 3, 4)]
        return (yield from self.spawn_threads(osapi, bodies))
