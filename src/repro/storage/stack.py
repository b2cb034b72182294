"""The assembled I/O path: cache -> scheduler -> device.

One :class:`StorageStack` models one mounted file system on one device.
All entry points are generators driven by the simulation engine; they
consume exactly the amount of virtual time the modeled hardware would.

The data path:

- ``read``: one page-cache touch over the block range; misses (plus a
  readahead window on sequential streams) are coalesced into
  physically contiguous runs and submitted; the caller blocks until
  its own runs complete (readahead beyond the request is
  asynchronous).
- ``write``: dirty pages in cache, with dirty-ratio throttling that
  synchronously cleans the oldest pages when the limit is exceeded.
- ``fsync``: flush the file's dirty pages (or the whole cache for
  ext3-style ordered data), then commit the journal with a barrier.
- ``meta_read``/``namespace_op``: the inode/dentry cache and journaled
  metadata updates.
"""

from repro.errors import DeviceError
from repro.obs.context import of_engine
from repro.obs.metrics import COUNT_BOUNDS
from repro.sim.events import Delay, Event
from repro.storage.alloc import BlockAllocator, bytes_to_blocks
from repro.storage.cache import PageCache
from repro.storage.device import BLOCK_SIZE, BlockRequest, Device
from repro.storage.fsprofile import FS_PROFILES
from repro.storage.scheduler import make_scheduler


class StackStats(object):
    """Counters accumulated by one stack over its lifetime."""

    def __init__(self):
        self.reads_submitted = 0
        self.writes_submitted = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.fsyncs = 0
        self.journal_commits = 0

    def as_dict(self):
        return dict(self.__dict__)


class StorageStack(object):
    PAGE_CPU = 0.0000015  # copy-to-user per cached 4K page
    META_CPU = 0.0000010
    BARRIER_LATENCY = 0.0004  # device cache flush on journal commit
    META_COMMIT_BATCH = 64

    def __init__(
        self,
        engine,
        device,
        cache_bytes,
        fs_profile="ext4",
        scheduler="cfq",
        scheduler_kwargs=None,
    ):
        self.engine = engine
        self.device = device
        if isinstance(fs_profile, str):
            fs_profile = FS_PROFILES[fs_profile]
        self.profile = fs_profile
        self.cache = PageCache(max(1, cache_bytes // BLOCK_SIZE))
        self.alloc = BlockAllocator(max_extent_blocks=fs_profile.max_extent_blocks)
        self.stats = StackStats()
        self.scheduler_name = scheduler
        # Observability (repro.obs): handles are resolved once here;
        # ``self._obs is None`` keeps every instrumented site disabled
        # with a single pointer test.
        self._obs = of_engine(engine)
        if self._obs is not None:
            metrics = self._obs.metrics
            self._c_readahead = metrics.counter("storage.cache.readahead_blocks")
            self._c_writeback = metrics.counter("storage.cache.writeback_blocks")
            self._h_queue_depth = metrics.histogram(
                "storage.queue_depth_at_submit", COUNT_BOUNDS
            )
        # file_id -> {block: completion event of the read filling it}
        # (no entry for a file with nothing in flight); the request
        # names its blocks (``covered``) and _complete clears them.
        self._inflight = {}
        # Device.split is the identity; only a device that overrides it
        # (striping) is asked, per request.
        self._split = (
            device.split if type(device).split is not Device.split else None
        )
        # Shared immutable effects for the fixed CPU charges: walk
        # charging and the data path yield these tens of thousands of
        # times per replay, and Delay instances are never mutated by
        # the engine.  Each is yielded only when the engine declines to
        # fast-forward the charge (see Engine.advance).
        self.meta_delay = Delay(self.META_CPU)
        self._ns_delay = Delay(fs_profile.namespace_cpu)
        self._barrier_delay = Delay(self.BARRIER_LATENCY)
        # Fault injection / durability tracking (repro.faults).  Both
        # default to None so the fault-free fast paths stay untouched.
        self.faults = None
        self.tracker = None
        self._device_name = device.describe()
        kwargs = dict(scheduler_kwargs or {})
        self._schedulers = []
        self._arrival_waiters = []
        self._dispatchers = []
        self._pending_meta_blocks = 0
        self._meta_journal_cursor = 0
        for index, spindle in enumerate(device.spindles):
            # Per-run rotational phase: see device.rotational_fraction.
            spindle.rot_salt = engine.rng.getrandbits(32)
            sched = make_scheduler(scheduler, **kwargs)
            self._schedulers.append(sched)
            self._arrival_waiters.append([])
            for worker in range(spindle.concurrency):
                self._dispatchers.append(engine.spawn(
                    self._dispatch_loop(index),
                    name="io-%s-s%d-w%d" % (device.describe(), index, worker),
                ))

    def close(self):
        """Stop the dispatch loops of a stack that is done with: parked,
        they hold it (page cache, device, engine) in a reference cycle,
        so a serve worker would grow with the requests it has served."""
        for process in self._dispatchers:
            process.close()

    # ------------------------------------------------------------------
    # fault injection / durability tracking
    # ------------------------------------------------------------------

    def attach_faults(self, injector):
        """Install a :class:`~repro.faults.inject.FaultInjector`; the
        dispatch loops consult it once per request."""
        self.faults = injector
        if injector is not None:
            injector.bind(self.engine)
        return injector

    def attach_tracker(self, tracker):
        """Install a :class:`~repro.faults.durability.DurabilityTracker`
        that shadows the write path (pure bookkeeping, no timing)."""
        self.tracker = tracker
        return tracker

    # ------------------------------------------------------------------
    # request submission and dispatch
    # ------------------------------------------------------------------

    def submit(self, thread_id, lba, nblocks, is_write):
        """Queue one block request; returns the request (wait on
        ``request.done``)."""
        request = BlockRequest(thread_id, lba, nblocks, is_write)
        now = request.submit_time = self.engine.now
        stats = self.stats
        if is_write:
            stats.writes_submitted += 1
            stats.blocks_written += nblocks
        else:
            stats.reads_submitted += 1
            stats.blocks_read += nblocks
        if self._split is None:
            self._enqueue(0, request, now)
        else:
            for spindle_index, piece in self._split(request):
                piece.submit_time = now
                self._enqueue(spindle_index, piece, now)
        return request

    def _enqueue(self, spindle_index, request, now):
        sched = self._schedulers[spindle_index]
        sched.add(request, now)
        if self._obs is not None:
            self._h_queue_depth.observe(len(sched))
        waiters = self._arrival_waiters[spindle_index]
        if waiters:  # idle dispatchers, in the order they went idle
            self._arrival_waiters[spindle_index] = []
            for event in waiters:
                event.set()

    def _complete(self, request):
        parent = request.parent
        if parent is not None:
            request.done.set()
            # RAID: a member failure fails the whole stripe; torn
            # members accumulate onto the logical request.
            if request.error is not None and parent.error is None:
                parent.error = request.error
            if request.torn_blocks:
                parent.torn_blocks += request.torn_blocks
            parent.pending_children -= 1
            if parent.pending_children:
                return
            request = parent
        done = request.done
        if request.is_write:
            done.set()
            if self.tracker is not None:
                self.tracker.note_write(request)
        else:
            if request.covered is not None:
                # The blocks stop being in flight at the instant the
                # waiters learn of it.  One that was evicted and
                # fetched again meanwhile belongs to the newer read.
                file_id, blocks = request.covered
                fetching = self._inflight.get(file_id)
                if fetching is not None:
                    for block in blocks:
                        if fetching.get(block) is done:
                            del fetching[block]
                    if not fetching:
                        del self._inflight[file_id]
            done.set()

    def _dispatch_loop(self, spindle_index):
        sched = self._schedulers[spindle_index]
        spindle = self.device.spindles[spindle_index]
        engine = self.engine
        nearest = spindle.nearest
        obs = self._obs
        if obs is not None:
            tag = "storage.%s.s%d" % (self.device.describe(), spindle_index)
            metrics = obs.metrics
            spans = obs.spans
            track = "%s/s%d" % (self.device.describe(), spindle_index)
            c_dispatches = metrics.counter(tag + ".dispatches")
            h_queue_wait = metrics.histogram(tag + ".queue_wait_seconds")
            c_stalls = metrics.counter(tag + ".anticipation_stalls")
            h_stall = metrics.histogram(tag + ".anticipation_idle_seconds")
            c_anticipation_hits = metrics.counter(tag + ".anticipation_hits")
        while True:
            request = sched.pop(engine.now, spindle.position(), nearest)
            if request is None:
                arrival = Event()
                self._arrival_waiters[spindle_index].append(arrival)
                deadline = sched.idle_deadline(engine.now)
                if deadline is None:
                    yield arrival
                else:
                    # CFQ anticipation: idle for the active thread's
                    # next request instead of seeking away.
                    idle_start = engine.now
                    timer = engine.timer(max(0.0, deadline - engine.now))
                    combined = Event()

                    def _fire(_value, combined=combined):
                        if not combined.is_set:
                            combined.set()

                    arrival._add_waiter(_fire)
                    timer._add_waiter(_fire)
                    yield combined
                    if not arrival.is_set:
                        sched.idle_expired(engine.now)
                        if obs is not None:
                            c_stalls.inc()
                            h_stall.observe(engine.now - idle_start)
                    elif obs is not None:
                        c_anticipation_hits.inc()
                continue
            if self.faults is not None:
                outcome = self.faults.on_dispatch(
                    self._device_name, spindle_index, spindle, request,
                    engine.now,
                )
                if outcome is not None:
                    if outcome.hold is not None:
                        yield outcome.hold  # never fires: a dead drive
                    elif outcome.delay and not engine.advance(outcome.delay):
                        yield Delay(outcome.delay)
                    if outcome.error is not None:
                        request.error = outcome.error
                        self._complete(request)
                        continue
                    if outcome.torn_blocks:
                        request.torn_blocks += outcome.torn_blocks
            if obs is None:
                cost = spindle.service_time(request, engine.now)
                if not engine.advance(cost):
                    yield Delay(cost)
                self._complete(request)
                continue
            c_dispatches.inc()
            if request.submit_time is not None:
                h_queue_wait.observe(engine.now - request.submit_time)
            parts = spindle.cost_parts(request, engine.now)
            service_start = engine.now
            cost = spindle.service_time(request, service_start)
            if not engine.advance(cost):
                yield Delay(cost)
            self._complete(request)
            if parts:
                for part, seconds in parts.items():
                    metrics.histogram(
                        "%s.%s_seconds" % (tag, part)
                    ).observe(seconds)
            spans.record(
                "W" if request.is_write else "R",
                "io",
                track,
                service_start,
                engine.now,
                args={
                    "lba": request.lba,
                    "nblocks": request.nblocks,
                    "tid": str(request.thread_id),
                },
            )

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def read(self, thread_id, file_id, offset, length):
        """Read ``length`` bytes of ``file_id`` starting at ``offset``.

        Blocks already being fetched (by another thread or by an
        earlier readahead chunk) are *in flight*: the caller waits on
        their completion rather than re-submitting or -- worse --
        treating them as resident.
        """
        first, nblocks = bytes_to_blocks(offset, length)
        engine = self.engine
        if nblocks == 0:
            if not engine.advance(self.META_CPU):
                yield self.meta_delay
            return
        cache = self.cache
        ra_start, ra_end = cache.readahead_plan(
            thread_id, file_id, first, nblocks
        )
        # No yields until submission, so the in-flight table cannot
        # change under the touch: this file's fetches, looked up once.
        fetching = self._inflight.get(file_id)
        missing, waits = cache.touch_range(file_id, first, nblocks, fetching)
        ra_start = max(ra_start, first + nblocks)
        prefetch = (
            cache.absent(file_id, ra_start, ra_end) if ra_start < ra_end else []
        )
        own = []
        if missing or prefetch:
            if self._obs is not None and prefetch:
                self._c_readahead.inc(len(prefetch))
            evicted = cache.insert_run(
                file_id, missing + prefetch if prefetch else missing,
                dirty=False,
            )
            if evicted:
                self._writeback_async(thread_id, evicted)
            # The caller waits for its own blocks; readahead past them
            # is asynchronous.  Either way the request carries the file
            # blocks it fills, in flight until _complete clears them.
            if fetching is None:
                fetching = self._inflight[file_id] = {}
            for blocks, awaited in ((missing, True), (prefetch, False)):
                if not blocks:
                    continue
                for lba, count, start in self._runs(file_id, blocks):
                    request = self.submit(thread_id, lba, count, False)
                    done = request.done
                    filled = range(start, start + count)
                    request.covered = (file_id, filled)
                    for block in filled:
                        fetching[block] = done
                    if awaited:
                        waits.append(done)
                        own.append(request)
        for event in waits:
            if not event.is_set:
                yield event
        if self.faults is not None:
            error = None
            for request in own:
                if request.error is not None:
                    error = request.error
                    # Drop the never-filled pages so a retry re-reads.
                    cache.invalidate_keys(
                        (file_id, block) for block in request.covered[1]
                    )
            if error is not None:
                raise DeviceError(error, "read of %r" % (file_id,))
        copy = self.PAGE_CPU * nblocks
        if not engine.advance(copy):
            yield Delay(copy)

    def write(self, thread_id, file_id, offset, length):
        """Buffered write: dirty the covered pages, throttling when the
        cache exceeds its dirty ratio."""
        first, nblocks = bytes_to_blocks(offset, length)
        engine = self.engine
        if nblocks == 0:
            if not engine.advance(self.META_CPU):
                yield self.meta_delay
            return
        self.alloc.ensure_blocks(file_id, first + nblocks)
        evicted = self.cache.insert_run(
            file_id, range(first, first + nblocks), dirty=True
        )
        if evicted:
            self._writeback_async(thread_id, evicted)
        copy = self.PAGE_CPU * nblocks
        if not engine.advance(copy):
            yield Delay(copy)
        if self.cache.dirty_count > self.cache.dirty_limit:
            excess = self.cache.dirty_count - int(self.cache.dirty_limit * 0.9)
            victims = self.cache.oldest_dirty(excess)
            yield from self._flush_keys(thread_id, victims)

    def fsync(self, thread_id, file_id, size=None):
        """Durably persist ``file_id`` (and, for ordered-data file
        systems, everything else that is dirty).  ``size`` is the
        caller's in-memory file size; on success the durability tracker
        records it as *acknowledged* -- the bytes a crash must preserve."""
        self.stats.fsyncs += 1
        if self.profile.ordered_data:
            keys = self.cache.all_dirty_keys()
        else:
            keys = self.cache.dirty_keys_of(file_id)
        yield from self._flush_keys(thread_id, keys)
        yield from self._journal_commit(thread_id)
        if self.tracker is not None and size is not None:
            self.tracker.note_fsync(file_id, self.engine.now, size)

    def sync_all(self, thread_id):
        """sync(2): flush every dirty page and commit the journal."""
        yield from self._flush_keys(thread_id, self.cache.all_dirty_keys())
        yield from self._journal_commit(thread_id)

    def meta_read(self, thread_id, file_id):
        """Consult the inode/dentry cache; a miss reads the inode block."""
        if self.cache.lookup(("ino", file_id)):
            if not self.engine.advance(self.META_CPU):
                yield self.meta_delay
            return
        yield from self.meta_read_cold(thread_id, file_id)

    def meta_read_cold(self, thread_id, file_id):
        """The miss half of :meth:`meta_read`, for callers that already
        consulted the cache themselves (the VFS's timed path walk
        inlines the hit path to skip a generator per visited inode)."""
        key = ("ino", file_id)
        writebacks = self.cache.insert(key, dirty=False)
        self._writeback_async(thread_id, writebacks)
        request = self.submit(thread_id, self.alloc.inode_lba(file_id), 1, False)
        yield request.done
        if request.error is not None:
            raise DeviceError(request.error, "inode read of %r" % (file_id,))
        if not self.engine.advance(self.META_CPU):
            yield self.meta_delay

    def namespace_op(self, thread_id, file_id=None, desc=None):
        """A journaled namespace change (create/unlink/rename/mkdir...).

        Metadata updates accumulate and are written to the journal zone
        asynchronously in batches; fsync commits force them out.
        ``desc`` describes the change for the durability tracker's
        oplog (crash recovery rolls back uncommitted entries)."""
        if self.tracker is not None:
            self.tracker.note_namespace(desc if desc is not None else ("meta",))
        self._pending_meta_blocks += self.profile.metadata_blocks
        if file_id is not None:
            writebacks = self.cache.insert(("ino", file_id), dirty=False)
            self._writeback_async(thread_id, writebacks)
        if self._pending_meta_blocks >= self.META_COMMIT_BATCH:
            blocks, self._pending_meta_blocks = self._pending_meta_blocks, 0
            self.submit(thread_id, self._journal_lba(blocks), blocks, True)
        if not self.engine.advance(self._ns_delay.seconds):
            yield self._ns_delay

    def drop_file(self, thread_id, file_id, truncated=False):
        """Forget a deleted file: invalidate its pages and layout.  A
        file ``truncated`` to nothing is forgotten the same way but
        lives on, so its readers keep their readahead state; a deleted
        file's goes with it (inode numbers are never reused)."""
        self.cache.invalidate_file(file_id)
        if not truncated:
            self.cache.forget_streams(file_id)
        self.alloc.drop(file_id)
        if self.tracker is not None:
            self.tracker.drop(file_id)

    def drop_caches(self, keep_metadata=True):
        """Between-run cache clearing (the paper's cold-cache setup)."""
        self.cache.drop_clean(keep_metadata)

    def warm_metadata(self, file_ids):
        """Mark inode entries resident (e.g. right after initialization
        created them -- the dentry cache is hot on a real system too)."""
        for file_id in file_ids:
            self.cache.insert(("ino", file_id), dirty=False)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _runs(self, file_id, blocks):
        """Coalesce a sorted list of distinct file blocks into
        physically contiguous ``(lba, count, first_block)`` runs."""
        out = []
        extent_runs = self.alloc.runs
        n = len(blocks)
        i = 0
        while i < n:
            cursor = blocks[i]
            if blocks[-1] - cursor == n - 1 - i:
                j = n - 1  # the rest is one run: nearly every call
            else:
                j = i
                while j + 1 < n and blocks[j + 1] == blocks[j] + 1:
                    j += 1
            for lba, count in extent_runs(file_id, cursor, j - i + 1):
                out.append((lba, count, cursor))
                cursor += count
            i = j + 1
        return out

    def _writeback_async(self, thread_id, keys):
        """Write evicted dirty pages without blocking the caller."""
        if not keys:
            return
        if self._obs is not None:
            self._c_writeback.inc(len(keys))
        by_file = {}
        for key in keys:
            by_file.setdefault(key[0], []).append(key[1])
        tracked = self.tracker is not None
        for file_id, blocks in by_file.items():
            if file_id == "ino":
                continue
            blocks.sort()
            for lba, count, block in self._runs(file_id, blocks):
                request = self.submit(thread_id, lba, count, True)
                if tracked:
                    request.covered = (file_id, range(block, block + count))

    def _flush_keys(self, thread_id, keys):
        """Synchronously write the given dirty pages and mark them clean."""
        if not keys:
            return
        by_file = {}
        for key in keys:
            if key[0] == "ino":
                continue
            by_file.setdefault(key[0], []).append(key[1])
        requests = []
        # A tracker credits completed writes to their file blocks and a
        # fault plan may fail them: only then does a request need to
        # know what it covers.
        tracked = self.tracker is not None or self.faults is not None
        for file_id, blocks in by_file.items():
            blocks.sort()
            for lba, count, block in self._runs(file_id, blocks):
                request = self.submit(thread_id, lba, count, True)
                if tracked:
                    request.covered = (file_id, range(block, block + count))
                requests.append(request)
        self.cache.mark_clean(keys)
        for request in requests:
            if not request.done.is_set:
                yield request.done
        if tracked:
            error = None
            failed_file = None
            for request in requests:
                if request.error is not None:
                    error = request.error
                    failed_file, covered = request.covered
                    # The pages never landed: they are dirty again.
                    self.cache.insert_run(failed_file, covered, dirty=True)
            if error is not None:
                raise DeviceError(error, "flush of %r" % (failed_file,))

    def _journal_lba(self, nblocks):
        lba = self.alloc.journal_lba + self._meta_journal_cursor
        self._meta_journal_cursor = (
            self._meta_journal_cursor + nblocks
        ) % (BlockAllocator.JOURNAL_ZONE_BLOCKS // 2)
        return lba

    def _journal_commit(self, thread_id):
        self.stats.journal_commits += 1
        blocks = self.profile.journal_commit_blocks + self._pending_meta_blocks
        self._pending_meta_blocks = 0
        tracker = self.tracker
        upto = tracker.commit_window() if tracker is not None else None
        request = self.submit(thread_id, self._journal_lba(blocks), blocks, True)
        yield request.done
        if not self.engine.advance(self.BARRIER_LATENCY):
            yield self._barrier_delay
        if request.error is not None:
            # A failed commit never happened: the oplog window stays
            # uncommitted and the caller sees the device error.
            raise DeviceError(request.error, "journal commit")
        if tracker is not None:
            tracker.note_commit(upto, torn=bool(request.torn_blocks))
