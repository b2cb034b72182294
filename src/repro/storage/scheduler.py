"""I/O schedulers.

Each spindle gets one scheduler instance.  The dispatcher loop in
:mod:`repro.storage.stack` drives it through three entry points:

- ``add(request, now)`` -- a new request arrived;
- ``pop(now, head, nearest)`` -- choose the next request to service
  (or ``None``);
- ``idle_deadline(now)`` -- if ``pop`` returned ``None`` while requests
  could still arrive for the active thread, how long to anticipate
  (CFQ-style idling); ``None`` means don't idle.

``idle_expired(now)`` tells CFQ its anticipation window closed so it
can switch to another thread's queue.

Where a scheduler may reorder, the device decides what "closest"
means: ``nearest`` is the spindle's picker
(:meth:`repro.storage.device.Spindle.nearest`), which costs every
candidate in one call -- seek plus rotational phase on a disk, the NCQ
effect -- and answers ``None`` on a device with nothing to position.
Then, or with no picker at all, the order is C-LOOK from ``head``.
"""

from collections import OrderedDict, deque
from operator import attrgetter

_LBA = attrgetter("lba")


def _pick(pool, now, head, nearest):
    """The request of ``pool`` (non-empty) to service next."""
    best = nearest(pool, now) if nearest is not None else None
    if best is None:
        ahead = [r for r in pool if r.lba >= head]
        best = min(ahead if ahead else pool, key=_LBA)
    return best


class FIFOScheduler(object):
    """Strict arrival-order service (similar to the noop elevator)."""

    name = "fifo"

    def __init__(self):
        self._queue = deque()

    def add(self, request, now):
        self._queue.append(request)

    def pop(self, now, head, nearest=None):
        if self._queue:
            return self._queue.popleft()
        return None

    def idle_deadline(self, now):
        return None

    def idle_expired(self, now):
        pass

    def __len__(self):
        return len(self._queue)


class ElevatorScheduler(object):
    """C-LOOK: service the nearest request at or past the head, wrapping
    to the lowest LBA when the upward sweep empties.

    This is what converts deep queues into shorter seeks -- the
    mechanism behind the sub-linear slowdown of the paper's
    workload-parallelism microbenchmark (Figure 5a).
    """

    name = "elevator"

    def __init__(self):
        self._pending = []

    def add(self, request, now):
        self._pending.append(request)

    def pop(self, now, head, nearest=None):
        if not self._pending:
            return None
        best = _pick(self._pending, now, head, nearest)
        self._pending.remove(best)
        return best

    def idle_deadline(self, now):
        return None

    def idle_expired(self, now):
        pass

    def __len__(self):
        return len(self._pending)


class CFQScheduler(object):
    """Completely Fair Queuing with anticipation and seekiness detection.

    Each thread owns a FIFO queue.  A *sequential* (non-seeky) active
    thread is serviced for up to ``slice_sync`` seconds; when its queue
    momentarily empties within the slice, the dispatcher idles up to
    ``slice_idle`` waiting for the thread's next request instead of
    seeking away -- the anticipatory-scheduling tradeoff the paper
    tunes via ``slice_sync`` in Figures 5d and 6.

    Threads whose requests jump around the disk are marked *seeky*, as
    real CFQ does: they get no idling, and their pending requests are
    dispatched nearest-to-head-first (CFQ's noidle service tree plus
    the drive's own NCQ reordering).  This is what converts deep queues
    of random readers into shorter seeks (Figure 5a).
    """

    name = "cfq"

    def __init__(self, slice_sync=0.100, slice_idle=0.008, seek_threshold=1024):
        if slice_sync <= 0:
            raise ValueError("slice_sync must be positive")
        self.slice_sync = slice_sync
        self.slice_idle = slice_idle
        self.seek_threshold = seek_threshold
        self._queues = OrderedDict()  # tid -> deque, in round-robin order
        self._active_tid = None
        self._slice_start = None
        self._size = 0
        self._last_lba = {}  # tid -> end lba of the last arrival
        self._seek_score = {}  # tid -> 0..6
        # The tids scoring >= 2.  A score moves only in add(), so the
        # verdict is kept there and pop() / idle_deadline() test
        # membership instead of re-deriving it per thread per call.
        self._seeky = set()

    # -- bookkeeping -------------------------------------------------

    def add(self, request, now):
        tid = request.thread_id
        queue = self._queues.get(tid)
        if queue is None:
            queue = deque()
            self._queues[tid] = queue
        queue.append(request)
        self._size += 1
        last = self._last_lba.get(tid)
        if last is not None:
            score = self._seek_score.get(tid, 0)
            if abs(request.lba - last) > self.seek_threshold:
                # Asymmetric scoring keeps mixed far/near patterns (an
                # index read next to its data read, then a jump to
                # another file) firmly classified as seeky; only a
                # genuinely sequential stream un-marks itself.
                score = min(score + 2, 6)
            else:
                score = max(score - 1, 0)
            self._seek_score[tid] = score
            if score >= 2:
                self._seeky.add(tid)
            else:
                self._seeky.discard(tid)
        self._last_lba[tid] = request.lba + request.nblocks

    def _slice_expired(self, now):
        return (
            self._slice_start is not None
            and now - self._slice_start >= self.slice_sync
        )

    def _switch_to(self, tid, now):
        self._active_tid = tid
        self._slice_start = now
        # Rotate round-robin order: move tid to the back.
        if tid in self._queues:
            self._queues.move_to_end(tid)

    def _pop_from(self, tid):
        self._size -= 1
        return self._queues[tid].popleft()

    # -- dispatcher interface ----------------------------------------

    def pop(self, now, head, nearest=None):
        active = self._active_tid
        seeky = self._seeky
        if (
            active is not None
            and active not in seeky
            and not self._slice_expired(now)
        ):
            queue = self._queues.get(active)
            if queue:
                return self._pop_from(active)
            # Active sequential thread has nothing queued: anticipate
            # (see idle_deadline) rather than seeking away.
            return None
        if self._size == 0:
            self._active_tid = None
            self._slice_start = None
            return None
        # Slice over, no active thread, or active thread turned seeky:
        # grant a slice to the next sequential backlogged thread...
        for tid, queue in self._queues.items():
            if tid != active and queue and tid not in seeky:
                self._switch_to(tid, now)
                return self._pop_from(tid)
        if active is not None and self._queues.get(active) and active not in seeky:
            self._switch_to(active, now)  # only sequential thread: renew
            return self._pop_from(active)
        # ...otherwise every backlogged thread is seeky (something is
        # queued, and nothing sequential was): service that pool -- the
        # head of each one's queue -- nearest first (the module
        # docstring says what nearest means).
        candidates = []
        for tid, queue in self._queues.items():
            if queue and tid in seeky:
                candidates.append(queue[0])
        self._active_tid = None
        self._slice_start = None
        return self._pop_from(_pick(candidates, now, head, nearest).thread_id)

    def idle_deadline(self, now):
        active = self._active_tid
        if active is None or active in self._seeky or self._slice_expired(now):
            return None
        if self._queues.get(active):
            return None  # work available; no reason to idle
        slice_end = self._slice_start + self.slice_sync
        return min(now + self.slice_idle, slice_end)

    def idle_expired(self, now):
        # Anticipation failed: relinquish the slice.
        self._active_tid = None
        self._slice_start = None

    def __len__(self):
        return self._size


SCHEDULERS = {
    "fifo": FIFOScheduler,
    "elevator": ElevatorScheduler,
    "cfq": CFQScheduler,
}


def make_scheduler(name, **kwargs):
    """Instantiate a scheduler by name (``fifo``/``elevator``/``cfq``)."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError("unknown scheduler %r" % (name,)) from None
    return cls(**kwargs)
