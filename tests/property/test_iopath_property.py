"""Property tests for the block request path (stack -> scheduler -> spindle).

The path makes each decision once, in one frame: the spindle costs a
whole queue in ``HDDSpindle.nearest`` and positions the winner inside
``service_time``; CFQ keeps the seeky verdict where it changes; a
request names the file blocks it carries and ``_complete`` clears the
in-flight table.  The slow forms those replaced are the references
here:

a. ``nearest`` is ``min(key=access_time)`` by identity and
   ``service_time`` is the ``access_time`` chain by float ``==`` --
   ``HDDSpindle.access_parts`` stays the one written definition of a
   disk's positioning cost;
b. the CFQ and elevator schedulers as they stood before (copied below,
   per-call ``_seeky`` and an ``estimator(lba)`` closure) pop the same
   requests, idle to the same deadlines and count the same lengths;
c. whole-stack goldens, recorded on the commit *before* the path was
   rebuilt: seeded read / write / fsync / fadvise / unlink mixes on
   every device x scheduler, alone and with a durability tracker, a
   fault plan and observability attached.
"""

import hashlib
import json
import random
from collections import OrderedDict, deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.faults import DurabilityTracker, FaultInjector, FaultPlan, FaultRule
from repro.obs.context import Observability
from repro.sim import Engine
from repro.storage import HDD, RAID0, SSD, StorageStack
from repro.storage.device import BlockRequest
from repro.storage.hdd import HDDSpindle
from repro.storage.scheduler import CFQScheduler, ElevatorScheduler
from repro.vfs import FileSystem, flags as F
from tests.conftest import syscall

# -- (a) one spindle: the inlined formulas == access_parts ----------------

#: Small disks make the seek fraction saturate at 1.0; zero seek and
#: rotation times reach the settle-time branch.
SPINDLES = st.sampled_from([
    {},
    {"capacity_blocks": 1000},
    {"capacity_blocks": 7, "min_seek": 0.0},
    {"min_seek": 0.0, "max_seek": 0.0},
    {"min_seek": 0.0, "max_seek": 0.0, "avg_rotation": 0.0},
])
#: Few distinct addresses, so duplicated LBAs, ``lba == head`` and
#: exact cost ties are common.
LBA = st.sampled_from([0, 1, 5, 6, 64, 999, 1000, 4096, 123456, 50_000_000])
NOW = st.one_of(
    st.sampled_from([0.0, 0.00417, 0.00834, 1.0]),
    st.floats(0.0, 1e4, allow_nan=False),
)
SALT = st.integers(0, 2 ** 32 - 1)


def spindle_at(params, head, salt):
    spindle = HDDSpindle(**params)
    spindle._head = head
    spindle.rot_salt = salt
    return spindle


def chained_service_time(spindle, request, now):
    """``service_time`` through ``access_time`` -> ``access_parts`` ->
    ``rotational_fraction``, as it was written before."""
    cost = spindle.access_time(request.lba, now)
    if cost == 0.0 and request.lba != spindle._head:
        cost = spindle.settle_time
    cost += spindle.transfer_time(request.nblocks)
    spindle._head = request.lba + request.nblocks
    return cost


@settings(max_examples=300, deadline=None)
@given(SPINDLES, LBA, SALT, NOW, st.lists(LBA, min_size=1, max_size=9))
def test_nearest_is_min_by_access_time(params, head, salt, now, lbas):
    assume(params.get("avg_rotation") != 0.0)  # a platter that turns
    spindle = spindle_at(params, head, salt)
    requests = [BlockRequest(tid, lba, 1, False) for tid, lba in enumerate(lbas)]
    expected = min(requests, key=lambda r: spindle.access_time(r.lba, now))
    assert spindle.nearest(requests, now) is expected


@settings(max_examples=300, deadline=None)
@given(SPINDLES, LBA, SALT, st.one_of(st.none(), NOW),
       st.lists(st.tuples(LBA, st.integers(1, 300)), min_size=1, max_size=6))
def test_service_time_is_the_access_time_chain(params, head, salt, now, moves):
    assume(now is None or params.get("avg_rotation") != 0.0)
    fast = spindle_at(params, head, salt)
    slow = spindle_at(params, head, salt)
    for lba, nblocks in moves:  # the head moves: each starts where the last ended
        request = BlockRequest(1, lba, nblocks, False)
        assert fast.service_time(request, now) == chained_service_time(
            slow, request, now
        )
        assert fast.position() == slow.position()


# -- (b) schedulers: the parent's, kept as references ---------------------


class ReferenceElevator(object):
    def __init__(self):
        self._pending = []

    def add(self, request, now):
        self._pending.append(request)

    def pop(self, now, head, estimator=None):
        if not self._pending:
            return None
        if estimator is not None:
            best = min(self._pending, key=lambda r: estimator(r.lba))
        else:
            ahead = [r for r in self._pending if r.lba >= head]
            pool = ahead if ahead else self._pending
            best = min(pool, key=lambda r: r.lba)
        self._pending.remove(best)
        return best

    def idle_deadline(self, now):
        return None

    def idle_expired(self, now):
        pass

    def __len__(self):
        return len(self._pending)


class ReferenceCFQ(object):
    def __init__(self, slice_sync=0.100, slice_idle=0.008, seek_threshold=1024):
        self.slice_sync = slice_sync
        self.slice_idle = slice_idle
        self.seek_threshold = seek_threshold
        self._queues = OrderedDict()
        self._active_tid = None
        self._slice_start = None
        self._size = 0
        self._last_lba = {}
        self._seek_score = {}

    def add(self, request, now):
        tid = request.thread_id
        queue = self._queues.get(tid)
        if queue is None:
            queue = deque()
            self._queues[tid] = queue
        queue.append(request)
        self._size += 1
        last = self._last_lba.get(tid)
        score = self._seek_score.get(tid, 0)
        if last is not None:
            if abs(request.lba - last) > self.seek_threshold:
                score = min(score + 2, 6)
            else:
                score = max(score - 1, 0)
        self._seek_score[tid] = score
        self._last_lba[tid] = request.lba + request.nblocks

    def _seeky(self, tid):
        return self._seek_score.get(tid, 0) >= 2

    def _slice_expired(self, now):
        return (
            self._slice_start is not None
            and now - self._slice_start >= self.slice_sync
        )

    def _switch_to(self, tid, now):
        self._active_tid = tid
        self._slice_start = now
        if tid in self._queues:
            self._queues.move_to_end(tid)

    def _pop_from(self, tid):
        self._size -= 1
        return self._queues[tid].popleft()

    def _pop_seeky_nearest(self, head, estimator=None):
        candidates = [
            queue[0]
            for tid, queue in self._queues.items()
            if queue and self._seeky(tid)
        ]
        if not candidates:
            return None
        if estimator is not None:
            best = min(candidates, key=lambda r: estimator(r.lba))
        else:
            ahead = [r for r in candidates if r.lba >= head]
            pool = ahead if ahead else candidates
            best = min(pool, key=lambda r: r.lba)
        return self._pop_from(best.thread_id)

    def pop(self, now, head, estimator=None):
        active = self._active_tid
        if (
            active is not None
            and not self._seeky(active)
            and not self._slice_expired(now)
        ):
            queue = self._queues.get(active)
            if queue:
                return self._pop_from(active)
            return None
        for tid, queue in self._queues.items():
            if tid != active and queue and not self._seeky(tid):
                self._switch_to(tid, now)
                return self._pop_from(tid)
        if active is not None and self._queues.get(active) and not self._seeky(active):
            self._switch_to(active, now)
            return self._pop_from(active)
        request = self._pop_seeky_nearest(head, estimator)
        if request is not None:
            self._active_tid = None
            self._slice_start = None
            return request
        if self._size == 0:
            self._active_tid = None
            self._slice_start = None
        return None

    def idle_deadline(self, now):
        active = self._active_tid
        if active is None or self._seeky(active) or self._slice_expired(now):
            return None
        if self._queues.get(active):
            return None
        slice_end = self._slice_start + self.slice_sync
        return min(now + self.slice_idle, slice_end)

    def idle_expired(self, now):
        self._active_tid = None
        self._slice_start = None

    def __len__(self):
        return self._size


#: Two regions further apart than CFQ's seek threshold: a thread turns
#: seeky by hopping between them and sequential again by staying put
#: (a ``run`` is that many back-to-back 8-block arrivals).
REGION = st.sampled_from([0, 5_000_000])
TID = st.integers(1, 3)
SCHEDULER_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), TID, REGION, st.integers(0, 40), st.just(1)),
        st.tuples(st.just("run"), TID, REGION, st.just(0), st.integers(2, 5)),
        st.tuples(st.just("pop"), st.just(1)),
        st.tuples(st.just("pop"), st.integers(2, 6)),
        st.tuples(st.just("idle_expired")),
        # Around the 8 ms idle window and the 100 ms slice.
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.001, 0.009, 0.06])),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=800, deadline=None)
@given(st.sampled_from(["cfq", "elevator"]), st.booleans(), SALT, SCHEDULER_STEPS)
# A thread hops (seeky), settles (sequential again), drains, and is idled for.
@example("cfq", True, 0, [
    ("run", 1, 0, 0, 1), ("run", 1, 5_000_000, 0, 1), ("run", 1, 5_000_000, 8, 1),
    ("run", 2, 0, 0, 1), ("pop", 5),
])
def test_schedulers_match_their_references(name, with_picker, salt, steps):
    new, old = {
        "cfq": (CFQScheduler, ReferenceCFQ),
        "elevator": (ElevatorScheduler, ReferenceElevator),
    }[name]
    new, old = new(), old()
    # One disk each: both heads move with what their scheduler popped.
    new_disk = spindle_at({}, 0, salt)
    old_disk = spindle_at({}, 0, salt)
    clock = [0.0]
    picker = estimator = None
    if with_picker:
        picker = new_disk.nearest

        def estimator(lba):
            return old_disk.access_time(lba, clock[0])

    def agree():
        assert len(new) == len(old)
        assert new.idle_deadline(clock[0]) == old.idle_deadline(clock[0])

    for step in steps:
        now = clock[0]
        if step[0] == "run":
            _, tid, region, offset, count = step
            for index in range(count):
                request = BlockRequest(tid, region + offset + 8 * index, 8, False)
                new.add(request, now)
                old.add(request, now)
                agree()
        elif step[0] == "pop":
            for _ in range(step[1]):
                popped = new.pop(now, new_disk.position(), picker)
                assert popped is old.pop(now, old_disk.position(), estimator)
                if popped is not None:
                    new_disk._head = old_disk._head = popped.lba + popped.nblocks
                agree()
        elif step[0] == "idle_expired":
            new.idle_expired(now)
            old.idle_expired(now)
        else:
            clock[0] += step[1]
        agree()


# -- (c) the whole stack against goldens from before the rebuild ----------

DEVICES = {"hdd": HDD, "ssd": SSD, "raid0": RAID0}
PROFILES = ("ext4", "ext3", "jfs")
BLOCK = 4096
NFILES = 4
FILE_BLOCKS = 3000  # beyond ext3's 2048-block extents: runs cross extents
NTHREADS = 6
NOPS = 45
OP_MIX = ("read",) * 5 + ("scan",) * 3 + ("write",) * 4 + (
    "fsync", "fsync", "fadvise", "unlink")


def stack_run(device, scheduler, extras, seed):
    """One seeded mix on a small machine; returns ``(hash, stack)``.

    The hash covers the completion order and time of every call, the
    stack's counters, the page cache down to its LRU order and, when
    attached, the tracker's ledger, the fault log and every metric and
    span."""
    rng = random.Random("%s/%s/%s/%d" % (device, scheduler, extras, seed))
    obs = Observability() if extras in ("obs", "all") else None
    engine = Engine(seed, obs=obs)
    # 160 pages: evictions (also of pages still in flight), dirty
    # write-back and the dirty throttle (32 pages) all happen.
    stack = StorageStack(
        engine, DEVICES[device](), 160 * BLOCK,
        fs_profile=PROFILES[seed % len(PROFILES)], scheduler=scheduler,
    )
    fs = FileSystem(engine, stack, "linux")
    fs.mkdir_now("/d")
    for n in range(NFILES):
        fs.create_file_now("/d/f%d" % n, FILE_BLOCKS * BLOCK)
    tracker = injector = None
    if extras in ("tracker", "all"):
        tracker = stack.attach_tracker(DurabilityTracker().seed_from_fs(fs))
    if extras in ("faults", "all"):
        injector = stack.attach_faults(FaultInjector(FaultPlan([
            FaultRule("eio", rate=0.04),
            FaultRule("latency", rate=0.05, factor=3.0),
            FaultRule("torn_write", rate=0.15),
        ], seed=seed)))
    log = []

    def thread(tid, ops):
        fds = {}
        stream = 0
        for index, (op, n, block, count) in enumerate(ops):
            path = "/d/f%d" % n
            if n not in fds:
                fd, err = yield from syscall(fs, fs.open(tid, path, F.O_RDWR | F.O_CREAT))
                log.append((tid, index, "open", fd, str(err), repr(engine.now)))
                fds[n] = fd
            fd = fds[n]
            if op == "read":
                out = yield from syscall(
                    fs, fs.pread(tid, fd, count * BLOCK - 7, block * BLOCK + 3))
            elif op == "scan":  # a sequential stream: readahead
                out = yield from syscall(fs, fs.pread(tid, fd, 2 * BLOCK, stream * BLOCK))
                stream += 2
            elif op == "write":
                out = yield from syscall(fs, fs.pwrite(tid, fd, count * BLOCK, block * BLOCK))
            elif op == "fsync":
                out = yield from syscall(fs, fs.fsync(tid, fd))
            elif op == "fadvise":
                out = yield from syscall(fs, fs.fadvise(tid, fd, block * BLOCK, count * BLOCK))
            else:  # unlink: the descriptor keeps the old inode alive
                out = yield from syscall(fs, fs.unlink(tid, path))
                yield from syscall(fs, fs.close(tid, fds.pop(n)))
            log.append((tid, index, op, out[0], str(out[1]), repr(engine.now)))

    for tid in range(1, NTHREADS + 1):
        ops = [
            (rng.choice(OP_MIX), rng.randrange(NFILES),
             # a few hot regions, so threads meet on in-flight pages
             rng.choice((0, 40, 2040, 2500)) + rng.randrange(24),
             rng.choice((1, 1, 1, 2, 5, 17, 40)))
            for _ in range(NOPS)
        ]
        engine.spawn(thread(tid, ops), name="t%d" % tid)
    engine.run()
    sha = hashlib.sha256()
    for item in (
        log,
        repr(engine.now),
        sorted(stack.stats.as_dict().items()),
        (stack.cache.hits, stack.cache.misses),
        [(repr(key), dirty) for key, dirty in stack.cache.pages()],
        list(map(repr, stack.cache.all_dirty_keys())),
    ):
        sha.update(repr(item).encode())
    if tracker is not None:
        sha.update(repr((
            sorted((f, sorted(b)) for f, b in tracker._durable.items()),
            sorted((f, sorted(b)) for f, b in tracker._lost.items()),
            sorted(tracker.acked.items()),
            [(op.seq, op.committed, op.torn) for op in tracker.oplog],
        )).encode())
    if injector is not None:
        sha.update(json.dumps(injector.log_dicts(), sort_keys=True).encode())
    if obs is not None:
        sha.update(json.dumps(obs.metrics.to_dict(), sort_keys=True).encode())
        sha.update(obs.spans.to_jsonl().encode())
    return sha.hexdigest()[:16], stack


#: ``device/scheduler/extras/seed`` -> hash, recorded at c1f3baf (the
#: parent of the change that rebuilt the path) by running
#: :func:`stack_run` against that tree.
GOLDENS = json.loads("""
{
"hdd/cfq/all/0": "a1742a5a2c0ed860",
"hdd/cfq/all/1": "2d0d226ca7b5fcd3",
"hdd/cfq/faults/0": "ac2cf32e3f854cc8",
"hdd/cfq/faults/1": "aedd63238aedc122",
"hdd/cfq/obs/0": "29fae48c0bed338b",
"hdd/cfq/obs/1": "3748fcd6b9ca737b",
"hdd/cfq/plain/0": "c4cfa29dd8b973fd",
"hdd/cfq/plain/1": "d86e16e1fbe1e6ca",
"hdd/cfq/tracker/0": "09319cec07294c8f",
"hdd/cfq/tracker/1": "0fd807510d1f20ee",
"hdd/elevator/all/0": "103838c25998173d",
"hdd/elevator/all/1": "1a269433050bb7e7",
"hdd/elevator/faults/0": "9d1600bbf0dd7bd2",
"hdd/elevator/faults/1": "8e0032732271f171",
"hdd/elevator/obs/0": "c7ac01363d80da73",
"hdd/elevator/obs/1": "ef102c81f33c7677",
"hdd/elevator/plain/0": "51a15a67f7c9676a",
"hdd/elevator/plain/1": "ceed8de9bf704b13",
"hdd/elevator/tracker/0": "39317383b76cab68",
"hdd/elevator/tracker/1": "c9c4bb276ab75056",
"hdd/fifo/all/0": "521e2bf70f95c748",
"hdd/fifo/all/1": "93e9680d95c56ed6",
"hdd/fifo/faults/0": "032857056d0003e7",
"hdd/fifo/faults/1": "72f8f93cb0eb43f2",
"hdd/fifo/obs/0": "00501da1b57b8c92",
"hdd/fifo/obs/1": "4007dcff470706fb",
"hdd/fifo/plain/0": "b9822a4aa420b026",
"hdd/fifo/plain/1": "62454f1a044a9235",
"hdd/fifo/tracker/0": "9ce9fc86121eda46",
"hdd/fifo/tracker/1": "437d69017b4c039b",
"raid0/cfq/all/0": "e578991a278dbd2a",
"raid0/cfq/all/1": "07bfd88f4658b91b",
"raid0/cfq/faults/0": "80697f8b79c589f6",
"raid0/cfq/faults/1": "5a60f2738babcd58",
"raid0/cfq/obs/0": "a253609b9111d063",
"raid0/cfq/obs/1": "2cedead06f606a19",
"raid0/cfq/plain/0": "7be92e9d65aecc0a",
"raid0/cfq/plain/1": "7ac6aea1abb65ad1",
"raid0/cfq/tracker/0": "dc850193139efce2",
"raid0/cfq/tracker/1": "b013e68009d5b2d2",
"raid0/elevator/all/0": "57e0a115244900e5",
"raid0/elevator/all/1": "81542100a1368bfe",
"raid0/elevator/faults/0": "948108ed89316352",
"raid0/elevator/faults/1": "bacaf338de9e2d7c",
"raid0/elevator/obs/0": "7bedb353aab8956f",
"raid0/elevator/obs/1": "960788633d9f02e5",
"raid0/elevator/plain/0": "3a876ed4129329a6",
"raid0/elevator/plain/1": "b3d028d3a9a2abfb",
"raid0/elevator/tracker/0": "1a15c3f9caedf183",
"raid0/elevator/tracker/1": "2f8ac8ce42abf84b",
"raid0/fifo/all/0": "cd3278d209e2d0e3",
"raid0/fifo/all/1": "75f98ebc17e31a4d",
"raid0/fifo/faults/0": "b2050258aa66a2bc",
"raid0/fifo/faults/1": "277ba1b4010e17df",
"raid0/fifo/obs/0": "1145b8538215ee06",
"raid0/fifo/obs/1": "eeae5f7b926b4edc",
"raid0/fifo/plain/0": "283cabebfbadd65b",
"raid0/fifo/plain/1": "bdc64d99770b538f",
"raid0/fifo/tracker/0": "ed290db46db2267b",
"raid0/fifo/tracker/1": "b1dd8afc0b56a4ca",
"ssd/cfq/all/0": "4ed8ea6a37e03ab2",
"ssd/cfq/all/1": "071cbdd79b168599",
"ssd/cfq/faults/0": "ab0000a2c63a4ac8",
"ssd/cfq/faults/1": "7ddfb14d2c23964c",
"ssd/cfq/obs/0": "44ca2ac78ef17107",
"ssd/cfq/obs/1": "d1a8e7ce1482dd23",
"ssd/cfq/plain/0": "882c02392eed459f",
"ssd/cfq/plain/1": "338d59f8113bcfac",
"ssd/cfq/tracker/0": "025f9106a5242b56",
"ssd/cfq/tracker/1": "f20483fe1b8d119c",
"ssd/elevator/all/0": "4173fa26160fd771",
"ssd/elevator/all/1": "aaab0058a80c5daf",
"ssd/elevator/faults/0": "e8d98e2e4e07ef81",
"ssd/elevator/faults/1": "735803c8711802e9",
"ssd/elevator/obs/0": "ddc505278921e610",
"ssd/elevator/obs/1": "468d925665e9af18",
"ssd/elevator/plain/0": "56d181e8dde873a0",
"ssd/elevator/plain/1": "5e269b0991492ab8",
"ssd/elevator/tracker/0": "490b6a0b6ba2a48d",
"ssd/elevator/tracker/1": "e5ec3eaea4610d8e",
"ssd/fifo/all/0": "229f53692ded16a7",
"ssd/fifo/all/1": "71f3fe15ea033f2b",
"ssd/fifo/faults/0": "5b7548b02c7dbbcc",
"ssd/fifo/faults/1": "c208ee3af5bb9f1f",
"ssd/fifo/obs/0": "64fc71446fcc802b",
"ssd/fifo/obs/1": "18f97fcce18cc84a",
"ssd/fifo/plain/0": "976eb6c206defd2f",
"ssd/fifo/plain/1": "17be48184506985a",
"ssd/fifo/tracker/0": "eb7580a6704d1076",
"ssd/fifo/tracker/1": "1fe50d45c5f2a05f"
}
""")


@pytest.mark.parametrize("config", sorted(GOLDENS))
def test_stack_matches_golden(config):
    device, scheduler, extras, seed = config.split("/")
    digest, stack = stack_run(device, scheduler, extras, int(seed))
    assert stack._inflight == {}  # quiescent: every read cleared its blocks
    assert digest == GOLDENS[config]
