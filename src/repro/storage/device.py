"""Block-device abstractions.

All devices operate on fixed 4 KB blocks addressed by LBA.  A device
exposes *spindles*: independently-dispatched service queues.  A plain
HDD is one spindle; RAID-0 over two HDDs is two; an SSD is one spindle
with internal concurrency.
"""

from repro.sim.events import Event

BLOCK_SIZE = 4096


def rotational_fraction(lba, salt=0):
    """Deterministic pseudo-random angular position of ``lba``, in
    [0, 1).  Both the HDD (to charge rotational delay) and NCQ-style
    schedulers (to *predict* it when choosing among queued requests)
    evaluate this, which is how deep queues shorten effective
    rotational latency the way real command queuing does.

    ``salt`` varies per run (the stack assigns it from the engine's
    RNG): two boots of the same machine do not share sector phase, so
    an ordering that dodged rotational delay during tracing confers no
    advantage when replayed."""
    return (((lba ^ salt) * 2654435761) & 0xFFFFFFFF) / 4294967296.0


class BlockRequest(object):
    """One contiguous block-level transfer.

    ``thread_id`` identifies the issuing (simulated) application thread,
    which CFQ uses for its per-thread queues; ``done`` fires when the
    transfer completes.  ``parent`` links striped sub-requests back to
    the original request (RAID-0 splits requests at chunk boundaries).

    ``error``/``torn_blocks`` record injected fault outcomes (see
    :mod:`repro.faults`): a symbolic errno the stack must surface to
    the caller, and a count of trailing blocks of the transfer that
    never reached the platter (a torn write -- the request *completes*,
    but durability tracking treats those blocks as lost).

    ``covered`` is the request's own bookkeeping: the ``(file_id,
    file_blocks)`` the transfer carries, attached by the stack to every
    page-cache read (completion clears those blocks from the stack's
    in-flight table) and to writes when a durability tracker or a
    fault plan is listening.
    """

    __slots__ = (
        "thread_id",
        "lba",
        "nblocks",
        "is_write",
        "done",
        "submit_time",
        "parent",
        "pending_children",
        "error",
        "torn_blocks",
        "covered",
    )

    def __init__(self, thread_id, lba, nblocks, is_write):
        if nblocks <= 0:
            raise ValueError("request must cover at least one block")
        self.thread_id = thread_id
        self.lba = lba
        self.nblocks = nblocks
        self.is_write = is_write
        self.done = Event()
        self.submit_time = None
        self.parent = None
        self.pending_children = 0
        self.error = None
        self.torn_blocks = 0
        self.covered = None

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        return "<%s lba=%d+%d tid=%s>" % (kind, self.lba, self.nblocks, self.thread_id)


class Spindle(object):
    """One independently-serviced queue of a device.

    ``service_time(request, now)`` starts the transfer (a disk moves
    its head) and returns the simulated seconds it takes; the stack's
    dispatcher, which holds the engine, charges them.  ``concurrency``
    tells the stack how many dispatcher workers may have a transfer
    under way at once (SSDs have internal parallelism; disks do not).
    """

    concurrency = 1
    #: per-run rotational phase salt, assigned by the stack
    rot_salt = 0

    def service_time(self, request, now=None):
        raise NotImplementedError

    def nearest(self, requests, now):
        """The request of the non-empty list ``requests`` that is
        cheapest to reach from where the head is at ``now`` (the first
        of equals), or ``None`` when the model has no positioning cost
        to compare -- the scheduler then orders by LBA (C-LOOK).
        Schedulers receive this method as their picker."""
        return None

    def cost_parts(self, request, now=None):
        """Optional service-time decomposition for observability
        (e.g. ``{"seek": ..., "rotation": ..., "transfer": ...}``);
        ``None`` when the model does not break costs down."""
        return None

    def position(self):
        """Current head position (LBA) for elevator-style scheduling."""
        return 0

    def fault_penalty(self, kind, request):
        """Extra service time one injected fault of ``kind`` costs on
        this hardware before the outcome surfaces (an EIO is preceded
        by the drive's internal retries; a latency spike scales this
        base).  Models override with device-appropriate values."""
        return 0.001


class Device(object):
    """A whole device: routing plus a set of spindles."""

    def __init__(self, spindles):
        self.spindles = list(spindles)

    @property
    def nspindles(self):
        return len(self.spindles)

    def split(self, request):
        """Split ``request`` into ``(spindle_index, BlockRequest)`` pairs.

        Single-spindle devices return the request unchanged.  Striped
        devices return one child per chunk run, linked via ``parent`` so
        the stack can fire the parent's completion event when all
        children finish.
        """
        return [(0, request)]

    def describe(self):
        return type(self).__name__
