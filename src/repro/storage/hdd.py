"""A mechanical-disk timing model.

The model captures what the paper's experiments depend on:

- random access is dominated by seek + rotational delay;
- seek cost grows (sub-linearly) with distance, so elevator/C-LOOK
  scheduling over deep queues raises throughput (Figure 5a);
- sequential streaming runs at full media bandwidth, so CFQ's
  anticipation slices matter (Figures 5d, 6).
"""

from repro.storage.device import BLOCK_SIZE, Device, Spindle, rotational_fraction


class HDDSpindle(Spindle):
    """One disk arm + platter.

    Parameters roughly follow a 7200 RPM SATA disk: ~100 MB/s media
    rate, ~4.2 ms average rotational delay (a full revolution is twice
    that), and a distance-dependent seek of 0.5..9 ms.  Rotational
    delay per access is a deterministic function of the target LBA's
    angular position (see :func:`rotational_fraction`), so schedulers
    that know the formula can reorder to dodge it -- the NCQ effect.
    ``settle_time`` is charged even for near-sequential accesses that
    miss the streaming window.
    """

    def __init__(
        self,
        capacity_blocks=64 * 1024 * 1024,  # 256 GB of 4K blocks
        seq_bandwidth=100 * 1024 * 1024,  # bytes/sec
        min_seek=0.0005,
        max_seek=0.009,
        avg_rotation=0.00417,  # half of 8.33ms (7200 RPM)
        settle_time=0.0002,
    ):
        self.capacity_blocks = capacity_blocks
        self.seq_bandwidth = seq_bandwidth
        self.min_seek = min_seek
        self.max_seek = max_seek
        self.avg_rotation = avg_rotation
        self.settle_time = settle_time
        self._head = 0

    def position(self):
        return self._head

    @property
    def revolution_time(self):
        return 2.0 * self.avg_rotation

    def access_parts(self, lba, now=None):
        """``(seek, rotation)`` positioning costs to reach ``lba``.

        The platter angle advances with simulated time; after the seek
        lands, the head waits for the target sector's angular position
        (:func:`rotational_fraction`) to come around.  Reordering a
        deep queue can therefore dodge most of the rotational delay --
        the NCQ effect behind the paper's queue-depth feedback loop.
        With ``now=None`` (no timing context) the average rotational
        delay is charged instead.
        """
        if lba == self._head:
            return 0.0, 0.0
        distance = abs(lba - self._head)
        # Seek time grows with the square root of distance, a standard
        # first-order model of arm acceleration.
        frac = min(1.0, distance / float(self.capacity_blocks))
        seek = self.min_seek + (self.max_seek - self.min_seek) * (frac ** 0.5)
        if now is None:
            return seek, self.avg_rotation
        rev = self.revolution_time
        arrival_angle = ((now + seek) / rev) % 1.0
        target_angle = rotational_fraction(lba, self.rot_salt)
        rotation = ((target_angle - arrival_angle) % 1.0) * rev
        return seek, rotation

    def access_time(self, lba, now=None):
        """Total positioning cost (seek + rotation) to reach ``lba``."""
        seek, rotation = self.access_parts(lba, now)
        return seek + rotation

    def nearest(self, requests, now):
        """``min(requests, key=lambda r: self.access_time(r.lba, now))``
        in one frame: :meth:`access_parts`' formula, same float
        operations in the same order, over every candidate with the
        model's parameters bound once.  A scheduler calls this per
        dispatch decision over its whole queue, so the per-candidate
        cost is the depth-dependent part of every replay."""
        if len(requests) == 1:
            return requests[0]
        head = self._head
        capacity = float(self.capacity_blocks)
        min_seek = self.min_seek
        seek_span = self.max_seek - min_seek
        rev = 2.0 * self.avg_rotation
        salt = self.rot_salt
        best = None
        best_cost = 0.0
        for request in requests:
            lba = request.lba
            if lba == head:
                cost = 0.0
            else:
                frac = abs(lba - head) / capacity
                if frac > 1.0:
                    frac = 1.0
                seek = min_seek + seek_span * (frac ** 0.5)
                arrival_angle = ((now + seek) / rev) % 1.0
                target_angle = (
                    ((lba ^ salt) * 2654435761) & 0xFFFFFFFF
                ) / 4294967296.0
                cost = seek + ((target_angle - arrival_angle) % 1.0) * rev
            # Strict: the first of equal costs wins, as min() has it.
            if best is None or cost < best_cost:
                best = request
                best_cost = cost
        return best

    def cost_parts(self, request, now=None):
        """Where this request's service time would go, from the current
        head position (observability; see the stack's dispatch loop)."""
        seek, rotation = self.access_parts(request.lba, now)
        return {
            "seek": seek,
            "rotation": rotation,
            "transfer": self.transfer_time(request.nblocks),
        }

    def transfer_time(self, nblocks):
        return nblocks * BLOCK_SIZE / float(self.seq_bandwidth)

    def fault_penalty(self, kind, request):
        """A disk surfaces a fault only after exhausting its internal
        retries: a worst-case re-seek plus one full revolution per
        attempt (two attempts modeled)."""
        return self.max_seek + 2.0 * self.revolution_time

    def service_time(self, request, now=None):
        """Move the head to ``request`` and transfer it: positioning as
        :meth:`access_parts` defines it, computed here in one frame
        (this runs once per dispatched request)."""
        lba = request.lba
        head = self._head
        if lba == head:
            cost = 0.0
        else:
            frac = abs(lba - head) / float(self.capacity_blocks)
            if frac > 1.0:
                frac = 1.0
            min_seek = self.min_seek
            seek = min_seek + (self.max_seek - min_seek) * (frac ** 0.5)
            if now is None:
                cost = seek + self.avg_rotation
            else:
                rev = 2.0 * self.avg_rotation
                arrival_angle = ((now + seek) / rev) % 1.0
                target_angle = (
                    ((lba ^ self.rot_salt) * 2654435761) & 0xFFFFFFFF
                ) / 4294967296.0
                cost = seek + ((target_angle - arrival_angle) % 1.0) * rev
            if cost == 0.0:
                cost = self.settle_time
        nblocks = request.nblocks
        cost += nblocks * BLOCK_SIZE / float(self.seq_bandwidth)
        self._head = lba + nblocks
        return cost


class HDD(Device):
    """A single-disk device."""

    def __init__(self, **spindle_kwargs):
        super().__init__([HDDSpindle(**spindle_kwargs)])

    def describe(self):
        return "hdd"
