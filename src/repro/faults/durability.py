"""What has actually reached the platter.

The page cache acknowledges buffered writes long before the device
sees them; only the storage stack knows which blocks a crash would
preserve.  :class:`DurabilityTracker` shadows the write path:

- the stack tags each flush/writeback request with the file blocks it
  covers; on completion those blocks become *durable* (minus any
  injected torn tail, which is recorded as *lost* -- the overwrite
  destroyed the old version without landing the new one);
- fsync completion *acks* a file: the caller was promised everything
  up to the current size is durable, which is the contract crash
  recovery must honor (violations are reported, not silently fixed);
- journaled namespace operations (create/unlink/rename/...) enter an
  oplog; a journal-commit barrier marks the window committed.  A torn
  commit leaves its window's operations torn -- the source of
  torn-rename violations.

Everything is pure bookkeeping on the simulated timeline; the tracker
never consumes simulated time or randomness, so attaching one changes
no replay outcome.
"""

BLOCK = 4096


class NamespaceOp(object):
    """One journaled namespace change awaiting (or past) commit."""

    __slots__ = ("seq", "desc", "committed", "torn")

    def __init__(self, seq, desc):
        self.seq = seq
        self.desc = tuple(desc)
        self.committed = False
        self.torn = False

    @property
    def kind(self):
        return self.desc[0] if self.desc else "?"

    def __repr__(self):
        state = "torn" if self.torn else ("committed" if self.committed
                                          else "pending")
        return "<NamespaceOp #%d %s %s>" % (self.seq, self.desc, state)


class DurabilityTracker(object):
    def __init__(self):
        self._durable = {}  # file_id -> set(block)
        self._lost = {}  # file_id -> set(block) destroyed by torn writes
        self.acked = {}  # file_id -> (time, size) at last fsync ack
        self.oplog = []  # every NamespaceOp, in seq order
        self._next_seq = 0

    # -- seeding -------------------------------------------------------

    def seed_file(self, file_id, size):
        """Mark a snapshot-initialized file durable up to ``size``."""
        nblocks = (size + BLOCK - 1) // BLOCK
        self._durable.setdefault(file_id, set()).update(range(nblocks))

    def seed_from_fs(self, fs):
        """Seed from a freshly initialized file system: everything the
        snapshot created is on disk by definition."""
        for ino, inode in fs.table._inodes.items():
            if inode.is_reg and inode.size > 0:
                self.seed_file(ino, inode.size)
        return self

    # -- write path ----------------------------------------------------

    def note_write(self, request):
        """A write request completed; ``request.covered`` names the
        file blocks it carried (attached by the stack)."""
        covered = request.covered
        if covered is None:
            return
        file_id, blocks = covered
        if request.error is not None:
            return  # nothing landed
        torn = min(request.torn_blocks, len(blocks))
        landed = blocks if not torn else blocks[:-torn]
        durable = self._durable.setdefault(file_id, set())
        durable.update(landed)
        if torn:
            lost = self._lost.setdefault(file_id, set())
            for block in blocks[-torn:]:
                durable.discard(block)
                lost.add(block)

    def note_fsync(self, file_id, now, size):
        """fsync returned: the application was promised ``size`` bytes
        of ``file_id`` are durable."""
        self.acked[file_id] = (now, size)

    def drop(self, file_id):
        """The file was deleted; its blocks no longer need tracking."""
        self._durable.pop(file_id, None)
        self._lost.pop(file_id, None)
        self.acked.pop(file_id, None)

    # -- namespace oplog -----------------------------------------------

    def note_namespace(self, desc):
        """Record a journaled namespace change; returns its seq."""
        op = NamespaceOp(self._next_seq, desc)
        self._next_seq += 1
        self.oplog.append(op)
        return op.seq

    def commit_window(self):
        """The seq boundary a journal commit issued *now* covers."""
        return self._next_seq

    def note_commit(self, upto_seq, torn=False):
        """A journal-commit barrier completed for ops with
        ``seq < upto_seq``; a torn commit poisons its window."""
        for op in self.oplog:
            if op.seq >= upto_seq:
                break
            if not op.committed:
                op.committed = True
                op.torn = torn

    # -- queries -------------------------------------------------------

    def durable_prefix_blocks(self, file_id):
        """Consecutive durable blocks from the start of the file --
        content beyond the first hole is unreachable after a crash."""
        durable = self._durable.get(file_id)
        if not durable:
            return 0
        n = 0
        while n in durable:
            n += 1
        return n

    def durable_size(self, file_id, size):
        """Bytes of ``file_id`` a crash right now would preserve, given
        its (volatile) in-memory ``size``."""
        return min(size, BLOCK * self.durable_prefix_blocks(file_id))

    def __repr__(self):
        return "<DurabilityTracker files=%d acked=%d ops=%d>" % (
            len(self._durable), len(self.acked), len(self.oplog)
        )
