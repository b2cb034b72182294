"""Extent-based block allocation.

Files are laid out as lists of contiguous extents.  The allocator
serves three zones:

- an *inode zone* at the front of the device (metadata reads seek here);
- a *journal zone* (fsync commits write here -- on a disk this is the
  seek-away-and-back cost that makes fsync-heavy workloads slow);
- the *data zone*, allocated first-fit-append with a per-profile extent
  cap so different file systems fragment differently.
"""

from repro.storage.device import BLOCK_SIZE


class Extent(object):
    __slots__ = ("file_offset_block", "lba", "nblocks")

    def __init__(self, file_offset_block, lba, nblocks):
        self.file_offset_block = file_offset_block
        self.lba = lba
        self.nblocks = nblocks

    def __repr__(self):
        return "Extent(fo=%d, lba=%d, n=%d)" % (
            self.file_offset_block,
            self.lba,
            self.nblocks,
        )


class BlockAllocator(object):
    INODE_ZONE_BLOCKS = 8192
    JOURNAL_ZONE_BLOCKS = 32768

    def __init__(self, max_extent_blocks=32768):
        self.max_extent_blocks = max_extent_blocks
        self.journal_lba = self.INODE_ZONE_BLOCKS
        self._next_lba = self.INODE_ZONE_BLOCKS + self.JOURNAL_ZONE_BLOCKS
        self._extents = {}  # file_id -> [Extent]
        self._sizes = {}  # file_id -> total allocated blocks

    def inode_lba(self, file_id):
        """Deterministic location of a file's on-disk inode."""
        return hash(file_id) % self.INODE_ZONE_BLOCKS

    def drop(self, file_id):
        """Forget a deleted file's layout (space is not reclaimed; the
        simulated device is large enough that reuse never matters)."""
        self._extents.pop(file_id, None)
        self._sizes.pop(file_id, None)

    def ensure_blocks(self, file_id, nblocks_needed):
        """Grow ``file_id`` to at least ``nblocks_needed`` blocks."""
        have = self._sizes.get(file_id, 0)
        if have >= nblocks_needed:
            return  # already allocated -- the steady-state fast path
        extents = self._extents.setdefault(file_id, [])
        while have < nblocks_needed:
            grow = min(nblocks_needed - have, self.max_extent_blocks)
            # Merge with the previous extent when we happen to be
            # contiguous (the common append-only case).
            if extents and extents[-1].lba + extents[-1].nblocks == self._next_lba:
                extents[-1].nblocks += grow
            else:
                extents.append(Extent(have, self._next_lba, grow))
            self._next_lba += grow
            have += grow
        self._sizes[file_id] = have

    def block_lba(self, file_id, block_index):
        """Map a file-relative block to its LBA, allocating on demand."""
        self.ensure_blocks(file_id, block_index + 1)
        for extent in self._extents[file_id]:
            if extent.file_offset_block <= block_index < (
                extent.file_offset_block + extent.nblocks
            ):
                return extent.lba + (block_index - extent.file_offset_block)
        raise AssertionError("unmapped block after ensure_blocks")

    def runs(self, file_id, block_index, nblocks):
        """Split ``[block_index, block_index+nblocks)`` into physically
        contiguous ``(lba, count)`` runs.

        Walks the (file-offset-ordered) extent list once rather than
        mapping block by block; adjacent extents that happen to be
        physically contiguous still merge into one run."""
        end = block_index + nblocks
        if self._sizes.get(file_id, 0) < end:
            self.ensure_blocks(file_id, end)
        out = []
        i = block_index
        for extent in self._extents[file_id]:
            fo = extent.file_offset_block
            stop = fo + extent.nblocks
            if i < fo or i >= stop:
                continue
            lba = extent.lba + (i - fo)
            if end <= stop and not out:
                # The whole range sits inside this extent -- nearly
                # every call: appends merge into one extent per file.
                return [(lba, nblocks)]
            take = min(end, stop) - i
            if out and out[-1][0] + out[-1][1] == lba:
                out[-1] = (out[-1][0], out[-1][1] + take)
            else:
                out.append((lba, take))
            i += take
            if i >= end:
                break
        return out


def bytes_to_blocks(offset, length):
    """Return ``(first_block, nblocks)`` covering ``[offset, offset+length)``."""
    if length <= 0:
        return offset // BLOCK_SIZE, 0
    first = offset // BLOCK_SIZE
    last = (offset + length - 1) // BLOCK_SIZE
    return first, last - first + 1
