"""Sorted string tables.

A table is one file: data blocks followed by an index block and a
footer.  Block layout is computed exactly (so reads land on realistic
offsets) while the key->block map is mirrored in memory, standing in
for the index contents a real reader would parse.
"""

import bisect

BLOCK_SIZE = 4096
FOOTER_SIZE = 48


class BlockMeta(object):
    __slots__ = ("first_key", "offset", "length")

    def __init__(self, first_key, offset, length):
        self.first_key = first_key
        self.offset = offset
        self.length = length


class SSTable(object):
    """An immutable on-disk table plus its in-memory index mirror."""

    def __init__(self, path, blocks, index_offset, index_length, key_range):
        self.path = path
        self.blocks = blocks  # list[BlockMeta], sorted by first_key
        self.index_offset = index_offset
        self.index_length = index_length
        self.smallest, self.largest = key_range
        self._first_keys = [b.first_key for b in blocks]
        self._keys = None  # filled by the builder: set of keys present
        self.fd = None  # shared descriptor, opened lazily (table cache)
        self.index_loaded = False  # parsed index kept in the table cache

    @property
    def file_size(self):
        return self.index_offset + self.index_length + FOOTER_SIZE

    def may_contain(self, key):
        return self.smallest <= key <= self.largest

    def block_for(self, key):
        """The data block that would hold ``key``."""
        position = bisect.bisect_right(self._first_keys, key) - 1
        if position < 0:
            return None
        return self.blocks[position]

    def has_key(self, key):
        return self._keys is not None and key in self._keys

    def __repr__(self):
        return "<SSTable %s: %d blocks [%s..%s]>" % (
            self.path,
            len(self.blocks),
            self.smallest,
            self.largest,
        )


def build_table(osapi, tid, path, items, sync=True):
    """Write ``items`` (sorted (key, value_size) pairs) as a table file.

    A generator; returns the :class:`SSTable`.  Performs the sequence
    of writes a real table builder issues: one buffered write per data
    block, then the index block, then the footer, then fsync + close.
    """
    if not items:
        raise ValueError("cannot build an empty table")
    fd, err = yield from osapi.call(
        tid, "open", path=path, flags="O_WRONLY|O_CREAT|O_TRUNC", mode=0o644
    )
    if err is not None:
        raise IOError("cannot create table %s: %s" % (path, err))
    blocks = []
    offset = 0
    current = []
    current_bytes = 0
    for key, value_size in items:
        current.append((key, value_size))
        current_bytes += len(key) + value_size + 8
        if current_bytes >= BLOCK_SIZE:
            blocks.append(BlockMeta(current[0][0], offset, current_bytes))
            yield from osapi.call(tid, "write", fd=fd, nbytes=current_bytes)
            offset += current_bytes
            current = []
            current_bytes = 0
    if current:
        blocks.append(BlockMeta(current[0][0], offset, current_bytes))
        yield from osapi.call(tid, "write", fd=fd, nbytes=current_bytes)
        offset += current_bytes
    index_length = max(64, 24 * len(blocks))
    yield from osapi.call(tid, "write", fd=fd, nbytes=index_length + FOOTER_SIZE)
    if sync:
        yield from osapi.call(tid, "fsync", fd=fd)
    yield from osapi.call(tid, "close", fd=fd)
    table = SSTable(
        path, blocks, offset, index_length, (items[0][0], items[-1][0])
    )
    table._keys = {key for key, _size in items}
    return table


def read_key(osapi, tid, table, key):
    """Perform the I/O of one point lookup in ``table``.

    Opens the shared descriptor on first use (the table cache), reads
    the index block (usually page-cache resident after the first
    lookup), then the data block.  Returns the value size or None.
    """
    if table.fd is None:
        fd, err = yield from osapi.call(
            tid, "open", path=table.path, flags="O_RDONLY"
        )
        if err is not None:
            raise IOError("cannot open table %s: %s" % (table.path, err))
        table.fd = fd
    if not table.index_loaded:
        # The parsed index block lives in the table cache after the
        # first lookup; only that first lookup reads it from the file.
        yield from osapi.call(
            tid,
            "pread",
            fd=table.fd,
            nbytes=table.index_length,
            offset=table.index_offset,
        )
        table.index_loaded = True
    block = table.block_for(key)
    if block is None:
        return None
    yield from osapi.call(
        tid, "pread", fd=table.fd, nbytes=block.length, offset=block.offset
    )
    if table.has_key(key):
        return True
    return None
