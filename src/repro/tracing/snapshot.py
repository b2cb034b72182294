"""Initial file-tree snapshots.

A snapshot records the parts of the tree the traced program accesses:
directory contents, file sizes, symlink targets, and extended-attribute
names (the iBench traces famously *lack* xattr values, which is the
paper's explanation for ARTC's residual Table-3 errors -- we reproduce
that by letting snapshots omit xattrs).  File contents are never
recorded; replay initialization fills files with arbitrary bytes.
"""

import json

from repro.errors import SnapshotError
from repro.tracing.atomicio import atomic_write
from repro.vfs.nodes import FileType


class SnapshotEntry(object):
    __slots__ = ("path", "ftype", "size", "target", "xattrs")

    def __init__(self, path, ftype, size=0, target=None, xattrs=None):
        self.path = path
        self.ftype = ftype
        self.size = size
        self.target = target
        self.xattrs = list(xattrs or [])

    def to_dict(self):
        out = {"path": self.path, "type": self.ftype}
        if self.size:
            out["size"] = self.size
        if self.target is not None:
            out["target"] = self.target
        if self.xattrs:
            out["xattrs"] = self.xattrs
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["path"],
            data["type"],
            data.get("size", 0),
            data.get("target"),
            data.get("xattrs"),
        )

    def __repr__(self):
        return "<SnapshotEntry %s %s size=%d>" % (self.path, self.ftype, self.size)


class Snapshot(object):
    """An ordered list of entries; parents always precede children."""

    def __init__(self, entries=None, label=""):
        self.entries = list(entries or [])
        self.label = label

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, path, ftype, size=0, target=None, xattrs=None):
        self.entries.append(SnapshotEntry(path, ftype, size, target, xattrs))

    def paths(self):
        return [entry.path for entry in self.entries]

    def entry_for(self, path):
        for entry in self.entries:
            if entry.path == path:
                return entry
        return None

    def sorted(self):
        """Entries ordered so that parents precede children."""
        return sorted(self.entries, key=lambda e: (e.path.count("/"), e.path))

    def validate(self):
        """Check internal consistency (parents exist, no duplicates)."""
        seen = set()
        dirs = {"/"}
        for entry in self.sorted():
            if entry.path in seen:
                raise SnapshotError("duplicate snapshot path %r" % entry.path)
            seen.add(entry.path)
            parent = entry.path.rsplit("/", 1)[0] or "/"
            if parent not in dirs and parent != "/":
                raise SnapshotError(
                    "snapshot entry %r has no parent directory" % entry.path
                )
            if entry.ftype == FileType.DIR:
                dirs.add(entry.path)
            if entry.ftype == FileType.SYMLINK and not entry.target:
                raise SnapshotError("symlink %r lacks a target" % entry.path)

    # -- capture from a live file system -------------------------------

    @classmethod
    def capture(cls, fs, roots=("/",), include_xattrs=True, label=""):
        """Walk a :class:`~repro.vfs.filesystem.FileSystem` and record
        everything under ``roots`` (excluding /dev)."""
        snap = cls(label=label)

        # Pre-order over an explicit stack: a nested function calling
        # itself would hold ``fs`` in a reference cycle after the walk.
        for root in roots:
            inode = fs.lookup(root, follow=False)
            if inode is None:
                raise SnapshotError("snapshot root %r does not exist" % root)
            stack = [(inode, root if root.startswith("/") else "/" + root)]
            while stack:
                inode, path = stack.pop()
                if path.startswith("/dev"):
                    continue
                if path != "/":
                    if inode.is_dir:
                        snap.add(path, FileType.DIR)
                    elif inode.is_symlink:
                        snap.add(path, FileType.SYMLINK, target=inode.symlink_target)
                    elif inode.is_reg:
                        xattrs = sorted(inode.xattrs) if include_xattrs else None
                        snap.add(path, FileType.REG, size=inode.size, xattrs=xattrs)
                    else:
                        continue  # special files are recreated by init, not snapshotted
                if inode.is_dir:
                    for name in sorted(inode.children, reverse=True):
                        child = fs.table.get(inode.children[name])
                        stack.append((child, path.rstrip("/") + "/" + name))
        return snap

    # -- serialization -------------------------------------------------

    def to_dict(self):
        return {
            "format": "repro-snapshot-v1",
            "label": self.label,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("format") != "repro-snapshot-v1":
            raise SnapshotError("not a repro snapshot (bad header)")
        return cls(
            [SnapshotEntry.from_dict(e) for e in data.get("entries", [])],
            data.get("label", ""),
        )

    def dumps(self):
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def loads(cls, text):
        return cls.from_dict(json.loads(text))

    def save(self, path):
        atomic_write(path, self.dumps())

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.loads(handle.read())

    def __repr__(self):
        return "<Snapshot %s: %d entries>" % (self.label or "?", len(self.entries))
