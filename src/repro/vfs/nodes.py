"""Inodes, the directory tree, and path resolution."""

from repro.vfs.errnos import Errno, VfsError


class FileType(object):
    REG = "reg"
    DIR = "dir"
    SYMLINK = "symlink"
    CHAR = "char"
    FIFO = "fifo"
    SOCK = "sock"


class Inode(object):
    """One file-system object.

    ``ino`` doubles as the storage-stack ``file_id``; regular-file data
    timing is charged against it.  ``special`` names a character-device
    personality (``random``/``urandom``/``null``/``zero``) whose
    platform-dependent behaviour lives in the FileSystem.  A directory's
    ``parent`` is the inode number ``..`` names (the root's is its own);
    it is None for every other type, which hard links may place in
    several directories at once.
    """

    __slots__ = (
        "ino",
        "ftype",
        "size",
        "nlink",
        "mode",
        "xattrs",
        "symlink_target",
        "special",
        "children",
        "parent",
        "open_count",
        "mtime",
    )

    def __init__(self, ino, ftype, mode=0o644):
        self.ino = ino
        self.ftype = ftype
        self.size = 0
        self.nlink = 1 if ftype != FileType.DIR else 2
        self.mode = mode
        self.xattrs = {}
        self.symlink_target = None
        self.special = None
        self.children = {} if ftype == FileType.DIR else None
        self.parent = None
        self.open_count = 0
        self.mtime = 0.0

    @property
    def is_dir(self):
        return self.ftype == FileType.DIR

    @property
    def is_symlink(self):
        return self.ftype == FileType.SYMLINK

    @property
    def is_reg(self):
        return self.ftype == FileType.REG

    def __repr__(self):
        return "<Inode %d %s size=%d nlink=%d>" % (
            self.ino,
            self.ftype,
            self.size,
            self.nlink,
        )


class InodeTable(object):
    ROOT_INO = 1

    def __init__(self):
        self._inodes = {}
        self._next_ino = InodeTable.ROOT_INO
        root = self.alloc(FileType.DIR, mode=0o755)
        assert root.ino == InodeTable.ROOT_INO
        root.parent = root.ino

    def alloc(self, ftype, mode=0o644):
        inode = Inode(self._next_ino, ftype, mode)
        self._next_ino += 1
        self._inodes[inode.ino] = inode
        return inode

    def get(self, ino):
        return self._inodes[ino]

    @property
    def root(self):
        return self._inodes[InodeTable.ROOT_INO]

    def free(self, ino):
        del self._inodes[ino]

    def __len__(self):
        return len(self._inodes)

    def __contains__(self, ino):
        return ino in self._inodes


MAX_SYMLINK_DEPTH = 40


class Resolved(object):
    """Outcome of a path walk.

    ``inode`` is None when the final component does not exist but its
    parent does (the O_CREAT case).  ``visited`` lists every inode
    number touched during the walk, for metadata-cost charging.
    """

    __slots__ = ("parent", "name", "inode", "visited")

    def __init__(self, parent, name, inode, visited):
        self.parent = parent
        self.name = name
        self.inode = inode
        self.visited = visited


def split_path(path):
    return [c for c in path.split("/") if c and c != "."]


def resolve(table, cwd_ino, path, follow_last=True, _depth=0):
    """Walk ``path`` from ``cwd_ino`` (absolute paths restart at the
    root).  Raises :class:`VfsError` on any error except a missing final
    component, which returns ``Resolved(inode=None)``.  ``..`` climbs to
    the directory's recorded parent, so it leaves the starting
    directory (the cwd, or the directory holding a relative symlink) as
    readily as one entered during the walk.
    """
    if _depth > MAX_SYMLINK_DEPTH:
        raise VfsError(Errno.ELOOP)
    if not path:
        raise VfsError(Errno.ENOENT)
    if len(path) > 4096:
        raise VfsError(Errno.ENAMETOOLONG)
    current = table.root if path.startswith("/") else table.get(cwd_ino)
    visited = [current.ino]
    components = split_path(path)
    if not components:
        # Path was "/" or "." -- resolves to the starting directory.
        return Resolved(current, None, current, visited)
    for index, name in enumerate(components):
        last = index == len(components) - 1
        if not current.is_dir:
            raise VfsError(Errno.ENOTDIR)
        if name == "..":
            current = table.get(current.parent)
            visited.append(current.ino)
            if last:
                return Resolved(current, None, current, visited)
            continue
        child_ino = current.children.get(name)
        if child_ino is None:
            if last:
                return Resolved(current, name, None, visited)
            raise VfsError(Errno.ENOENT)
        child = table.get(child_ino)
        visited.append(child.ino)
        if child.is_symlink and (not last or follow_last):
            target = child.symlink_target or ""
            rest = "/".join(components[index + 1 :])
            new_path = target if not rest else target.rstrip("/") + "/" + rest
            sub = resolve(
                table, current.ino, new_path, follow_last, _depth + 1
            )
            sub.visited[:0] = visited
            return sub
        if last:
            return Resolved(current, name, child, visited)
        current = child
    raise AssertionError("unreachable")


def normalize(path):
    """Collapse duplicate slashes and '.' components (no '..' folding,
    which would be wrong in the presence of symlinks)."""
    if not path:
        return path
    absolute = path.startswith("/")
    parts = [c for c in path.split("/") if c and c != "."]
    out = "/".join(parts)
    return ("/" + out) if absolute else (out or ".")
