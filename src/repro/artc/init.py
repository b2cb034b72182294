"""Target initialization (paper section 4.3.2).

Before replay, the initial state snapshot is restored in the directory
where the benchmark executes: directories created, files populated to
the right sizes (contents are arbitrary), symlinks created.  Special
files such as /dev/random are created as symlinks to the target's own
special files -- with an option to point /dev/random at /dev/urandom,
the paper's fix for Linux's blocking entropy pool.

``delta_init`` only creates/deletes/resizes what differs from the
snapshot, for fast re-initialization between runs.  ``overlay`` applies
several snapshots (optionally under per-trace prefixes) so multiple
benchmarks can replay concurrently (the iPhoto+iTunes example).
"""

from repro.errors import SnapshotError
from repro.vfs.nodes import FileType


class InitStats(object):
    def __init__(self):
        self.dirs_created = 0
        self.files_created = 0
        self.files_resized = 0
        self.symlinks_created = 0
        self.entries_removed = 0

    def as_dict(self):
        return dict(self.__dict__)

    def __repr__(self):
        return "<InitStats %r>" % (self.as_dict(),)


def _prefixed(path, prefix):
    if not prefix:
        return path
    return "/" + prefix.strip("/") + path


def initialize(fs, snapshot, prefix="", dev_random_to_urandom=True):
    """Restore ``snapshot`` into ``fs`` from scratch.

    Initialization happens outside the measured window ("initialization
    is not a major focus of our work"), so it uses the instant setup
    helpers rather than timed system calls.
    """
    stats = InitStats()
    snapshot.validate()
    made = set()  # the directories this pass has made sure of
    for entry in snapshot.sorted():
        path = _prefixed(entry.path, prefix)
        if entry.ftype == FileType.DIR:
            fs.makedirs_now(path)
            made.add(path)
            stats.dirs_created += 1
            continue
        parent = path.rsplit("/", 1)[0]
        if parent and parent not in made:
            fs.makedirs_now(parent)
            made.add(parent)
        if entry.ftype == FileType.SYMLINK:
            if fs.exists(path, follow=False):
                fs.unlink_now(path)
            fs.symlink_now(entry.target, path)
            stats.symlinks_created += 1
        elif entry.ftype == FileType.REG:
            inode = fs.create_file_now(path, size=entry.size)
            for xattr in entry.xattrs:
                inode.xattrs[xattr] = 16
            stats.files_created += 1
        else:
            raise SnapshotError("unknown entry type %r" % entry.ftype)
    if dev_random_to_urandom and fs.platform == "linux":
        _symlink_dev_random(fs)
    _warm_metadata(fs, snapshot, prefix)
    return stats


def _warm_metadata(fs, snapshot, prefix):
    """Creating the tree leaves its dentries/inodes cached, exactly as
    a real initialization pass would."""
    inos = {fs.table.ROOT_INO}
    seen = set()
    for entry in snapshot.sorted():
        path = _prefixed(entry.path, prefix)
        while path and path != "/" and path not in seen:
            seen.add(path)
            node = fs.lookup(path, follow=False)
            if node is not None:
                inos.add(node.ino)
            path = path.rsplit("/", 1)[0] or "/"
    fs.stack.warm_metadata(sorted(inos))


def delta_init(fs, snapshot, prefix="", dev_random_to_urandom=True):
    """Bring ``fs`` back to the snapshot state with minimal changes:
    create what is missing, delete extraneous entries under the
    snapshot's roots, fix sizes of existing files."""
    stats = InitStats()
    snapshot.validate()
    wanted = {}
    roots = set()
    for entry in snapshot.sorted():
        path = _prefixed(entry.path, prefix)
        wanted[path] = entry
        roots.add("/" + path.strip("/").split("/")[0])

    # Remove entries that exist but should not (depth-first).
    for root in sorted(roots):
        for path in reversed(_walk_paths(fs, root)):
            if path not in wanted:
                fs.unlink_now(path)
                stats.entries_removed += 1

    for path, entry in sorted(wanted.items(), key=lambda kv: kv[0].count("/")):
        inode = fs.lookup(path, follow=False)
        if entry.ftype == FileType.DIR:
            if inode is None:
                fs.makedirs_now(path)
                stats.dirs_created += 1
        elif entry.ftype == FileType.SYMLINK:
            if inode is None or not inode.is_symlink or (
                inode.symlink_target != entry.target
            ):
                if inode is not None:
                    fs.unlink_now(path)
                    stats.entries_removed += 1
                fs.symlink_now(entry.target, path)
                stats.symlinks_created += 1
        else:
            if inode is None:
                node = fs.create_file_now(path, size=entry.size)
                for xattr in entry.xattrs:
                    node.xattrs[xattr] = 16
                stats.files_created += 1
            elif not inode.is_reg:
                fs.unlink_now(path)
                stats.entries_removed += 1
                fs.create_file_now(path, size=entry.size)
                stats.files_created += 1
            elif inode.size != entry.size:
                inode.size = entry.size
                stats.files_resized += 1
    if dev_random_to_urandom and fs.platform == "linux":
        _symlink_dev_random(fs)
    _warm_metadata(fs, snapshot, prefix)
    return stats


def timed_initialize(osapi, snapshot, tid="init", prefix=""):
    """Restore a snapshot through real (timed) system calls.

    A generator; returns :class:`InitStats`.  This is what a real
    initialization pass costs the target — useful when studying init
    time itself (e.g. why delta init matters for short traces).  The
    instant :func:`initialize` remains the default because
    "initialization is not a major focus" (section 4.3.2).
    """
    from repro.vfs.nodes import FileType

    stats = InitStats()
    snapshot.validate()
    for entry in snapshot.sorted():
        path = _prefixed(entry.path, prefix)
        if entry.ftype == FileType.DIR:
            _ret, err = yield from osapi.call(tid, "mkdir", path=path, mode=0o755)
            if err not in (None, "EEXIST"):
                raise SnapshotError("mkdir %s failed: %s" % (path, err))
            stats.dirs_created += 1
        elif entry.ftype == FileType.SYMLINK:
            yield from osapi.call(tid, "symlink", target=entry.target, path=path)
            stats.symlinks_created += 1
        else:
            fd, err = yield from osapi.call(
                tid, "open", path=path, flags="O_WRONLY|O_CREAT", mode=0o644
            )
            if err is not None:
                raise SnapshotError("create %s failed: %s" % (path, err))
            if entry.size:
                # Populate with arbitrary data, then size exactly.
                chunk = 1 << 20
                offset = 0
                while offset < entry.size:
                    nbytes = min(chunk, entry.size - offset)
                    yield from osapi.call(
                        tid, "pwrite", fd=fd, nbytes=nbytes, offset=offset
                    )
                    offset += nbytes
            for xattr in entry.xattrs:
                yield from osapi.call(tid, "setxattr", path=path, xname=xattr, size=16)
            yield from osapi.call(tid, "close", fd=fd)
            stats.files_created += 1
    yield from osapi.call(tid, "sync")
    return stats


def overlay(fs, snapshots, prefixes=None, dev_random_to_urandom=True):
    """Initialize several snapshots into one tree for concurrent replay."""
    if prefixes is None:
        prefixes = ["" for _ in snapshots]
    if len(prefixes) != len(snapshots):
        raise SnapshotError("need one prefix per snapshot")
    stats = []
    for snapshot, prefix in zip(snapshots, prefixes):
        stats.append(
            initialize(fs, snapshot, prefix, dev_random_to_urandom)
        )
    return stats


def _symlink_dev_random(fs):
    """Replace /dev/random with a symlink to /dev/urandom so replay on
    Linux does not block on the entropy pool (paper section 5.1)."""
    node = fs.lookup("/dev/random", follow=False)
    if node is not None and node.is_symlink:
        return
    if node is not None:
        fs.unlink_now("/dev/random")
    fs.symlink_now("/dev/urandom", "/dev/random")


def _walk_paths(fs, root):
    """All paths under ``root`` (excluding it), parents first."""
    out = []
    node = fs.lookup(root, follow=False)
    if node is None or not node.is_dir:
        return out

    def _walk(current, prefix):
        for name in sorted(current.children):
            child = fs.table.get(current.children[name])
            child_path = prefix + "/" + name
            out.append(child_path)
            if child.is_dir:
                _walk(child, child_path)

    _walk(node, root.rstrip("/"))
    return out
