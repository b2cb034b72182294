"""The compiler's trace model against the shadow tree it replaced.

``core/fsstate.py`` used to keep its own POSIX namespace (``SymNode``,
a path walker, a snapshot loader, link/rename/unlink mutations) beside
the VFS.  It now performs the namespace-changing calls on a
``FileSystem`` on the null machine and keeps only ROOT's touch and
generation rules.  ``ReferenceFsState`` below is the old class,
verbatim but for its touches, which it builds as the ``(key, role)``
pairs the model now uses; the differential holds the new one to it, record by
record: the touches (equal under one consistent bijection between the
new inode numbers and the old surrogate uids, in order), the
annotations and the ``model_misses`` count.

A record may differ only where the null machine refused a call the
trace saw succeed; there the old tree went on mutating its own state,
so the two namespaces part and the comparison of that trace stops.
Every such record must be of a kind :data:`REFUSED_ONLY_BY_THE_VFS`
names, with the reason.

Two inputs: the thread-script traces of ``test_deps_property.py``
(traced on the simulator, so consistent), and hand-built traces over a
namespace with relative symlink chains (``..`` targets included), hard
links, directory renames with descendants, ``dup2`` over a live
descriptor, aio and ``lio_listio``, ``shm_*`` and ``chdir`` / relative
paths, whose outcomes come from an oracle ``FileSystem`` and a few of
which claim a success the oracle refused.  The generator avoids the two
places the old tree was wrong where the VFS is right, which the
comparison cannot excuse: a rename between two names of one file (the
old tree dropped the source name of a hard link, and moved a name
renamed onto itself to the end of its directory, which reorders the
descendant touches of a later rename of that directory) and renaming or
removing a directory a cwd string names (the old tree kept the cwd as
text).

A last property pins what the registry rows' ``performs`` rests on:
performing any call of a kind outside it leaves the null machine's
namespace, descriptor table and cwd as they were.
"""

from hypothesis import given, note, settings, strategies as st

from repro.artc.init import initialize
from repro.core import resources as R
from repro.core.fsstate import FsState
from repro.core.resources import Role
from repro.syscalls.execute import HANDLERS, perform
from repro.syscalls.registry import KINDS, REGISTRY, spec_for
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import TraceRecord
from repro.vfs.nodes import normalize
from repro.vfs.null import drain, null_filesystem

from tests.property.test_deps_property import generate_trace, thread_scripts

# -- the old model, verbatim (touches as pairs) ------------------------


class SymNode(object):
    """Shadow inode."""

    __slots__ = ("uid", "ftype", "target", "children", "nlink", "size")

    def __init__(self, uid, ftype, target=None, size=0):
        self.uid = uid
        self.ftype = ftype  # "reg" | "dir" | "symlink" | "char"
        self.target = target
        self.children = {} if ftype == "dir" else None
        self.nlink = 1
        self.size = size

    @property
    def is_dir(self):
        return self.ftype == "dir"

    def __repr__(self):
        return "<SymNode %d %s>" % (self.uid, self.ftype)


class _PathState(object):
    __slots__ = ("gen", "exists")

    def __init__(self, gen, exists):
        self.gen = gen
        self.exists = exists


class _FdBinding(object):
    __slots__ = ("gen", "uid", "alive", "path", "offset", "append")

    def __init__(self, gen, uid, path=None, append=False):
        self.gen = gen
        self.uid = uid
        self.alive = True
        self.path = path
        self.offset = 0  # tracked for file-size dependency inference
        self.append = append


class ReferenceFsState(object):
    MAX_SYMLINK_HOPS = 40

    def __init__(self, snapshot=None):
        self._next_uid = 1
        self._by_uid = {}
        self.root = self._new_node("dir")
        self.cwd = "/"
        self.path_state = {}
        self.fd_bindings = {}
        self._fd_gen_next = {}
        self.aio_state = {}
        self._aio_gen_next = {}
        self.model_misses = 0
        # Per-file size history for the file-size dependency extension
        # (the paper's future-work refinement): uid -> list of
        # (action_idx, size_after).  Initial sizes come from the
        # snapshot with action index None.
        self._size_events = {}
        self._initial_size = {}
        self._setup_base_tree()
        if snapshot is not None:
            self.load_snapshot(snapshot)

    # ------------------------------------------------------------------
    # shadow-tree plumbing
    # ------------------------------------------------------------------

    def _new_node(self, ftype, target=None):
        node = SymNode(self._next_uid, ftype, target)
        self._next_uid += 1
        self._by_uid[node.uid] = node
        return node

    def _setup_base_tree(self):
        """Mirror the VFS's built-in namespace (/dev, /tmp)."""
        for path in ("/dev", "/dev/shm", "/tmp"):
            self._mkdir_quiet(path)
        for name in ("null", "zero", "random", "urandom", "tty"):
            parent = self._lookup_dir("/dev")
            parent.children[name] = self._new_node("char")

    def _mkdir_quiet(self, path):
        node = self.root
        for part in [p for p in path.split("/") if p]:
            child = node.children.get(part)
            if child is None:
                child = self._new_node("dir")
                node.children[part] = child
            node = child
        return node

    def _lookup_dir(self, path):
        node = self.root
        for part in [p for p in path.split("/") if p]:
            node = node.children[part]
        return node

    def load_snapshot(self, snapshot):
        for entry in snapshot.sorted():
            parts = [p for p in entry.path.split("/") if p]
            if not parts:
                continue
            parent = self._mkdir_quiet("/" + "/".join(parts[:-1]))
            name = parts[-1]
            if entry.ftype == "dir":
                if name not in parent.children:
                    parent.children[name] = self._new_node("dir")
            elif entry.ftype == "symlink":
                parent.children[name] = self._new_node("symlink", entry.target)
            else:
                node = self._new_node("reg")
                node.size = entry.size
                parent.children[name] = node

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def _norm(self, path):
        if not path:
            return path
        if not path.startswith("/"):
            path = self.cwd.rstrip("/") + "/" + path
        return normalize(path)

    def resolve(self, path, follow_last=True, _hops=0):
        """Walk the shadow tree.  Returns
        ``(parent_node, leaf_name, node_or_None, symlink_uids)`` or
        None if an intermediate component is missing/not a directory or
        a symlink loop occurs."""
        if _hops > self.MAX_SYMLINK_HOPS or not path:
            return None
        current = self.root
        symlinks = []
        parts = [p for p in path.split("/") if p and p != "."]
        if not parts:
            return (self.root, None, self.root, symlinks)
        stack = []
        index = 0
        while index < len(parts):
            name = parts[index]
            last = index == len(parts) - 1
            if not current.is_dir:
                return None
            if name == "..":
                current = stack.pop() if stack else current
                index += 1
                if index == len(parts):
                    return (current, None, current, symlinks)
                continue
            child = current.children.get(name)
            if child is None:
                if last:
                    return (current, name, None, symlinks)
                return None
            if child.ftype == "symlink" and (not last or follow_last):
                symlinks.append(child.uid)
                target = child.target or ""
                rest = "/".join(parts[index + 1 :])
                joined = target if not rest else target.rstrip("/") + "/" + rest
                if not joined.startswith("/"):
                    prefix = "/" + "/".join(parts[:index])
                    joined = prefix.rstrip("/") + "/" + joined
                sub = self.resolve(normalize(joined), follow_last, _hops + 1)
                if sub is None:
                    return None
                parent, leaf, node, more = sub
                return (parent, leaf, node, symlinks + more)
            if last:
                return (current, name, child, symlinks)
            stack.append(current)
            current = child
            index += 1
        raise AssertionError("unreachable")

    def _dentry_exists(self, norm):
        res = self.resolve(norm, follow_last=False)
        return res is not None and res[2] is not None

    def path_exists(self, path):
        """Does ``path`` currently resolve to a dentry (no symlink
        following on the last component)?  Public query used by the
        static-analysis passes."""
        return self._dentry_exists(self._norm(path))

    def node_at(self, path, follow_last=False):
        """The shadow node ``path`` names right now, or None."""
        res = self.resolve(self._norm(path), follow_last=follow_last)
        return None if res is None else res[2]

    def open_descriptors_of(self, uid):
        """Descriptor numbers currently bound (and alive) to file
        ``uid``; used to flag renames that shadow a live file."""
        return sorted(
            num
            for num, binding in self.fd_bindings.items()
            if binding.alive and binding.uid == uid
        )

    # ------------------------------------------------------------------
    # path generations
    # ------------------------------------------------------------------

    def _path_entry(self, norm):
        entry = self.path_state.get(norm)
        if entry is None:
            entry = _PathState(0, self._dentry_exists(norm))
            self.path_state[norm] = entry
        return entry

    def path_use(self, norm, touches):
        entry = self._path_entry(norm)
        touches.append(((R.PATH, norm, entry.gen), Role.USE))

    def path_transition_create(self, norm, touches):
        """The dentry at ``norm`` comes into existence."""
        entry = self._path_entry(norm)
        if entry.exists:
            # Shadow state thought it already existed; treat as a
            # rebinding (delete old generation, create the next).
            touches.append(((R.PATH, norm, entry.gen), Role.DELETE))
            entry.gen += 1
            touches.append(((R.PATH, norm, entry.gen), Role.CREATE))
            return
        touches.append(((R.PATH, norm, entry.gen), Role.DELETE))
        entry.gen += 1
        entry.exists = True
        touches.append(((R.PATH, norm, entry.gen), Role.CREATE))

    def path_transition_delete(self, norm, touches):
        """The dentry at ``norm`` goes away."""
        entry = self._path_entry(norm)
        touches.append(((R.PATH, norm, entry.gen), Role.DELETE))
        entry.gen += 1
        entry.exists = False
        touches.append(((R.PATH, norm, entry.gen), Role.CREATE))

    # ------------------------------------------------------------------
    # fd / aiocb generations
    # ------------------------------------------------------------------

    def fd_open(self, num, uid, touches, path=None, append=False):
        gen = self._fd_gen_next.get(num, 0)
        self._fd_gen_next[num] = gen + 1
        self.fd_bindings[num] = _FdBinding(gen, uid, path, append)
        touches.append(((R.FD, num, gen), Role.CREATE))
        return gen

    def fd_use(self, num, touches, role=Role.USE):
        binding = self.fd_bindings.get(num)
        if binding is None:
            # Descriptor opened before tracing started (stdio etc.):
            # create an implicit generation so replay can track it.
            gen = self._fd_gen_next.get(num, 0)
            self._fd_gen_next[num] = gen + 1
            binding = _FdBinding(gen, None)
            self.fd_bindings[num] = binding
        touches.append(((R.FD, num, binding.gen), role))
        return binding

    def fd_close(self, num, touches):
        binding = self.fd_use(num, touches, role=Role.DELETE)
        binding.alive = False
        return binding

    # ------------------------------------------------------------------
    # file-size history (the paper's future-work dependency refinement)
    # ------------------------------------------------------------------

    def _note_size(self, node, idx, new_size):
        """Record a size-changing action; returns the previous
        size-changing action's index (for chaining)."""
        events = self._size_events.setdefault(node.uid, [])
        if not events:
            self._initial_size[node.uid] = node.size
        previous = events[-1][0] if events else None
        events.append((idx, new_size))
        node.size = new_size
        return previous

    def _size_dep(self, uid, read_end):
        """The latest action that exposed bytes up to ``read_end``
        (size went from below to at-or-above it), or None when the
        initial snapshot already covered the range."""
        events = self._size_events.get(uid)
        if not events or read_end <= 0:
            return None
        size = self._initial_size.get(uid, 0)
        dep = None
        for idx, after in events:
            if size < read_end <= after:
                dep = idx
            size = after
        return dep

    def aio_submit(self, cb_id, touches):
        gen = self._aio_gen_next.get(cb_id, 0)
        self._aio_gen_next[cb_id] = gen + 1
        self.aio_state[cb_id] = gen
        touches.append(((R.AIOCB, cb_id, gen), Role.CREATE))
        return gen

    def aio_use(self, cb_id, touches, role=Role.USE):
        gen = self.aio_state.get(cb_id)
        if gen is None:
            gen = self._aio_gen_next.get(cb_id, 0)
            self._aio_gen_next[cb_id] = gen + 1
            self.aio_state[cb_id] = gen
        touches.append(((R.AIOCB, cb_id, gen), role))
        return gen

    # ------------------------------------------------------------------
    # record interpretation
    # ------------------------------------------------------------------

    def apply(self, record):
        """Interpret one record; returns ``(touches, annotations)``."""
        touches = [((R.THREAD, record.tid), Role.USE)]
        ann = {}
        kind = spec_for(record.name).kind
        handler = getattr(self, "_k_" + kind, None)
        if handler is None:
            return touches, ann  # unmodeled call: thread ordering only
        try:
            handler(record, touches, ann)
        except Exception:
            self.model_misses += 1
        return touches, ann

    # -- helpers shared by handlers ------------------------------------

    def _file_use(self, node, touches, role=Role.USE):
        if node is not None:
            touches.append(((R.FILE, node.uid), role))

    def _symlink_uses(self, symlink_uids, touches):
        for uid in symlink_uids:
            touches.append(((R.FILE, uid), Role.USE))

    def _path_op_read(self, record, touches, ann, follow=True, arg="path"):
        """Common body for stat-like path operations."""
        norm = self._norm(record.args[arg])
        self.path_use(norm, touches)
        if not record.ok:
            return None
        res = self.resolve(norm, follow_last=follow)
        if res is None or res[2] is None:
            self.model_misses += 1
            return None
        parent, _name, node, symlinks = res
        self._symlink_uses(symlinks, touches)
        if parent is not node:
            self._file_use(parent, touches)
        self._file_use(node, touches)
        return node

    def _descendant_paths(self, node, base):
        """All dentry paths under directory ``node`` (inclusive of the
        files they name)."""
        out = []

        def _walk(current, prefix):
            if not current.is_dir:
                return
            for name, child in current.children.items():
                child_path = prefix + "/" + name
                out.append((child_path, child))
                _walk(child, child_path)

        _walk(node, base.rstrip("/"))
        return out

    # -- open family ----------------------------------------------------

    def _k_open(self, record, touches, ann):
        norm = self._norm(record.args["path"])
        if not record.ok:
            self.path_use(norm, touches)
            return
        flags = record.args.get("flags", 0)
        if isinstance(flags, str):
            creat = "O_CREAT" in flags
            append = "O_APPEND" in flags
            trunc = "O_TRUNC" in flags
            wants_write = "O_WRONLY" in flags or "O_RDWR" in flags
        else:
            from repro.vfs.flags import O_ACCMODE, O_APPEND, O_CREAT, O_TRUNC

            creat = bool(flags & O_CREAT)
            append = bool(flags & O_APPEND)
            trunc = bool(flags & O_TRUNC)
            wants_write = (flags & O_ACCMODE) != 0
        res = self.resolve(norm, follow_last=True)
        created = False
        node = None
        if res is None:
            self.model_misses += 1
            self.path_use(norm, touches)
        else:
            parent, name, node, symlinks = res
            self._symlink_uses(symlinks, touches)
            if node is None:
                if creat and name is not None:
                    node = self._new_node("reg")
                    parent.children[name] = node
                    created = True
                else:
                    self.model_misses += 1
            if created:
                self._file_use(parent, touches)
                self._file_use(node, touches, Role.CREATE)
                self.path_transition_create(norm, touches)
            else:
                if parent is not node:
                    self._file_use(parent, touches)
                self._file_use(node, touches)
                self.path_use(norm, touches)
                if trunc and wants_write and node.ftype == "reg":
                    previous = self._note_size(node, record.idx, 0)
                    if previous is not None:
                        ann["size_chain"] = previous
        gen = self.fd_open(
            record.ret, node.uid if node else None, touches, norm, append
        )
        ann["ret_fd"] = gen

    def _k_creat(self, record, touches, ann):
        record.args.setdefault("flags", "O_WRONLY|O_CREAT|O_TRUNC")
        self._k_open(record, touches, ann)

    def _k_shm_open(self, record, touches, ann):
        shim = dict(record.args)
        shim["path"] = "/dev/shm/" + record.args["name"].lstrip("/")
        shim.setdefault("flags", "O_RDWR|O_CREAT")
        clone = _clone_record(record, args=shim)
        self._k_open(clone, touches, ann)

    def _k_shm_unlink(self, record, touches, ann):
        shim = dict(record.args)
        shim["path"] = "/dev/shm/" + record.args["name"].lstrip("/")
        clone = _clone_record(record, args=shim)
        self._k_unlink(clone, touches, ann)

    # -- descriptor ops ---------------------------------------------------

    def _k_close(self, record, touches, ann):
        num = record.args["fd"]
        if not record.ok:
            binding = self.fd_bindings.get(num)
            if binding is not None:
                ann["fd"] = binding.gen
            return
        binding = self.fd_close(num, touches)
        ann["fd"] = binding.gen
        self._file_use_uid(binding.uid, touches)

    def _file_use_uid(self, uid, touches, role=Role.USE):
        if uid is not None:
            touches.append(((R.FILE, uid), role))

    def _fd_arg_op(self, record, touches, ann):
        num = record.args["fd"]
        if not record.ok:
            binding = self.fd_bindings.get(num)
            if binding is not None:
                ann["fd"] = binding.gen
            return None
        binding = self.fd_use(num, touches)
        ann["fd"] = binding.gen
        self._file_use_uid(binding.uid, touches)
        return binding

    # -- data transfers track fd offsets and file sizes, feeding the
    # -- file-size dependency refinement --------------------------------

    def _node_of(self, binding):
        if binding is None or binding.uid is None:
            return None
        return self._by_uid.get(binding.uid)

    def _k_read(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        node = self._node_of(binding)
        count = record.ret if isinstance(record.ret, int) and record.ret > 0 else 0
        if binding is None or not record.ok:
            return
        start = binding.offset
        binding.offset = start + count
        if node is not None and count:
            dep = self._size_dep(node.uid, start + count)
            if dep is not None:
                ann["size_dep"] = dep

    def _k_pread(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        node = self._node_of(binding)
        count = record.ret if isinstance(record.ret, int) and record.ret > 0 else 0
        if node is not None and count and record.ok:
            offset = record.args.get("offset", 0)
            dep = self._size_dep(node.uid, offset + count)
            if dep is not None:
                ann["size_dep"] = dep

    def _k_write(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        node = self._node_of(binding)
        count = record.ret if isinstance(record.ret, int) and record.ret > 0 else 0
        if binding is None or not record.ok:
            return
        start = node.size if (binding.append and node is not None) else binding.offset
        binding.offset = start + count
        if node is not None and start + count > node.size:
            previous = self._note_size(node, record.idx, start + count)
            if previous is not None:
                ann["size_chain"] = previous

    def _k_pwrite(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        node = self._node_of(binding)
        count = record.ret if isinstance(record.ret, int) and record.ret > 0 else 0
        if node is not None and count and record.ok:
            end = record.args.get("offset", 0) + count
            if end > node.size:
                previous = self._note_size(node, record.idx, end)
                if previous is not None:
                    ann["size_chain"] = previous

    def _k_lseek(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        if binding is not None and record.ok and isinstance(record.ret, int):
            binding.offset = record.ret

    def _k_ftruncate(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        node = self._node_of(binding)
        if node is not None and record.ok:
            length = record.args.get("length", 0)
            previous = self._note_size(node, record.idx, length)
            if previous is not None:
                ann["size_chain"] = previous

    def _k_fallocate(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        node = self._node_of(binding)
        if node is not None and record.ok:
            end = record.args.get("offset", 0) + record.args.get("length", 0)
            if end > node.size:
                previous = self._note_size(node, record.idx, end)
                if previous is not None:
                    ann["size_chain"] = previous

    def _k_truncate(self, record, touches, ann):
        node = self._path_op_read(record, touches, ann, follow=True)
        if node is not None and record.ok:
            previous = self._note_size(node, record.idx, record.args.get("length", 0))
            if previous is not None:
                ann["size_chain"] = previous

    _k_fsync = _fd_arg_op
    _k_fdatasync = _fd_arg_op
    _k_fstat = _fd_arg_op
    _k_fstat_extended = _fd_arg_op
    _k_fstatfs = _fd_arg_op
    _k_fchmod = _fd_arg_op
    _k_fchown = _fd_arg_op
    _k_futimes = _fd_arg_op
    _k_flock = _fd_arg_op
    _k_fadvise = _fd_arg_op
    _k_getdents = _fd_arg_op
    _k_fgetxattr = _fd_arg_op
    _k_fsetxattr = _fd_arg_op
    _k_flistxattr = _fd_arg_op
    _k_fremovexattr = _fd_arg_op
    _k_fgetattrlist = _fd_arg_op
    _k_fsetattrlist = _fd_arg_op
    _k_getattrlistbulk = _fd_arg_op
    _k_getdirentriesattr = _fd_arg_op

    def _k_mmap(self, record, touches, ann):
        if record.args.get("fd", -1) == -1:
            return
        self._fd_arg_op(record, touches, ann)

    def _k_munmap(self, record, touches, ann):
        pass

    def _k_msync(self, record, touches, ann):
        pass

    def _k_dup(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        if not record.ok:
            return
        uid = binding.uid if binding else None
        gen = self.fd_open(record.ret, uid, touches)
        ann["ret_fd"] = gen

    def _k_dup2(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        if not record.ok:
            return
        newfd = record.args["newfd"]
        old = self.fd_bindings.get(newfd)
        if old is not None and old.alive:
            touches.append(((R.FD, newfd, old.gen), Role.DELETE))
            old.alive = False
            ann["newfd_closed"] = old.gen
        uid = binding.uid if binding else None
        gen = self.fd_open(newfd, uid, touches)
        ann["newfd_gen"] = gen

    def _k_fcntl(self, record, touches, ann):
        cmd = record.args.get("cmd", "")
        binding = self._fd_arg_op(record, touches, ann)
        if record.ok and cmd in ("F_DUPFD", "F_DUPFD_CLOEXEC"):
            uid = binding.uid if binding else None
            gen = self.fd_open(record.ret, uid, touches)
            ann["ret_fd"] = gen

    def _k_fchdir(self, record, touches, ann):
        binding = self._fd_arg_op(record, touches, ann)
        if record.ok and binding is not None and binding.path:
            self.cwd = binding.path

    def _k_pipe(self, record, touches, ann):
        if not record.ok:
            return
        fds = record.ret or []
        gens = []
        for num in fds:
            gens.append(self.fd_open(num, None, touches))
        ann["ret_fds"] = gens

    # -- path metadata reads ---------------------------------------------

    def _k_stat(self, record, touches, ann):
        self._path_op_read(record, touches, ann, follow=True)

    _k_access = _k_stat
    _k_statfs = _k_stat
    _k_getattrlist = _k_stat
    _k_getxattr = _k_stat
    _k_listxattr = _k_stat
    _k_stat_extended = _k_stat

    def _k_lstat(self, record, touches, ann):
        self._path_op_read(record, touches, ann, follow=False)

    _k_readlink = _k_lstat
    _k_lgetxattr = _k_lstat
    _k_llistxattr = _k_lstat
    _k_lstat_extended = _k_lstat

    def _k_statfs_global(self, record, touches, ann):
        pass

    def _k_getcwd(self, record, touches, ann):
        pass

    def _k_sync(self, record, touches, ann):
        pass

    # -- path metadata writes ----------------------------------------------

    def _k_chmod(self, record, touches, ann):
        self._path_op_read(record, touches, ann, follow=True)

    _k_chown = _k_chmod
    _k_utimes = _k_chmod
    _k_setattrlist = _k_chmod
    _k_setxattr = _k_chmod
    _k_removexattr = _k_chmod

    def _k_lsetxattr(self, record, touches, ann):
        self._path_op_read(record, touches, ann, follow=False)

    _k_lremovexattr = _k_lsetxattr

    def _k_chdir(self, record, touches, ann):
        node = self._path_op_read(record, touches, ann, follow=True)
        if record.ok and node is not None:
            self.cwd = self._norm(record.args["path"])

    # -- namespace changes ---------------------------------------------------

    def _k_mkdir(self, record, touches, ann):
        norm = self._norm(record.args["path"])
        if not record.ok:
            self.path_use(norm, touches)
            return
        res = self.resolve(norm, follow_last=False)
        if res is None or res[1] is None:
            self.model_misses += 1
            self.path_use(norm, touches)
            return
        parent, name, node, symlinks = res
        self._symlink_uses(symlinks, touches)
        if node is None:
            node = self._new_node("dir")
            parent.children[name] = node
        else:
            self.model_misses += 1
        self._file_use(parent, touches)
        self._file_use(node, touches, Role.CREATE)
        self.path_transition_create(norm, touches)

    def _k_rmdir(self, record, touches, ann):
        norm = self._norm(record.args["path"])
        if not record.ok:
            self.path_use(norm, touches)
            return
        res = self.resolve(norm, follow_last=False)
        if res is None or res[2] is None:
            self.model_misses += 1
            self.path_use(norm, touches)
            return
        parent, name, node, symlinks = res
        self._symlink_uses(symlinks, touches)
        self._file_use(parent, touches)
        self._file_use(node, touches, Role.DELETE)
        self.path_transition_delete(norm, touches)
        if name is not None:
            parent.children.pop(name, None)

    def _k_unlink(self, record, touches, ann):
        norm = self._norm(record.args["path"])
        if not record.ok:
            self.path_use(norm, touches)
            return
        res = self.resolve(norm, follow_last=False)
        if res is None or res[2] is None:
            self.model_misses += 1
            self.path_use(norm, touches)
            return
        parent, name, node, symlinks = res
        self._symlink_uses(symlinks, touches)
        self._file_use(parent, touches)
        node.nlink -= 1
        role = Role.DELETE if node.nlink <= 0 else Role.USE
        self._file_use(node, touches, role)
        self.path_transition_delete(norm, touches)
        if name is not None:
            parent.children.pop(name, None)

    def _k_rename(self, record, touches, ann):
        old = self._norm(record.args["old"])
        new = self._norm(record.args["new"])
        if not record.ok:
            self.path_use(old, touches)
            self.path_use(new, touches)
            return
        src = self.resolve(old, follow_last=False)
        dst = self.resolve(new, follow_last=False)
        if src is None or src[2] is None or dst is None or dst[1] is None:
            self.model_misses += 1
            self.path_use(old, touches)
            self.path_use(new, touches)
            return
        src_parent, src_name, node, src_symlinks = src
        dst_parent, dst_name, displaced, dst_symlinks = dst
        self._symlink_uses(src_symlinks, touches)
        self._symlink_uses(dst_symlinks, touches)
        self._file_use(src_parent, touches)
        if dst_parent is not src_parent:
            self._file_use(dst_parent, touches)
        self._file_use(node, touches)
        if displaced is not None and displaced is not node:
            displaced.nlink -= 1
            role = Role.DELETE if displaced.nlink <= 0 else Role.USE
            self._file_use(displaced, touches, role)
        # Descendants: every file and dentry under a renamed directory
        # is affected (the Figure 2 example).
        if node.is_dir:
            for child_path, child in self._descendant_paths(node, old):
                self._file_use(child, touches)
                self.path_transition_delete(child_path, touches)
        self.path_transition_delete(old, touches)
        self.path_transition_create(new, touches)
        if node.is_dir:
            for child_path, _child in self._descendant_paths(node, old):
                suffix = child_path[len(old) :]
                self.path_transition_create(new + suffix, touches)
        # Mutate the shadow tree last so descendant enumeration above
        # saw the pre-rename names.
        src_parent.children.pop(src_name, None)
        dst_parent.children[dst_name] = node

    def _k_link(self, record, touches, ann):
        target = self._norm(record.args["target"])
        new = self._norm(record.args["path"])
        if not record.ok:
            self.path_use(target, touches)
            self.path_use(new, touches)
            return
        src = self.resolve(target, follow_last=True)
        dst = self.resolve(new, follow_last=False)
        if src is None or src[2] is None or dst is None or dst[1] is None:
            self.model_misses += 1
            self.path_use(target, touches)
            self.path_use(new, touches)
            return
        node = src[2]
        self._symlink_uses(src[3], touches)
        self._file_use(src[0], touches)
        self._file_use(node, touches)
        self._file_use(dst[0], touches)
        node.nlink += 1
        dst[0].children[dst[1]] = node
        self.path_use(target, touches)
        self.path_transition_create(new, touches)

    def _k_symlink(self, record, touches, ann):
        new = self._norm(record.args["path"])
        if not record.ok:
            self.path_use(new, touches)
            return
        dst = self.resolve(new, follow_last=False)
        if dst is None or dst[1] is None:
            self.model_misses += 1
            self.path_use(new, touches)
            return
        parent, name, existing, symlinks = dst
        self._symlink_uses(symlinks, touches)
        if existing is not None:
            self.model_misses += 1
        node = self._new_node("symlink", record.args.get("target"))
        parent.children[name] = node
        self._file_use(parent, touches)
        self._file_use(node, touches, Role.CREATE)
        self.path_transition_create(new, touches)

    def _k_exchangedata(self, record, touches, ann):
        for arg in ("path1", "path2"):
            norm = self._norm(record.args[arg])
            self.path_use(norm, touches)
            if record.ok:
                res = self.resolve(norm, follow_last=True)
                if res is not None and res[2] is not None:
                    self._file_use(res[2], touches)

    # -- asynchronous I/O -----------------------------------------------------

    def _k_aio_read(self, record, touches, ann):
        self._fd_arg_op(record, touches, ann)
        if record.ok:
            ann["aiocb"] = self.aio_submit(record.args["aiocb"], touches)

    _k_aio_write = _k_aio_read

    def _k_aio_error(self, record, touches, ann):
        ann["aiocb"] = self.aio_use(record.args["aiocb"], touches)

    _k_aio_cancel = _k_aio_error

    def _k_aio_return(self, record, touches, ann):
        ann["aiocb"] = self.aio_use(
            record.args["aiocb"], touches, role=Role.DELETE
        )
        self.aio_state.pop(record.args["aiocb"], None)

    def _k_aio_suspend(self, record, touches, ann):
        gens = []
        for cb_id in record.args.get("aiocbs", []):
            gens.append(self.aio_use(cb_id, touches))
        ann["aiocb_gens"] = gens

    def _k_lio_listio(self, record, touches, ann):
        # One descriptor per request, so one generation per request:
        # the replayer remaps each op's fd (planir.fd_sites).
        fd_gens, gens = [], []
        for op in record.args.get("ops", []):
            clone = _clone_record(record, args={"fd": op["fd"]})
            op_ann = {}
            self._fd_arg_op(clone, touches, op_ann)
            fd_gens.append(op_ann.get("fd"))
            gens.append(self.aio_submit(op["aiocb"], touches))
        ann["fd_gens"] = fd_gens
        ann["aiocb_gens"] = gens


def _clone_record(record, args):
    """A shallow record copy with substituted args (for shim kinds)."""

    class _Shim(object):
        __slots__ = ("idx", "tid", "name", "args", "ret", "err", "ok")

        def __init__(self):
            self.idx = record.idx
            self.tid = record.tid
            self.name = record.name
            self.args = args
            self.ret = record.ret
            self.err = record.err
            self.ok = record.ok

    return _Shim()


# -- the differential ------------------------------------------------------

#: The kinds of record at which the null machine may refuse a success
#: the old tree accepted (or degraded differently), and why.
REFUSED_ONLY_BY_THE_VFS = {
    "open": "EEXIST (O_EXCL), ENOTDIR (O_DIRECTORY), EISDIR (a directory "
            "for writing) or ENOENT; the old tree counted a miss but kept "
            "the parent and symlink touches, or opened the file",
    "creat": "EISDIR or ENOENT, as open",
    "shm_open": "as open",
    "mkdir": "EEXIST; the old tree counted a miss and created over the name",
    "symlink": "EEXIST, as mkdir",
    "rmdir": "ENOTEMPTY or ENOTDIR; the old tree removed the name",
    "unlink": "EISDIR; the old tree unlinked a directory",
    "shm_unlink": "as unlink",
    "rename": "EINVAL (into its own subtree), EISDIR / ENOTDIR (a file "
              "over a directory or back) or ENOTEMPTY; the old tree moved it",
    "link": "EPERM (a directory) or EEXIST; the old tree linked it",
    "chdir": "ENOTDIR; the old tree moved its cwd string onto a file",
    "fchdir": "ENOTDIR (a file's descriptor), as chdir",
}


def _copy(record):
    """The old ``_k_creat`` writes into ``args``; give it its own."""
    return TraceRecord(record.idx, record.tid, record.name, dict(record.args),
                       record.ret, record.err, record.t_enter, record.t_return)


def _touches_match(new, old, bijection):
    """Equal in order, file ids under ``bijection`` (ino -> uid),
    extended in place when they match."""
    if len(new) != len(old):
        return False
    pairs = dict(bijection)
    for (mine, my_role), (theirs, their_role) in zip(new, old):
        if my_role != their_role or mine[0] != theirs[0]:
            return False
        if mine[0] != R.FILE:
            if mine != theirs:
                return False
            continue
        ino, uid = mine[1], theirs[1]
        if pairs.setdefault(ino, uid) != uid:
            return False
    if len(set(pairs.values())) != len(pairs):
        return False  # two inodes for one old file
    bijection.update(pairs)
    return True


def differential(records, snapshot):
    """Apply ``records`` to both models; returns the record where they
    parted (one the null machine refused), or None."""
    new, old = FsState(snapshot), ReferenceFsState(snapshot)
    bijection = {}
    for record in records:
        misses = new.model_misses, old.model_misses
        touches, ann = new.apply(record)
        old_touches, old_ann = old.apply(_copy(record))
        missed = new.model_misses - misses[0]
        if (missed == old.model_misses - misses[1] and ann == old_ann
                and _touches_match(touches, old_touches, bijection)):
            continue
        kind = spec_for(record.name).kind
        assert missed, (
            "the models part at #%d %s %r although the null machine "
            "accepted it:\n new %r %r\n old %r %r" % (
                record.idx, record.name, record.args,
                touches, ann, old_touches, old_ann))
        assert kind in REFUSED_ONLY_BY_THE_VFS, (record.name, record.args)
        note("parted at #%d %s %r: %s" % (
            record.idx, record.name, record.args, REFUSED_ONLY_BY_THE_VFS[kind]))
        return record
    return None


@given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_thread_script_traces_compile_as_before(scripts, seed):
    trace, snapshot = generate_trace(scripts, seed)
    assert differential(trace.records, snapshot) is None


# -- hand-built traces ------------------------------------------------------

BASE = (
    ("/w", "dir"),
    ("/w/fixed", "dir"),
    ("/w/a", "dir"),
    ("/w/a/f", "reg", 8192),
    ("/w/a/sub", "dir"),
    ("/w/a/sub/g", "reg", 100),
    ("/w/b", "dir"),
    ("/w/l", "symlink", 0, "a/f"),
    ("/w/b/up", "symlink", 0, "../a"),
    ("/w/b/chain", "symlink", 0, "up/sub"),
    ("/w/abs", "symlink", 0, "/w/a/sub/g"),
)

#: Directories a cwd may be in: never renamed or removed (see above).
CWDS = ("/", "/w", "/w/fixed")

NAMES = ["a", "b", "f", "g", "sub", "l", "up", "chain", "abs", "x", "y", "fixed"]

FLAGS = ["O_RDONLY", "O_WRONLY|O_CREAT", "O_RDWR|O_CREAT|O_TRUNC",
         "O_WRONLY|O_CREAT|O_EXCL", "O_WRONLY|O_APPEND", "O_RDONLY|O_DIRECTORY",
         "O_RDWR"]


def base_snapshot():
    snap = Snapshot()
    for entry in BASE:
        snap.add(*entry)
    return snap


#: Names the base tree (or a likely earlier call) gives a meaning, each
#: reached through a different mix of symlinks, ``..`` and the cwd.
KNOWN = [
    "/w/a", "/w/a/f", "/w/a/sub", "/w/a/sub/g", "/w/b", "/w/l", "/w/abs",
    "/w/b/up", "/w/b/up/f", "/w/b/up/sub/g", "/w/b/chain", "/w/b/chain/g",
    "/w/b/up/../b/up/sub", "/w/a/sub/../f", "/w/x", "/w/x/y", "/w/a/x",
    "/w/b/up/x", "/w/b/chain/x", "/w/y", "/w/a/sub/y", "a/f", "b/up/sub",
    "x", "fixed/x", "../w/a/f", "../a/sub/g", "/dev/null",
]


@st.composite
def paths(draw, mutating=False):
    """A known name, or ``/w/...`` or a cwd-relative name built at
    random; ``..`` anywhere but last when the call changes the
    namespace."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(KNOWN))
    parts = draw(st.lists(st.sampled_from(NAMES + [".."]), min_size=1, max_size=3))
    if mutating and parts[-1] == "..":
        parts[-1] = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        return "/w/" + "/".join(parts)
    return "/".join(parts)


FD = st.integers(min_value=0, max_value=7)  # an open descriptor, or 1 / 77
CB = st.sampled_from(["cb1", "cb2", "cb3"])
SIZE = st.integers(min_value=0, max_value=3).map(lambda n: n * 4096 + 100)

OPS = st.one_of(
    st.tuples(st.just("open"), paths(True), st.sampled_from(FLAGS)),
    st.tuples(st.just("open"), paths(), st.just("O_RDONLY")),
    st.tuples(st.just("creat"), paths(True)),
    st.tuples(st.sampled_from(["close", "dup", "fsync", "fchdir", "fcntl"]), FD),
    st.tuples(st.sampled_from(["read", "write", "ftruncate"]), FD, SIZE),
    st.tuples(st.sampled_from(["pread", "pwrite", "fallocate"]), FD, SIZE, SIZE),
    st.tuples(st.just("lseek"), FD, SIZE, st.sampled_from([0, 1, 2])),
    st.tuples(st.just("dup2"), FD, FD),
    st.tuples(st.sampled_from(["stat", "lstat", "readlink", "access", "chmod"]),
              paths()),
    st.tuples(st.sampled_from(["stat", "lstat", "readlink"]), st.sampled_from(
        ["/w/l", "/w/abs", "/w/b/up", "/w/b/chain", "l", "b/up", "/w/b/up/.."])),
    st.tuples(st.just("mkdir"), st.sampled_from(["/w/x", "/w/y", "/w/b/z", "x"])),
    st.tuples(st.just("rename"), st.sampled_from(["/w/a/sub", "/w/a", "/w/x"]),
              st.sampled_from(["/w/x", "/w/y", "/w/b/z", "/w/a/sub/y"])),
    st.tuples(st.just("truncate"), paths(), SIZE),
    st.tuples(st.sampled_from(["mkdir", "rmdir", "unlink"]), paths(True)),
    st.tuples(st.sampled_from(["rename", "link"]), paths(True), paths(True)),
    st.tuples(st.just("symlink"), st.sampled_from(
        ["a/f", "../a", "../a/sub/g", "up/sub", "/w/a", "x", "../x/.."]), paths(True)),
    st.tuples(st.just("chdir"), st.sampled_from(CWDS + ("fixed", "..", "w"))),
    st.tuples(st.just("pipe")),
    st.tuples(st.sampled_from(["shm_open", "shm_unlink"]), st.sampled_from(["s1", "/s2"])),
    st.tuples(st.sampled_from(["aio_read", "aio_write"]), CB, FD, SIZE, SIZE),
    st.tuples(st.sampled_from(["aio_error", "aio_return"]), CB),
    st.tuples(st.just("aio_suspend"), st.lists(CB, max_size=2)),
    st.tuples(st.just("lio_listio"), st.lists(
        st.tuples(CB, FD, SIZE, SIZE, st.booleans()), min_size=1, max_size=3)),
)


class Oracle(object):
    """Runs the hand-built trace on a ``FileSystem`` of its own to learn
    each call's outcome (and its descriptor numbers)."""

    def __init__(self, snapshot):
        self.fs = null_filesystem()
        initialize(self.fs, snapshot, dev_random_to_urandom=False)
        self.protected = {self.fs.lookup(path).ino for path in CWDS}

    def fd(self, pick):
        fds = self.fs.fdt.open_fds()
        if pick >= 6 or not fds:
            return 1 if pick % 2 else 77
        return fds[pick % len(fds)]

    def args(self, op):
        name, rest = op[0], op[1:]
        fd = self.fd
        if name in ("open", "creat"):
            args = {"path": rest[0]}
            if name == "open":
                args["flags"] = rest[1]
            return args
        if name == "fcntl":
            return {"fd": fd(rest[0]), "cmd": "F_DUPFD"}
        if name in ("close", "dup", "fsync", "fchdir"):
            return {"fd": fd(rest[0])}
        if name in ("read", "write"):
            return {"fd": fd(rest[0]), "nbytes": rest[1]}
        if name == "ftruncate":
            return {"fd": fd(rest[0]), "length": rest[1]}
        if name in ("pread", "pwrite"):
            return {"fd": fd(rest[0]), "nbytes": rest[1], "offset": rest[2]}
        if name == "fallocate":
            return {"fd": fd(rest[0]), "offset": rest[1], "length": rest[2]}
        if name == "lseek":
            return {"fd": fd(rest[0]), "offset": rest[1], "whence": rest[2]}
        if name == "dup2":
            return {"fd": fd(rest[0]), "newfd": fd(rest[1])}
        if name in ("stat", "lstat", "readlink", "access", "chmod", "mkdir",
                    "rmdir", "unlink", "chdir"):
            return {"path": rest[0]}
        if name == "truncate":
            return {"path": rest[0], "length": rest[1]}
        if name == "rename":
            return {"old": rest[0], "new": rest[1]}
        if name in ("link", "symlink"):
            return {"target": rest[0], "path": rest[1]}
        if name == "pipe":
            return {}
        if name in ("shm_open", "shm_unlink"):
            return {"name": rest[0]}
        if name in ("aio_read", "aio_write"):
            return {"aiocb": rest[0], "fd": fd(rest[1]), "nbytes": rest[2],
                    "offset": rest[3]}
        if name in ("aio_error", "aio_return"):
            return {"aiocb": rest[0]}
        if name == "aio_suspend":
            return {"aiocbs": list(rest[0])}
        assert name == "lio_listio"
        return {"ops": [{"aiocb": cb, "fd": fd(pick), "nbytes": n, "offset": at,
                         "is_write": w} for cb, pick, n, at, w in rest[0]]}

    def avoided(self, name, args):
        """The two generator exclusions (module docstring)."""
        fs = self.fs
        if name in ("rename", "rmdir"):
            src = fs.walk(args["old" if name == "rename" else "path"], False)
            dst = fs.walk(args["new"], False) if name == "rename" else None
            for res in (src, dst):
                if res is not None and res.inode is not None and (
                        res.inode.ino in self.protected):
                    return True
            if (src is not None and dst is not None and src.inode is not None
                    and src.inode is dst.inode):
                return True
        if name == "fchdir" and args["fd"] in fs.fdt:
            return fs.fdt.get(args["fd"]).ino not in self.protected
        return False

    def run(self, name, args):
        return drain(self.fs, perform(self.fs, 1, name, args))


@st.composite
def hand_built(draw):
    oracle = Oracle(base_snapshot())
    records = []
    for op in draw(st.lists(OPS, min_size=10, max_size=40)):
        name = op[0]
        args = oracle.args(op)
        if oracle.avoided(name, args):
            continue
        ret, err = oracle.run(name, dict(args))
        if err is not None and draw(st.integers(0, 19)) == 0:
            # A success the oracle refused: an inconsistent trace.
            ret, err = {"open": 90, "creat": 91, "dup": 92, "shm_open": 93,
                        "pipe": [94, 95]}.get(name, 0), None
        t = float(len(records))
        records.append(TraceRecord(len(records), draw(st.integers(1, 3)), name,
                                   args, ret, err, t, t + 0.5))
    return records


@given(hand_built())
@settings(max_examples=300, deadline=None)
def test_hand_built_traces_compile_as_before(records):
    differential(records, base_snapshot())


# -- what performs rests on --------------------------------------------------

#: One registered name per kind the call table knows.
NAME_OF = {}
for _name, _spec in sorted(REGISTRY.items()):
    NAME_OF.setdefault(_spec.kind, _name)

UNPERFORMED = sorted(kind for kind, spec in KINDS.items() if not spec.performs) + ["fcntl"]

ARGS = {
    "fd": FD, "nbytes": SIZE, "offset": SIZE, "length": SIZE,
    "whence": st.sampled_from([0, 1, 2]), "mode": st.just(0o600),
    "xname": st.sampled_from(["user.a", "user.b"]), "size": st.just(16),
    "aiocb": CB, "aiocbs": st.lists(CB, max_size=2), "op": st.just(0),
    "addr": st.just(0), "newfd": FD, "name": st.just("s1"),
}


def namespace_of(fs):
    """Every name with its inode, type and link count; the descriptor
    table; the cwd."""
    names = {}
    pending = [("", fs.table.root)]
    while pending:
        prefix, directory = pending.pop()
        for name, ino in directory.children.items():
            inode = fs.table.get(ino)
            names[prefix + "/" + name] = (ino, inode.ftype, inode.nlink,
                                          inode.symlink_target)
            if inode.is_dir:
                pending.append((prefix + "/" + name, inode))
    fds = {fd: (fs.fdt.get(fd).ino, fs.fdt.get(fd).kind, fs.fdt.get(fd).refcount)
           for fd in fs.fdt.open_fds()}
    return names, fds, fs.cwd


@given(st.sampled_from(UNPERFORMED), st.data())
@settings(max_examples=120, deadline=None)
def test_calls_outside_the_performed_set_leave_the_namespace(kind, data):
    oracle = Oracle(base_snapshot())
    for name, args in (("open", {"path": "/w/a/f", "flags": "O_RDWR"}),
                       ("open", {"path": "/w/a", "flags": "O_RDONLY|O_DIRECTORY"}),
                       ("pipe", {}), ("chdir", {"path": "/w"})):
        oracle.run(name, args)
    row = HANDLERS[kind]
    if kind == "fcntl":
        args = {"fd": oracle.fd(data.draw(FD)), "cmd": data.draw(st.sampled_from(
            ["F_GETFL", "F_SETFL", "F_FULLFSYNC", "F_PREALLOCATE", "F_RDADVISE",
             "F_NOCACHE"])), "arg": 4096}
    elif kind == "lio_listio":
        args = oracle.args(("lio_listio", data.draw(st.lists(
            st.tuples(CB, FD, SIZE, SIZE, st.booleans()), min_size=1, max_size=2))))
    else:
        args = {}
        for param in row.params:
            if isinstance(param, str):
                key = param
            elif type(param) is tuple:
                key = param[0]  # (name, default)
            else:
                continue  # Flags / Const
            if key in ("path", "path1", "path2", "old", "new", "target"):
                args[key] = data.draw(paths())
            else:
                value = data.draw(ARGS[key])
                args[key] = oracle.fd(value) if key in ("fd", "newfd") else value
    before = namespace_of(oracle.fs)
    oracle.run(NAME_OF[kind], args)
    assert namespace_of(oracle.fs) == before, (kind, args)
