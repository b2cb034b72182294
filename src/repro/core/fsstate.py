"""Symbolic file-system state: from trace records to resource touches.

This is the compiler's UNIX model (paper section 4): it replays the
trace *symbolically*, in trace order, maintaining a shadow namespace
(directories, symlinks, hard links), a descriptor table, and per-name
generation counters.  For each record it emits:

- the list of :class:`~repro.core.resources.Touch` objects (which
  resources the action creates, uses, deletes), including the
  transitive effects the paper highlights -- a directory rename touches
  every descendant file and every affected path generation; symlink
  hops touch the symlink's own file resource; and
- replay *annotations*: the generation of every fd/aiocb argument and
  return value, so the replayer can remap descriptor names
  (section 4.2: same-name descriptors may coexist during replay).

Path generations alternate existence/absence periods.  A failed stat
is a *use* of the current absence generation, whose creator is the
unlink/rename that emptied the name -- this is how ROOT replays
failing calls at a point where they still fail.

The model is deliberately best-effort: when the trace contradicts the
shadow state (the paper's own example is a directory rename un-breaking
a symlink), the record degrades to path/thread touches and
``model_misses`` is incremented rather than failing the compile.
"""

from repro.core import resources as R
from repro.core.resources import Role, Touch
from repro.syscalls.registry import spec_for
from repro.vfs.nodes import normalize


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


class FsState(object):
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
        touches.append(Touch(R.path_key(norm, entry.gen), Role.USE))

    def path_transition_create(self, norm, touches):
        """The dentry at ``norm`` comes into existence."""
        entry = self._path_entry(norm)
        if entry.exists:
            # Shadow state thought it already existed; treat as a
            # rebinding (delete old generation, create the next).
            touches.append(Touch(R.path_key(norm, entry.gen), Role.DELETE))
            entry.gen += 1
            touches.append(Touch(R.path_key(norm, entry.gen), Role.CREATE))
            return
        touches.append(Touch(R.path_key(norm, entry.gen), Role.DELETE))
        entry.gen += 1
        entry.exists = True
        touches.append(Touch(R.path_key(norm, entry.gen), Role.CREATE))

    def path_transition_delete(self, norm, touches):
        """The dentry at ``norm`` goes away."""
        entry = self._path_entry(norm)
        touches.append(Touch(R.path_key(norm, entry.gen), Role.DELETE))
        entry.gen += 1
        entry.exists = False
        touches.append(Touch(R.path_key(norm, entry.gen), Role.CREATE))

    # ------------------------------------------------------------------
    # fd / aiocb generations
    # ------------------------------------------------------------------

    def fd_open(self, num, uid, touches, path=None, append=False):
        gen = self._fd_gen_next.get(num, 0)
        self._fd_gen_next[num] = gen + 1
        self.fd_bindings[num] = _FdBinding(gen, uid, path, append)
        touches.append(Touch(R.fd_key(num, gen), Role.CREATE))
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
        touches.append(Touch(R.fd_key(num, binding.gen), role))
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
        touches.append(Touch(R.aiocb_key(cb_id, gen), Role.CREATE))
        return gen

    def aio_use(self, cb_id, touches, role=Role.USE):
        gen = self.aio_state.get(cb_id)
        if gen is None:
            gen = self._aio_gen_next.get(cb_id, 0)
            self._aio_gen_next[cb_id] = gen + 1
            self.aio_state[cb_id] = gen
        touches.append(Touch(R.aiocb_key(cb_id, gen), role))
        return gen

    # ------------------------------------------------------------------
    # record interpretation
    # ------------------------------------------------------------------

    def apply(self, record):
        """Interpret one record; returns ``(touches, annotations)``."""
        touches = [Touch(R.thread_key(record.tid), Role.USE)]
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
            touches.append(Touch(R.file_key(node.uid), role))

    def _symlink_uses(self, symlink_uids, touches):
        for uid in symlink_uids:
            touches.append(Touch(R.file_key(uid), Role.USE))

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
            touches.append(Touch(R.file_key(uid), role))

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
            touches.append(Touch(R.fd_key(newfd, old.gen), Role.DELETE))
            old.alive = False
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
