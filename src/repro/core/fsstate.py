"""From trace records to resource touches: ROOT's rules over one namespace.

The compiler's UNIX model (paper section 4) answers one question per
record: which resources, and which generations of them, does it touch?
What a name *means* -- the walk through directories, symlinks and hard
links, renames with their subtrees, the descriptor table, the cwd -- is
not modelled here.  :class:`FsState` owns a concrete
:class:`~repro.vfs.filesystem.FileSystem` on the null machine
(:mod:`repro.vfs.null`), restored from the snapshot by the same
:func:`~repro.artc.init.initialize` a replay target uses, and every
record the trace saw succeed that changes the namespace, the descriptor
table or the cwd (a registry row that ``performs``) is performed there
through :func:`repro.syscalls.execute.perform` -- ``fcntl`` only as
``F_DUPFD*``, ``dup2`` and ``F_DUPFD`` as the ``close`` + ``dup`` they
amount to, since the model's descriptors are named by their trace
numbers.  Data transfers, metadata reads and metadata writes are not
performed, so the null machine's file sizes are the snapshot's until an
``O_TRUNC`` open.  Each kind's touch rule is the method its registry
row names (:func:`_rule`); the rules read the VFS's walk (parent,
inode, symlink hops) and inode table before and after the call.  What
stays here is ROOT's own state:

- path generations: a name's uses alternate existence and absence
  periods, and a failed stat is a *use* of the current absence
  generation, whose creator is the unlink/rename that emptied the name
  -- this is how ROOT replays failing calls at a point where they still
  fail;
- fd and aiocb generations, and with them the replay *annotations*
  (the generation of every fd/aiocb argument and return value, so the
  replayer can remap descriptor names: section 4.2);
- the file-size history behind the file-size dependency refinement,
  kept from the trace's own return values and arguments;
- the per-kind touch rules, including the transitive effects the paper
  highlights: a directory rename touches every descendant file and
  every affected path generation, and symlink hops touch the symlink's
  own file resource.

File resources are named by the null machine's inode numbers.  The
model is best-effort: when the null machine refuses a call the trace
saw succeed (the paper's own example is a directory rename un-breaking
a symlink), the record degrades to path/thread touches and
``model_misses`` is incremented rather than failing the compile.
"""

from repro.core.resources import AIOCB, FD, FILE, PATH, THREAD, Role
from repro.errors import UnsupportedSyscallError
from repro.syscalls.execute import flags_of, perform
from repro.syscalls.registry import OWN, REGISTRY
from repro.vfs import flags as F
from repro.vfs.nodes import FileType, normalize
from repro.vfs.null import drain, null_filesystem

CREATE, USE, DELETE = Role.CREATE, Role.USE, Role.DELETE


class _FdBinding(object):
    """One generation of a trace descriptor number.  ``vfd`` is the
    null machine's descriptor behind it (None for a binding made by a
    model miss, an implicit one, or once closed)."""

    __slots__ = ("gen", "ino", "vfd", "alive", "path", "offset", "append")

    def __init__(self, gen, ino, vfd=None, path=None, append=False):
        self.gen = gen
        self.ino = ino
        self.vfd = vfd
        self.alive = True
        self.path = path
        self.offset = 0  # tracked for file-size dependency inference
        self.append = append


def _count(record):
    """The byte count a data transfer returned (0 for a failure)."""
    ret = record.ret
    return ret if isinstance(ret, int) and ret > 0 else 0


def _shm_path(record):
    return "/dev/shm/" + record.args["name"].lstrip("/")


class FsState(object):
    def __init__(self, snapshot=None):
        from repro.artc.init import initialize  # artc imports core

        self.fs = null_filesystem()
        if snapshot is not None:
            # /dev/random stays a device: a symlink would add a hop, so
            # a file touch, to every open of it.
            initialize(self.fs, snapshot, dev_random_to_urandom=False)
        self.cwd = "/"
        # absolute path -> its name: stat-heavy traces name the same
        # few paths over and over.
        self._names = {}
        # a walk's visited inode numbers -> the symlinks among them
        self._links = {}
        self.path_gen = {}
        self.fd_bindings = {}
        self._fd_gen_next = {}
        self.aio_state = {}
        self._aio_gen_next = {}
        self.model_misses = 0
        # Per-file size history for the file-size dependency extension
        # (the paper's future-work refinement): ino -> list of
        # (action_idx, size_after).  A file's size starts as its
        # inode's, read before any performed call could truncate it.
        self._size = {}
        self._size_events = {}
        self._initial_size = {}

    # ------------------------------------------------------------------
    # the namespace: walks and calls on the null machine
    # ------------------------------------------------------------------

    def _norm(self, path):
        """The path-generation name of ``path``."""
        norm = self._names.get(path)
        if norm is None:
            if path and not path.startswith("/"):
                return normalize(self.cwd.rstrip("/") + "/" + path)
            norm = self._names[path] = normalize(path)
        return norm

    def hops(self, res):
        """The symlinks walk ``res`` followed, in hop order (its
        ``visited`` also holds a final symlink it did not follow).

        The symlinks among a walk's visited inodes are memoised by that
        inode sequence: an inode number names one inode, of one type,
        for good, so the answer never goes stale (the memo grows with
        the distinct walks, as the VFS's own walk memo does).  Callers
        must not modify the returned list."""
        visited = tuple(res.visited)
        links = self._links.get(visited)
        if links is None:
            get = self.fs.table.get
            links = [ino for ino in visited if get(ino).ftype == FileType.SYMLINK]
            self._links[visited] = links
        if links and res.inode is not None and res.inode.ftype == FileType.SYMLINK:
            return links[:-1]
        return links

    def _perform(self, tid, name, args):
        """Make call ``name`` on the null machine; its ``(ret, err)``."""
        return drain(self.fs, perform(self.fs, tid, name, args))

    def _refused(self, touches, *norms):
        """The null machine refused a call the trace saw succeed: the
        record keeps its thread and path touches only."""
        self.model_misses += 1
        del touches[1:]
        for norm in norms:
            self.path_use(norm, touches)

    def _change(self, record, touches, norms, walks):
        """Perform a namespace-changing ``record`` the trace saw
        succeed.  ``walks`` are the ``(path, follow)`` walks its touch
        rule reads, taken before the call; their symlink hops are
        touched.  Returns those walks, or None when the record failed
        (it uses ``norms``' current generations) or the null machine
        refused it."""
        if not record.ok:
            for norm in norms:
                self.path_use(norm, touches)
            return None
        walked = [self.fs.walk(path, follow) for path, follow in walks]
        hops = [ino for res in walked if res is not None for ino in self.hops(res)]
        _ret, err = self._perform(record.tid, record.name, record.args)
        if err is not None:
            self._refused(touches, *norms)
            return None
        for ino in hops:
            touches.append(((FILE, ino), USE))
        return walked

    def open_descriptors_of(self, ino):
        """Descriptor numbers currently bound (and alive) to file
        ``ino``; used to flag renames that shadow a live file."""
        return sorted(
            num
            for num, binding in self.fd_bindings.items()
            if binding.alive and binding.ino == ino
        )

    # ------------------------------------------------------------------
    # path generations
    # ------------------------------------------------------------------

    def path_use(self, norm, touches):
        touches.append(((PATH, norm, self.path_gen.get(norm, 0)), USE))

    def path_transition(self, norm, touches):
        """The dentry at ``norm`` comes into existence or goes away:
        its current generation ends and the next one begins."""
        gen = self.path_gen.get(norm, 0)
        self.path_gen[norm] = gen + 1
        touches.append(((PATH, norm, gen), DELETE))
        touches.append(((PATH, norm, gen + 1), CREATE))

    # ------------------------------------------------------------------
    # fd / aiocb generations
    # ------------------------------------------------------------------

    def fd_open(self, num, ino, touches, path=None, append=False, vfd=None):
        gen = self._fd_gen_next.get(num, 0)
        self._fd_gen_next[num] = gen + 1
        replaced = self.fd_bindings.get(num)
        if replaced is not None:
            self._release(replaced)
        self.fd_bindings[num] = _FdBinding(gen, ino, vfd, path, append)
        touches.append(((FD, num, gen), CREATE))
        return gen

    def _implicit_fd(self, num):
        """A descriptor opened before tracing started (stdio etc.): an
        implicit generation, so replay can track it."""
        gen = self._fd_gen_next.get(num, 0)
        self._fd_gen_next[num] = gen + 1
        binding = self.fd_bindings[num] = _FdBinding(gen, None)
        return binding

    def _release(self, binding):
        """Close the null machine's descriptor behind ``binding``."""
        if binding.vfd is not None:
            self._perform(None, "close", {"fd": binding.vfd})
            binding.vfd = None

    def _dup(self, tid, binding):
        """A second null-machine descriptor for ``binding``'s file."""
        if binding is None or binding.vfd is None:
            return None
        ret, err = self._perform(tid, "dup", {"fd": binding.vfd})
        return ret if err is None else None

    def aio_submit(self, cb_id, touches):
        gen = self._aio_gen_next.get(cb_id, 0)
        self._aio_gen_next[cb_id] = gen + 1
        self.aio_state[cb_id] = gen
        touches.append(((AIOCB, cb_id, gen), CREATE))
        return gen

    def aio_use(self, cb_id, touches, role=USE):
        gen = self.aio_state.get(cb_id)
        if gen is None:
            gen = self._aio_gen_next.get(cb_id, 0)
            self._aio_gen_next[cb_id] = gen + 1
            self.aio_state[cb_id] = gen
        touches.append(((AIOCB, cb_id, gen), role))
        return gen

    # ------------------------------------------------------------------
    # file-size history (the paper's future-work dependency refinement)
    # ------------------------------------------------------------------

    def _pin_size(self, inode):
        """Start ``inode``'s size history from the null machine's size,
        unless it has one already."""
        self._size.setdefault(inode.ino, inode.size)

    def _note_size(self, ino, idx, new_size, ann):
        """Record a size-changing action; chains it to the previous
        size-changing action on the file (``size_chain``)."""
        events = self._size_events.setdefault(ino, [])
        if events:
            ann["size_chain"] = events[-1][0]
        else:
            self._initial_size[ino] = self._size[ino]
        events.append((idx, new_size))
        self._size[ino] = new_size

    def _grow(self, ino, idx, end, ann):
        if end > self._size[ino]:
            self._note_size(ino, idx, end, ann)

    def _size_dep(self, ino, read_end, ann):
        """Record the latest action that exposed bytes up to
        ``read_end`` (size went from below to at-or-above it), if the
        initial snapshot did not already cover the range."""
        events = self._size_events.get(ino)
        if not events or read_end <= 0:
            return
        size = self._initial_size.get(ino, 0)
        dep = None
        for idx, after in events:
            if size < read_end <= after:
                dep = idx
            size = after
        if dep is not None:
            ann["size_dep"] = dep

    # ------------------------------------------------------------------
    # record interpretation
    # ------------------------------------------------------------------

    def apply(self, record):
        """Interpret one record; returns ``(touches, annotations)``."""
        touches = [((THREAD, record.tid), USE)]
        ann = {}
        try:
            rule = _RULES[record.name]
        except KeyError:
            raise UnsupportedSyscallError(record.name) from None
        if rule is None:
            return touches, ann  # unmodeled call: thread ordering only
        try:
            rule(self, record, touches, ann)
        except Exception:
            self.model_misses += 1
        return touches, ann

    # -- helpers shared by handlers ------------------------------------

    def _file_use(self, ino, touches, role=USE):
        if ino is not None:
            touches.append(((FILE, ino), role))

    def _k_path_read(self, record, touches, ann, follow=True):
        """The stat family's rule, and the common body of the other
        path operations that read a dentry (``ann`` is unused)."""
        path = record.args["path"]
        norm = self._names.get(path)
        if norm is None:
            norm = self._norm(path)
        touches.append(((PATH, norm, self.path_gen.get(norm, 0)), USE))
        if record.err is not None:
            return None
        res = self.fs.walk(path, follow)
        if res is None or res.inode is None:
            self.model_misses += 1
            return None
        node = res.inode
        for ino in self.hops(res):
            touches.append(((FILE, ino), USE))
        if res.parent is not node:
            touches.append(((FILE, res.parent.ino), USE))
        touches.append(((FILE, node.ino), USE))
        return node

    def _descendants(self, node, prefix):
        """``(path, inode)`` of every dentry under directory ``node``
        (named ``prefix``), depth first in directory order."""
        out = []
        for name, ino in node.children.items():
            child = self.fs.table.get(ino)
            path = prefix + "/" + name
            out.append((path, child))
            if child.is_dir:
                out.extend(self._descendants(child, path))
        return out

    # -- open family ----------------------------------------------------

    def _k_open(self, record, touches, ann, path=None, default=0):
        args = record.args
        if path is None:
            path = args["path"]
        norm = self._names.get(path)
        if norm is None:
            norm = self._norm(path)
        if record.err is not None:
            touches.append(((PATH, norm, self.path_gen.get(norm, 0)), USE))
            return
        flags = flags_of(args, default)
        fs = self.fs
        res = fs.walk(path, not (flags & (F.O_NOFOLLOW | F.O_SYMLINK)))
        if res is not None:
            hops = self.hops(res)
            if res.inode is not None:
                # before an O_TRUNC zeroes it
                self._size.setdefault(res.inode.ino, res.inode.size)
        vfd, err = self._perform(record.tid, record.name, args)
        append = bool(flags & F.O_APPEND)
        if err is not None:
            self._refused(touches, norm)
            ann["ret_fd"] = self.fd_open(record.ret, None, touches, norm, append)
            return
        node = fs.table.get(fs.fdt.get(vfd).ino)
        ino = node.ino
        for hop in hops:
            touches.append(((FILE, hop), USE))
        if res.inode is None:
            self._size.setdefault(ino, node.size)
            touches.append(((FILE, res.parent.ino), USE))
            touches.append(((FILE, ino), CREATE))
            self.path_transition(norm, touches)
        else:
            if res.parent is not node:
                touches.append(((FILE, res.parent.ino), USE))
            touches.append(((FILE, ino), USE))
            touches.append(((PATH, norm, self.path_gen.get(norm, 0)), USE))
            writes = (flags & F.O_ACCMODE) in (F.O_WRONLY, F.O_RDWR)
            if flags & F.O_TRUNC and writes and node.ftype == FileType.REG:
                self._note_size(ino, record.idx, 0, ann)
        ann["ret_fd"] = self.fd_open(record.ret, ino, touches, norm, append, vfd)

    def _k_creat(self, record, touches, ann):
        self._k_open(record, touches, ann, None, F.O_WRONLY | F.O_CREAT | F.O_TRUNC)

    def _k_shm_open(self, record, touches, ann):
        self._k_open(record, touches, ann, _shm_path(record), F.O_RDWR | F.O_CREAT)

    def _k_shm_unlink(self, record, touches, ann):
        self._k_unlink(record, touches, ann, _shm_path(record))

    # -- descriptor ops ---------------------------------------------------

    def _k_close(self, record, touches, ann):
        num = record.args["fd"]
        binding = self.fd_bindings.get(num)
        if record.err is not None:
            if binding is not None:
                ann["fd"] = binding.gen
            return
        if binding is None:
            binding = self._implicit_fd(num)
        touches.append(((FD, num, binding.gen), DELETE))
        binding.alive = False
        self._release(binding)
        ann["fd"] = binding.gen
        if binding.ino is not None:
            touches.append(((FILE, binding.ino), USE))

    def _k_fd_op(self, record, touches, ann, num=None):
        """A descriptor's generation and its file (``num``: a request's
        own descriptor, not the record's)."""
        if num is None:
            num = record.args["fd"]
        binding = self.fd_bindings.get(num)
        if record.err is not None:
            if binding is not None:
                ann["fd"] = binding.gen
            return None
        if binding is None:
            binding = self._implicit_fd(num)
        touches.append(((FD, num, binding.gen), USE))
        ann["fd"] = binding.gen
        if binding.ino is not None:
            touches.append(((FILE, binding.ino), USE))
        return binding

    # -- data transfers track fd offsets and file sizes, feeding the
    # -- file-size dependency refinement --------------------------------

    def _k_read(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is None:
            return
        count = _count(record)
        start = binding.offset
        binding.offset = start + count
        if binding.ino is not None and count:
            self._size_dep(binding.ino, start + count, ann)

    def _k_pread(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        count = _count(record)
        if binding is not None and binding.ino is not None and count:
            self._size_dep(binding.ino, record.args.get("offset", 0) + count, ann)

    def _k_write(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is None:
            return
        ino = binding.ino
        size = self._size
        ret = record.ret  # _count, inline: the write rule is hot
        end = (size[ino] if binding.append and ino is not None
               else binding.offset) + (ret if isinstance(ret, int) and ret > 0 else 0)
        binding.offset = end
        if ino is not None and end > size[ino]:
            self._note_size(ino, record.idx, end, ann)

    def _k_pwrite(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        ret = record.ret
        if (binding is not None and binding.ino is not None
                and isinstance(ret, int) and ret > 0):
            self._grow(binding.ino, record.idx,
                       record.args.get("offset", 0) + ret, ann)

    def _k_lseek(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is not None and isinstance(record.ret, int):
            binding.offset = record.ret

    def _k_ftruncate(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is not None and binding.ino is not None:
            self._note_size(binding.ino, record.idx,
                            record.args.get("length", 0), ann)

    def _k_fallocate(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is not None and binding.ino is not None:
            args = record.args
            self._grow(binding.ino, record.idx,
                       args.get("offset", 0) + args.get("length", 0), ann)

    def _k_truncate(self, record, touches, ann):
        node = self._k_path_read(record, touches, ann)
        if node is not None:
            self._pin_size(node)
            self._note_size(node.ino, record.idx, record.args.get("length", 0), ann)

    def _k_mmap(self, record, touches, ann):
        if record.args.get("fd", -1) != -1:
            self._k_fd_op(record, touches, ann)

    def _k_dup(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is not None:
            ann["ret_fd"] = self.fd_open(
                record.ret, binding.ino, touches, vfd=self._dup(record.tid, binding)
            )

    def _k_dup2(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is None:
            return
        newfd = record.args["newfd"]
        old = self.fd_bindings.get(newfd)
        if old is not None and old.alive:
            touches.append(((FD, newfd, old.gen), DELETE))
            old.alive = False
            ann["newfd_closed"] = old.gen
        ann["newfd_gen"] = self.fd_open(
            newfd, binding.ino, touches, vfd=self._dup(record.tid, binding)
        )

    def _k_fcntl(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is not None and record.args.get("cmd", "") in ("F_DUPFD", "F_DUPFD_CLOEXEC"):
            ann["ret_fd"] = self.fd_open(
                record.ret, binding.ino, touches, vfd=self._dup(record.tid, binding)
            )

    def _k_fchdir(self, record, touches, ann):
        binding = self._k_fd_op(record, touches, ann)
        if binding is None or not binding.path:
            return
        # A binding made by a refused open has a name but no null
        # machine descriptor: the null machine changes to that name, so
        # its cwd and the model's still move together.
        if binding.vfd is None:
            _ret, err = self._perform(record.tid, "chdir", {"path": binding.path})
        else:
            _ret, err = self._perform(
                record.tid, record.name, dict(record.args, fd=binding.vfd)
            )
        if err is not None:
            self.model_misses += 1
            return
        self.cwd = binding.path

    def _k_pipe(self, record, touches, ann):
        if not record.ok:
            return
        vfds, err = self._perform(record.tid, record.name, record.args)
        vfds = list(vfds) if err is None else []
        ann["ret_fds"] = [
            self.fd_open(num, None, touches, vfd=vfds.pop(0) if vfds else None)
            for num in record.ret or []
        ]

    # -- path metadata: reads and writes alike use the dentry ------------

    def _k_path_read_nofollow(self, record, touches, ann):
        self._k_path_read(record, touches, ann, follow=False)

    def _k_chdir(self, record, touches, ann):
        if self._k_path_read(record, touches, ann) is None:
            return
        norm = self._norm(record.args["path"])
        _ret, err = self._perform(record.tid, record.name, record.args)
        if err is not None:
            self._refused(touches, norm)
            return
        self.cwd = norm

    # -- namespace changes ---------------------------------------------------

    def _k_mkdir(self, record, touches, ann):
        """mkdir / symlink: a new dentry and the file it names."""
        path = record.args["path"]
        norm = self._norm(path)
        walked = self._change(record, touches, (norm,), ((path, False),))
        if walked is None:
            return
        parent = walked[0].parent
        self._file_use(parent.ino, touches)
        self._file_use(parent.children[walked[0].name], touches, CREATE)
        self.path_transition(norm, touches)

    def _k_unlink(self, record, touches, ann, path=None):
        """unlink / rmdir: the dentry goes; the file with its last link."""
        if path is None:
            path = record.args["path"]
        norm = self._norm(path)
        walked = self._change(record, touches, (norm,), ((path, False),))
        if walked is None:
            return
        res = walked[0]
        node = res.inode
        self._file_use(res.parent.ino, touches)
        last = node.is_dir or node.nlink <= 0
        self._file_use(node.ino, touches, DELETE if last else USE)
        self.path_transition(norm, touches)

    def _k_rename(self, record, touches, ann):
        args = record.args
        old, new = self._norm(args["old"]), self._norm(args["new"])
        walked = self._change(record, touches, (old, new),
                              ((args["old"], False), (args["new"], False)))
        if walked is None:
            return
        src, dst = walked
        node, displaced = src.inode, dst.inode
        touches.append(((FILE, src.parent.ino), USE))
        if dst.parent is not src.parent:
            touches.append(((FILE, dst.parent.ino), USE))
        touches.append(((FILE, node.ino), USE))
        if displaced is not None and displaced is not node:
            last = displaced.ftype == FileType.DIR or displaced.nlink <= 0
            touches.append(((FILE, displaced.ino), DELETE if last else USE))
        # Descendants: every file and dentry under a renamed directory
        # is affected (the Figure 2 example).
        below = (self._descendants(node, old.rstrip("/"))
                 if node.ftype == FileType.DIR else ())
        for child_path, child in below:
            touches.append(((FILE, child.ino), USE))
            self.path_transition(child_path, touches)
        self.path_transition(old, touches)
        self.path_transition(new, touches)
        for child_path, _child in below:
            self.path_transition(new + child_path[len(old):], touches)

    def _k_link(self, record, touches, ann):
        args = record.args
        target, new = self._norm(args["target"]), self._norm(args["path"])
        walked = self._change(record, touches, (target, new), ((args["target"], True),))
        if walked is None:
            return
        src = walked[0]
        self._file_use(src.parent.ino, touches)
        self._file_use(src.inode.ino, touches)
        self._file_use(self.fs.walk(args["path"], False).parent.ino, touches)
        self.path_use(target, touches)
        self.path_transition(new, touches)

    def _k_exchangedata(self, record, touches, ann):
        for arg in ("path1", "path2"):
            path = record.args[arg]
            self.path_use(self._norm(path), touches)
            if record.ok:
                inode = self.fs.lookup(path)
                if inode is not None:
                    self._file_use(inode.ino, touches)

    # -- asynchronous I/O -----------------------------------------------------

    def _k_aio_read(self, record, touches, ann):
        self._k_fd_op(record, touches, ann)
        if record.ok:
            ann["aiocb"] = self.aio_submit(record.args["aiocb"], touches)

    def _k_aio_error(self, record, touches, ann):
        ann["aiocb"] = self.aio_use(record.args["aiocb"], touches)

    def _k_aio_return(self, record, touches, ann):
        ann["aiocb"] = self.aio_use(
            record.args["aiocb"], touches, role=DELETE
        )
        self.aio_state.pop(record.args["aiocb"], None)

    def _k_aio_suspend(self, record, touches, ann):
        ann["aiocb_gens"] = [
            self.aio_use(cb_id, touches) for cb_id in record.args.get("aiocbs", [])
        ]

    def _k_lio_listio(self, record, touches, ann):
        # One descriptor per request, so one generation per request:
        # the replayer remaps each op's fd (planir.fd_sites).
        fd_gens, gens = [], []
        for op in record.args.get("ops", []):
            op_ann = {}
            self._k_fd_op(record, touches, op_ann, op["fd"])
            fd_gens.append(op_ann.get("fd"))
            gens.append(self.aio_submit(op["aiocb"], touches))
        ann["fd_gens"] = fd_gens
        ann["aiocb_gens"] = gens


def _rule(spec):
    """The ``FsState`` method a registry row names as its touch rule
    (None: thread ordering only); a rule it lacks fails the import."""
    if spec.rule is None:
        return None
    return getattr(FsState, "_k_" + (spec.kind if spec.rule == OWN else spec.rule))


#: Call name -> the touch rule of its kind.
_RULES = {name: _rule(spec) for name, spec in REGISTRY.items()}
