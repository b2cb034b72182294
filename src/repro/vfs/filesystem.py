"""POSIX file-system semantics over the simulated storage stack.

Every operation is a generator (driven by the simulation engine).  A
call that succeeds returns ``(retval, None)``; a call that fails raises
one of :attr:`FileSystem.FAILURES`, and whoever drives the op converts
that with :meth:`FileSystem.failed` into ``(-1, errno)`` -- a symbolic
name (``"ENOENT"``), mirroring what traces record.  Failed operations
consume (almost) no simulated time, which is exactly the
under-constraint hazard the paper describes: a mis-ordered replay whose
calls fail "finishes instantly".  Two failures are results, not raises:
a missing extended attribute and an unknown aio control block.

Timing is delegated to :class:`repro.storage.stack.StorageStack`; the
``platform`` string selects behavioural quirks (Darwin's cheap fsync,
Linux's blocking /dev/random, xattr errno spelling).
"""

from repro.errors import DeviceError
from repro.sim.events import Delay
from repro.vfs import flags as F
from repro.vfs.errnos import Errno, VfsError
from repro.vfs.fdtable import FDTable, OpenFile
from repro.vfs.nodes import FileType, InodeTable, Resolved, resolve


class StatResult(object):
    __slots__ = ("ino", "ftype", "size", "nlink", "mode")

    def __init__(self, inode):
        self.ino = inode.ino
        self.ftype = inode.ftype
        self.size = inode.size
        self.nlink = inode.nlink
        self.mode = inode.mode

    def __repr__(self):
        return "<stat ino=%d %s size=%d>" % (self.ino, self.ftype, self.size)


class AioControlBlock(object):
    """State of one in-flight asynchronous request."""

    __slots__ = ("cb_id", "fd", "nbytes", "offset", "is_write", "status", "result", "done")

    def __init__(self, cb_id, fd, nbytes, offset, is_write, done):
        self.cb_id = cb_id
        self.fd = fd
        self.nbytes = nbytes
        self.offset = offset
        self.is_write = is_write
        self.status = Errno.EINPROGRESS
        self.result = None
        self.done = done


class FileSystem(object):
    """One mounted file system plus the process-wide fd table.

    Replay in the paper is single-process, so one FileSystem carries one
    fd table, one cwd, and one AIO registry shared by all (simulated)
    threads.
    """

    #: What a failing op raises; :meth:`failed` turns it into the call's
    #: result.  A :class:`DeviceError` is an injected (or propagated)
    #: device fault: the call fails with the mapped errno instead of
    #: crashing the run.
    FAILURES = (VfsError, DeviceError)

    #: linux | darwin | freebsd | illumos
    def __init__(self, engine, stack, platform="linux"):
        self.engine = engine
        self.stack = stack
        self.platform = platform
        self.table = InodeTable()
        self.fdt = FDTable()
        self.cwd = InodeTable.ROOT_INO
        self._aiocbs = {}
        # Every fixed CPU charge tries the engine's clock fast-forward
        # before yielding its Delay (see Engine.advance); bound once.
        self._advance = engine.advance
        self._meta_cpu = stack.META_CPU
        # Path-walk memos, invalidated lazily by two generations (see
        # _ns_changed).  Full paths: (path, cwd, follow_last) ->
        # (_walk_gen, Resolved-or-None, errno-or-None); any dentry
        # change bumps _walk_gen.  Directory prefixes: (prefix, cwd) ->
        # (_dir_gen, directory inode, visited); only a directory or
        # symlink dentry change bumps _dir_gen, so creating, renaming
        # and unlinking files leaves every memoised directory walk
        # standing and a full-path miss costs one live component.
        self._walk_gen = 0
        self._dir_gen = 0
        self._walk_cache = {}
        self._prefix_cache = {}
        self._setup_devfs()

    # ------------------------------------------------------------------
    # setup helpers (instant, used before timing matters)
    # ------------------------------------------------------------------

    def _setup_devfs(self):
        self.mkdir_now("/dev")
        self.mkdir_now("/dev/shm")
        self.mknod_now("/dev/null", "null")
        self.mknod_now("/dev/zero", "zero")
        self.mknod_now("/dev/random", "random")
        self.mknod_now("/dev/urandom", "urandom")
        self.mknod_now("/dev/tty", "tty")
        self.mkdir_now("/tmp")

    def mkdir_now(self, path, mode=0o755):
        """Create a directory instantly (initialization helper)."""
        res = self._walk(path)
        if res.inode is not None:
            if not res.inode.is_dir:
                raise VfsError(Errno.ENOTDIR)
            return res.inode
        child = self.table.alloc(FileType.DIR, mode)
        child.parent = res.parent.ino
        res.parent.children[res.name] = child.ino
        res.parent.nlink += 1
        self._ns_changed(child)
        return child

    def makedirs_now(self, path):
        built = ""
        inode = self.table.root
        for part in [p for p in path.split("/") if p]:
            built += "/" + part
            # A directory that is there is stepped into; anything else
            # (missing, a symlink, "." or "..") is walked.
            ino = inode.children.get(part)
            child = None if ino is None else self.table.get(ino)
            if child is not None and child.is_dir:
                inode = child
            else:
                inode = self.mkdir_now(built)
        return inode

    def create_file_now(self, path, size=0, mode=0o644):
        """Create (or resize) a regular file instantly.

        The file's extents are allocated immediately: a pre-existing
        file occupies its own contiguous region of the disk, it does
        not interleave with whatever happens to be read first.
        """
        res = self._walk(path)
        if res.inode is not None:
            res.inode.size = size
            inode = res.inode
        else:
            inode = self.table.alloc(FileType.REG, mode)
            inode.size = size
            res.parent.children[res.name] = inode.ino
            self._ns_changed(inode)
        if size > 0:
            self.stack.alloc.ensure_blocks(
                inode.ino, (size + 4095) // 4096
            )
        return inode

    def symlink_now(self, target, path):
        res = self._walk(path, follow_last=False)
        if res.inode is not None:
            raise VfsError(Errno.EEXIST)
        child = self.table.alloc(FileType.SYMLINK, 0o777)
        child.symlink_target = target
        child.size = len(target)
        res.parent.children[res.name] = child.ino
        self._ns_changed(child)
        return child

    def mknod_now(self, path, special):
        res = self._walk(path, follow_last=False)
        if res.inode is not None:
            return res.inode
        child = self.table.alloc(FileType.CHAR, 0o666)
        child.special = special
        res.parent.children[res.name] = child.ino
        self._ns_changed(child)
        return child

    def unlink_now(self, path):
        res = self._walk(path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            res.parent.children.pop(res.name)
            res.parent.nlink -= 1
        else:
            res.parent.children.pop(res.name)
            res.inode.nlink -= 1
        self._ns_changed(res.inode)
        self._maybe_free(res.inode)

    def walk(self, path, follow=True):
        """The memoised walk of ``path`` (a :class:`Resolved`, which
        must not be modified), or None where the walk fails."""
        try:
            return self._walk(path, follow_last=follow)
        except VfsError:
            return None

    def exists(self, path, follow=True):
        return self.lookup(path, follow) is not None

    def lookup(self, path, follow=True):
        """Return the inode at ``path`` or None (initialization helper)."""
        res = self.walk(path, follow)
        return None if res is None else res.inode

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------

    def _ns_changed(self, *inodes):
        """Invalidate memoized path walks after a dentry was attached
        or detached; ``inodes`` are the inodes the changed dentries
        name(d).  Full-path entries always go.  Directory prefixes go
        only when one of them is a directory or a symlink: a prefix
        that resolved walked nothing but such dentries, so no other
        change can redirect it."""
        self._walk_gen += 1
        if any(inode.is_dir or inode.is_symlink for inode in inodes):
            self._dir_gen += 1

    def _walk(self, path, follow_last=True):
        """Memoized :func:`resolve` over the current namespace
        generation.  Walk errors are memoized too (re-raised fresh)."""
        key = (path, self.cwd, follow_last)
        gen = self._walk_gen
        hit = self._walk_cache.get(key)
        if hit is not None and hit[0] == gen:
            errno = hit[2]
            if errno is not None:
                raise VfsError(errno)
            return hit[1]
        try:
            res = self._walk_last(path, follow_last)
        except VfsError as exc:
            self._walk_cache[key] = (gen, None, exc.errno)
            raise
        self._walk_cache[key] = (gen, res, None)
        return res

    def _walk_last(self, path, follow_last):
        """:func:`resolve`, with the directory part of ``path`` taken
        from the prefix memo and only the last component looked up
        live.  Whatever that shortcut does not cover goes to
        :func:`resolve` itself: a last component that is ``..`` (it
        names the parent, not a child) or a symlink to follow, and a
        prefix that fails or is no directory -- failures are not
        memoised, since file churn can turn one errno into another
        (``ENOENT`` into ``ENOTDIR``)."""
        name = path[path.rfind("/") + 1:]
        if name and name != "." and name != ".." and len(path) <= 4096:
            directory, visited = self._walk_prefix(path[:len(path) - len(name)])
            if directory is not None:
                child_ino = directory.children.get(name)
                if child_ino is None:
                    return Resolved(directory, name, None, visited)
                child = self.table.get(child_ino)
                if not (follow_last and child.is_symlink):
                    return Resolved(
                        directory, name, child, visited + [child_ino]
                    )
        return resolve(self.table, self.cwd, path, follow_last=follow_last)

    def _walk_prefix(self, prefix):
        """The directory ``prefix`` (a path's text up to its last
        component: empty, or ending in a slash) leads to, and the
        inodes visited on the way; ``(None, None)`` when it does not
        lead to one."""
        key = (prefix, self.cwd)
        hit = self._prefix_cache.get(key)
        if hit is not None and hit[0] == self._dir_gen:
            return hit[1], hit[2]
        if prefix:
            try:
                res = resolve(self.table, self.cwd, prefix)
            except VfsError:
                return None, None
            directory, visited = res.inode, res.visited
        else:
            directory, visited = self.table.get(self.cwd), [self.cwd]
        if directory is None or not directory.is_dir:
            return None, None
        self._prefix_cache[key] = (self._dir_gen, directory, visited)
        return directory, visited

    def _resolve(self, tid, path, follow_last=True):
        """Timed path resolution; raises VfsError on walk errors.

        The walk is charged one inode/dentry-cache lookup per visited
        inode (the hit half of ``stack.meta_read``, inlined: walks
        dominate metadata traffic).  A charge may yield, so other
        threads may run in between; namespace *mutations* must
        re-resolve with :meth:`_fresh` immediately before changing
        anything (the in-kernel equivalent holds directory locks across
        lookup+modify).
        """
        res = self._walk(path, follow_last=follow_last)
        gen = self._walk_gen
        stack = self.stack
        lookup = stack.cache.lookup
        advance = self._advance
        meta_cpu = self._meta_cpu
        for ino in res.visited:
            if lookup(("ino", ino)):
                if not advance(meta_cpu):
                    yield stack.meta_delay
            else:
                yield from stack.meta_read_cold(tid, ino)
        if self._walk_gen == gen:
            return res  # nobody mutated the namespace while we charged
        return self._walk(path, follow_last=follow_last)

    def _fresh(self, path, follow_last=True):
        """Atomic (non-yielding) resolution for use at mutation points."""
        return self._walk(path, follow_last=follow_last)

    def _maybe_free(self, inode):
        if inode.nlink <= 0 and inode.open_count == 0 and not inode.is_dir:
            if inode.ino in self.table:
                self.table.free(inode.ino)
            self.stack.drop_file(None, inode.ino)

    def _file_of(self, fd, kinds=("file",)):
        open_file = self.fdt.get(fd)
        if kinds is not None and open_file.kind not in kinds:
            raise VfsError(Errno.EBADF)
        return open_file

    def _xattr_missing_errno(self):
        return Errno.ENODATA if self.platform == "linux" else Errno.ENOATTR

    def failed(self, exc):
        """The result of a call whose op raised ``exc`` (one of
        :attr:`FAILURES`): ``(-1, errno)``, after one metadata CPU
        charge.  Failed calls "finish instantly" relative to I/O (the
        paper's under-constraint hazard), but zero-cost failures would
        let polling loops starve the rest of the simulation."""
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return -1, exc.errno

    # ------------------------------------------------------------------
    # open / close / dup
    # ------------------------------------------------------------------

    def open(self, tid, path, flags=F.O_RDONLY, mode=0o644):
        follow = not (flags & (F.O_NOFOLLOW | F.O_SYMLINK))
        res = yield from self._resolve(tid, path, follow_last=follow)
        inode = res.inode
        accmode = flags & F.O_ACCMODE
        wants_write = accmode in (F.O_WRONLY, F.O_RDWR)
        if inode is None:
            if res.name is None:
                raise VfsError(Errno.EISDIR)
            if not (flags & F.O_CREAT):
                raise VfsError(Errno.ENOENT)
            inode = self.table.alloc(FileType.REG, mode)
            inode.mtime = self.engine.now
            yield from self.stack.namespace_op(
                tid, inode.ino, desc=("create", path)
            )
            # Attach the dentry at the return point (see close).
            res = self._fresh(path, follow_last=follow)
            if res.inode is not None:
                # Lost the creation race during the journal charge.
                self.table.free(inode.ino)
                if flags & F.O_EXCL:
                    raise VfsError(Errno.EEXIST)
                inode = res.inode
                if inode.is_dir and wants_write:
                    raise VfsError(Errno.EISDIR)
            else:
                res.parent.children[res.name] = inode.ino
                self._ns_changed(inode)
        else:
            if (flags & F.O_CREAT) and (flags & F.O_EXCL):
                raise VfsError(Errno.EEXIST)
            if inode.is_symlink and not follow:
                if flags & F.O_SYMLINK:
                    pass  # Darwin: operate on the link itself
                else:
                    raise VfsError(Errno.ELOOP)
            if inode.is_dir:
                if wants_write:
                    raise VfsError(Errno.EISDIR)
            elif flags & F.O_DIRECTORY:
                raise VfsError(Errno.ENOTDIR)
            if (flags & F.O_TRUNC) and wants_write and inode.is_reg:
                inode.size = 0
                self.stack.drop_file(tid, inode.ino, truncated=True)
                yield from self.stack.namespace_op(
                    tid, inode.ino, desc=("trunc", path)
                )
        kind = "dir" if inode.is_dir else "file"
        open_file = OpenFile(inode.ino, flags, kind=kind, path=path)
        inode.open_count += 1
        fd = self.fdt.alloc(open_file)
        return fd, None

    def creat(self, tid, path, mode=0o644):
        return self.open(tid, path, F.O_WRONLY | F.O_CREAT | F.O_TRUNC, mode)

    def close(self, tid, fd):
        # Validate, charge time, then mutate at the return point: the
        # descriptor number must not be reusable before this call's
        # completion, or trace completion order would misattribute the
        # close to the wrong fd generation.
        self.fdt.get(fd)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        last = self.fdt.remove(fd)
        if last is not None and last.kind in ("file", "dir"):
            inode = self.table.get(last.ino)
            inode.open_count -= 1
            self._maybe_free(inode)
        return 0, None

    def dup(self, tid, fd):
        newfd = self.fdt.dup(fd)
        self._bump_open_count(newfd)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return newfd, None

    def dup2(self, tid, fd, newfd):
        # POSIX: the old descriptor is checked first, so a bad one
        # leaves ``newfd`` open; ``dup2(fd, fd)`` changes nothing.
        self.fdt.get(fd)
        if newfd != fd:
            if newfd in self.fdt:
                yield from self.close(tid, newfd)
            self._bump_open_count(self.fdt.dup2(fd, newfd))
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return newfd, None

    def _bump_open_count(self, fd):
        open_file = self.fdt.get(fd)
        if open_file.kind in ("file", "dir"):
            self.table.get(open_file.ino).open_count += 1

    # ------------------------------------------------------------------
    # data transfer
    # ------------------------------------------------------------------

    def read(self, tid, fd, nbytes):
        return self._rw(tid, fd, nbytes, None, False)

    def pread(self, tid, fd, nbytes, offset):
        return self._rw(tid, fd, nbytes, offset, False)

    def write(self, tid, fd, nbytes):
        return self._rw(tid, fd, nbytes, None, True)

    def pwrite(self, tid, fd, nbytes, offset):
        return self._rw(tid, fd, nbytes, offset, True)

    def _rw(self, tid, fd, nbytes, offset, is_write):
        open_file = self.fdt.get(fd)
        if open_file.kind == "dir":
            raise VfsError(Errno.EISDIR)
        if open_file.kind.startswith("pipe"):
            ok_dir = (open_file.kind == "pipe_w") == is_write
            if not ok_dir:
                raise VfsError(Errno.EBADF)
            if not self._advance(self.stack.PAGE_CPU):
                yield Delay(self.stack.PAGE_CPU)
            return nbytes, None
        accmode = open_file.flags & F.O_ACCMODE
        if is_write and accmode == F.O_RDONLY:
            raise VfsError(Errno.EBADF)
        if not is_write and accmode == F.O_WRONLY:
            raise VfsError(Errno.EBADF)
        inode = self.table.get(open_file.ino)
        if inode.ftype == FileType.CHAR:
            value = yield from self._special_rw(inode, nbytes, is_write)
            return value, None
        at = open_file.offset if offset is None else offset
        if is_write:
            if (open_file.flags & F.O_APPEND) and offset is None:
                at = inode.size
            yield from self.stack.write(tid, inode.ino, at, nbytes)
            inode.size = max(inode.size, at + nbytes)
            inode.mtime = self.engine.now
            done = nbytes
        else:
            done = max(0, min(nbytes, inode.size - at))
            if done:
                yield from self.stack.read(tid, inode.ino, at, done)
            else:
                if not self._advance(self._meta_cpu):
                    yield self.stack.meta_delay
        if offset is None:
            open_file.offset = at + done
        return done, None

    def _special_rw(self, inode, nbytes, is_write):
        if is_write:
            if not self._advance(self.stack.PAGE_CPU):
                yield Delay(self.stack.PAGE_CPU)
            return nbytes
        if inode.special == "random" and self.platform == "linux":
            # Linux /dev/random blocks while the entropy pool refills:
            # tens of seconds for under a hundred bytes (paper section 5.1).
            wait = 0.25 * max(1, nbytes)
            if not self._advance(wait):
                yield Delay(wait)
            return nbytes
        if inode.special == "null":
            if not self._advance(self._meta_cpu):
                yield self.stack.meta_delay
            return 0
        if not self._advance(self.stack.PAGE_CPU):
            yield Delay(self.stack.PAGE_CPU)
        return nbytes

    def lseek(self, tid, fd, offset, whence=F.SEEK_SET):
        open_file = self.fdt.get(fd)
        if open_file.kind.startswith("pipe"):
            raise VfsError(Errno.ESPIPE)
        inode = self.table.get(open_file.ino)
        if whence == F.SEEK_SET:
            new = offset
        elif whence == F.SEEK_CUR:
            new = open_file.offset + offset
        elif whence == F.SEEK_END:
            new = inode.size + offset
        else:
            raise VfsError(Errno.EINVAL)
        if new < 0:
            raise VfsError(Errno.EINVAL)
        open_file.offset = new
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return new, None

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def fsync(self, tid, fd):
        return self._fsync(tid, fd, full=self.platform != "darwin")

    def fdatasync(self, tid, fd):
        """Flush the file's data with a device barrier, but skip the
        metadata journal commit (cheaper than fsync on a journaling
        file system)."""
        open_file = self._file_of(fd, kinds=("file", "dir"))
        inode = self.table.get(open_file.ino)
        yield from self.stack._flush_keys(
            tid, self.stack.cache.dirty_keys_of(inode.ino)
        )
        if self.platform != "darwin":
            if not self._advance(self.stack.BARRIER_LATENCY):
                yield Delay(self.stack.BARRIER_LATENCY)
        return 0, None

    def full_fsync(self, tid, fd):
        """Darwin's fcntl(F_FULLFSYNC): flush all the way to media."""
        return self._fsync(tid, fd, full=True)

    def _fsync(self, tid, fd, full):
        open_file = self._file_of(fd, kinds=("file", "dir"))
        inode = self.table.get(open_file.ino)
        if full:
            yield from self.stack.fsync(tid, inode.ino, size=inode.size)
        else:
            # Darwin fsync: write dirty pages to the device's volatile
            # cache, without the barrier / journal commit.
            yield from self.stack._flush_keys(
                tid, self.stack.cache.dirty_keys_of(inode.ino)
            )
        return 0, None

    def sync(self, tid):
        yield from self.stack.sync_all(tid)
        return 0, None

    # ------------------------------------------------------------------
    # metadata reads
    # ------------------------------------------------------------------

    def stat(self, tid, path):
        return self._stat(tid, path, follow=True)

    def lstat(self, tid, path):
        return self._stat(tid, path, follow=False)

    def _stat(self, tid, path, follow):
        res = yield from self._resolve(tid, path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return StatResult(res.inode), None

    def fstat(self, tid, fd):
        open_file = self.fdt.get(fd)
        if open_file.kind.startswith("pipe"):
            if not self._advance(self._meta_cpu):
                yield self.stack.meta_delay
            fake = self.table.alloc(FileType.FIFO)
            self.table.free(fake.ino)
            return StatResult(fake), None
        inode = self.table.get(open_file.ino)
        yield from self.stack.meta_read(tid, inode.ino)
        return StatResult(inode), None

    def access(self, tid, path, mode=0):
        res = yield from self._resolve(tid, path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return 0, None

    def readlink(self, tid, path):
        res = yield from self._resolve(tid, path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if not res.inode.is_symlink:
            raise VfsError(Errno.EINVAL)
        return res.inode.symlink_target, None

    def getdents(self, tid, fd):
        open_file = self._file_of(fd, kinds=("dir",))
        inode = self.table.get(open_file.ino)
        yield from self.stack.meta_read(tid, inode.ino)
        return sorted(inode.children), None

    def statfs(self, tid, path):
        res = yield from self._resolve(tid, path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return {"type": self.stack.profile.name, "bfree": 1 << 30}, None

    def fstatfs(self, tid, fd):
        self.fdt.get(fd)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return {"type": self.stack.profile.name, "bfree": 1 << 30}, None

    # ------------------------------------------------------------------
    # namespace changes
    # ------------------------------------------------------------------

    def mkdir(self, tid, path, mode=0o755):
        res = yield from self._resolve(tid, path, follow_last=False)
        if res.inode is not None or res.name is None:
            raise VfsError(Errno.EEXIST)
        child = self.table.alloc(FileType.DIR, mode)
        yield from self.stack.namespace_op(tid, child.ino, desc=("mkdir", path))
        res = self._fresh(path, follow_last=False)
        if res.inode is not None or res.name is None:
            raise VfsError(Errno.EEXIST)
        child.parent = res.parent.ino
        res.parent.children[res.name] = child.ino
        res.parent.nlink += 1
        self._ns_changed(child)
        return 0, None

    def rmdir(self, tid, path):
        res = yield from self._resolve(tid, path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if not res.inode.is_dir:
            raise VfsError(Errno.ENOTDIR)
        if res.inode.children:
            raise VfsError(Errno.ENOTEMPTY)
        if res.name is None:
            raise VfsError(Errno.EINVAL)
        yield from self.stack.namespace_op(tid, None, desc=("rmdir", path))
        res = self._fresh(path, follow_last=False)
        if res.inode is None or not res.inode.is_dir or res.inode.children:
            raise VfsError(Errno.ENOENT if res.inode is None else Errno.ENOTEMPTY)
        del res.parent.children[res.name]
        res.parent.nlink -= 1
        self._ns_changed(res.inode)
        self.table.free(res.inode.ino)
        return 0, None

    def unlink(self, tid, path):
        res = yield from self._resolve(tid, path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            raise VfsError(Errno.EISDIR)
        victim = res.inode
        yield from self.stack.namespace_op(
            tid, None,
            desc=("unlink", path, victim.ftype, victim.size,
                  victim.symlink_target if victim.is_symlink else None),
        )
        res = self._fresh(path, follow_last=False)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            raise VfsError(Errno.EISDIR)
        del res.parent.children[res.name]
        res.inode.nlink -= 1
        self._ns_changed(res.inode)
        self._maybe_free(res.inode)
        return 0, None

    def rename(self, tid, old, new):
        src = yield from self._resolve(tid, old, follow_last=False)
        if src.inode is None:
            raise VfsError(Errno.ENOENT)
        dst = yield from self._resolve(tid, new, follow_last=False)
        # Charge the journaled namespace change, then perform the whole
        # check-and-swap atomically at the return point on fresh state.
        yield from self.stack.namespace_op(
            tid, src.inode.ino, desc=("rename", old, new)
        )
        src = self._fresh(old, follow_last=False)
        if src.inode is None:
            raise VfsError(Errno.ENOENT)
        dst = self._fresh(new, follow_last=False)
        if dst.name is None and dst.inode is not src.inode:
            raise VfsError(Errno.EEXIST)
        if src.inode.is_dir:
            # Reject moving a directory into its own subtree.
            probe = dst.parent
            while probe is not src.inode:
                if probe.parent == probe.ino:
                    break  # reached the root
                probe = self.table.get(probe.parent)
            else:
                raise VfsError(Errno.EINVAL)
        if dst.inode is not None:
            if dst.inode is src.inode:
                if not self._advance(self._meta_cpu):
                    yield self.stack.meta_delay
                return 0, None
            # The displaced dentry is rebound in place below.
            if dst.inode.is_dir:
                if not src.inode.is_dir:
                    raise VfsError(Errno.EISDIR)
                if dst.inode.children:
                    raise VfsError(Errno.ENOTEMPTY)
                dst.parent.nlink -= 1
                self.table.free(dst.inode.ino)
            else:
                if src.inode.is_dir:
                    raise VfsError(Errno.ENOTDIR)
                dst.inode.nlink -= 1
                self._maybe_free(dst.inode)
        del src.parent.children[src.name]
        dst.parent.children[dst.name] = src.inode.ino
        if src.inode.is_dir:
            src.inode.parent = dst.parent.ino
            if src.parent is not dst.parent:
                src.parent.nlink -= 1
                dst.parent.nlink += 1
        # Both the dentry that moved and the one it replaced, if any.
        self._ns_changed(src.inode, dst.inode or src.inode)
        return 0, None

    def link(self, tid, target, path):
        src = yield from self._resolve(tid, target)
        if src.inode is None:
            raise VfsError(Errno.ENOENT)
        if src.inode.is_dir:
            raise VfsError(Errno.EPERM)
        dst = yield from self._resolve(tid, path, follow_last=False)
        yield from self.stack.namespace_op(tid, src.inode.ino, desc=("link", path))
        # All yields done; link atomically at the return point.
        src = self._fresh(target)
        if src.inode is None:
            raise VfsError(Errno.ENOENT)
        dst = self._fresh(path, follow_last=False)
        if dst.inode is not None:
            raise VfsError(Errno.EEXIST)
        dst.parent.children[dst.name] = src.inode.ino
        src.inode.nlink += 1
        self._ns_changed(src.inode)
        return 0, None

    def symlink(self, tid, target, path):
        dst = yield from self._resolve(tid, path, follow_last=False)
        if dst.inode is not None:
            raise VfsError(Errno.EEXIST)
        child = self.table.alloc(FileType.SYMLINK, 0o777)
        child.symlink_target = target
        child.size = len(target)
        yield from self.stack.namespace_op(
            tid, child.ino, desc=("symlink", path, target)
        )
        dst = self._fresh(path, follow_last=False)
        if dst.inode is not None:
            raise VfsError(Errno.EEXIST)
        dst.parent.children[dst.name] = child.ino
        self._ns_changed(child)
        return 0, None

    def truncate(self, tid, path, length):
        res = yield from self._resolve(tid, path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if res.inode.is_dir:
            raise VfsError(Errno.EISDIR)
        yield from self._do_truncate(tid, res.inode, length)
        return 0, None

    def ftruncate(self, tid, fd, length):
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        yield from self._do_truncate(tid, inode, length)
        return 0, None

    def _do_truncate(self, tid, inode, length):
        if length < 0:
            raise VfsError(Errno.EINVAL)
        inode.size = length
        inode.mtime = self.engine.now
        yield from self.stack.namespace_op(tid, inode.ino)

    def chmod(self, tid, path, mode):
        res = yield from self._resolve(tid, path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        res.inode.mode = mode
        yield from self.stack.namespace_op(tid, res.inode.ino)
        return 0, None

    def fchmod(self, tid, fd, mode):
        open_file = self.fdt.get(fd)
        if open_file.kind.startswith("pipe"):
            # No inode behind a pipe (see fstat): nothing to record.
            if not self._advance(self._meta_cpu):
                yield self.stack.meta_delay
            return 0, None
        self.table.get(open_file.ino).mode = mode
        yield from self.stack.namespace_op(tid, open_file.ino)
        return 0, None

    def chown(self, tid, path, uid=0, gid=0):
        return self._touch_path_meta(tid, path)

    def utimes(self, tid, path):
        return self._touch_path_meta(tid, path)

    def _touch_path_meta(self, tid, path):
        res = yield from self._resolve(tid, path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        yield from self.stack.namespace_op(tid, res.inode.ino)
        return 0, None

    def futimes(self, tid, fd):
        open_file = self.fdt.get(fd)
        yield from self.stack.namespace_op(tid, open_file.ino)
        return 0, None

    def chdir(self, tid, path):
        res = yield from self._resolve(tid, path)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if not res.inode.is_dir:
            raise VfsError(Errno.ENOTDIR)
        self.cwd = res.inode.ino
        return 0, None

    def fchdir(self, tid, fd):
        open_file = self.fdt.get(fd)
        if open_file.kind != "dir":
            # A regular file would become a cwd no walk can start from;
            # a pipe has no inode at all.
            raise VfsError(Errno.ENOTDIR)
        self.cwd = open_file.ino
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return 0, None

    def getcwd(self, tid):
        return self._trivial("/")

    # ------------------------------------------------------------------
    # hints and allocation
    # ------------------------------------------------------------------

    def fadvise(self, tid, fd, offset, length, advice="willneed"):
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        # Kick off asynchronous readahead of the advised range.
        span = min(length or inode.size, 1 << 20)
        if span > 0 and inode.is_reg:
            from repro.storage.alloc import bytes_to_blocks

            first, nblocks = bytes_to_blocks(offset, span)
            cache = self.stack.cache
            blocks = cache.absent(inode.ino, first, first + nblocks)
            cache.insert_run(inode.ino, blocks, dirty=False)
            for lba, run, _block in self.stack._runs(inode.ino, blocks):
                self.stack.submit(tid, lba, run, is_write=False)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return 0, None

    def fallocate(self, tid, fd, offset, length):
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        from repro.storage.alloc import bytes_to_blocks

        first, nblocks = bytes_to_blocks(offset, length)
        self.stack.alloc.ensure_blocks(inode.ino, first + nblocks)
        inode.size = max(inode.size, offset + length)
        yield from self.stack.namespace_op(tid, inode.ino)
        return 0, None

    def flock(self, tid, fd, op=0):
        self.fdt.get(fd)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return 0, None

    def mmap(self, tid, fd, offset, length):
        if fd == -1:  # anonymous mapping
            if not self._advance(self._meta_cpu):
                yield self.stack.meta_delay
            return 0x7F0000000000, None
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        # Model the fault-in of the mapped region as a read.
        span = max(0, min(length, inode.size - offset))
        if span and inode.is_reg:
            yield from self.stack.read(tid, inode.ino, offset, span)
        return 0x7F0000000000 + inode.ino, None

    def munmap(self, tid, addr, length):
        return self._trivial()

    def msync(self, tid, addr, length):
        return self._trivial()

    def _trivial(self, value=0):
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return value, None

    # ------------------------------------------------------------------
    # pipes and shared memory
    # ------------------------------------------------------------------

    def pipe(self, tid):
        read_end = self.fdt.alloc(OpenFile(None, F.O_RDONLY, kind="pipe_r"))
        write_end = self.fdt.alloc(OpenFile(None, F.O_WRONLY, kind="pipe_w"))
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return (read_end, write_end), None

    def shm_open(self, tid, name, flags=F.O_RDWR | F.O_CREAT, mode=0o600):
        path = "/dev/shm/" + name.lstrip("/")
        return self.open(tid, path, flags, mode)

    def shm_unlink(self, tid, name):
        path = "/dev/shm/" + name.lstrip("/")
        return self.unlink(tid, path)

    # ------------------------------------------------------------------
    # extended attributes
    # ------------------------------------------------------------------

    def getxattr(self, tid, path, name, follow=True):
        res = yield from self._resolve(tid, path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return self._xattr_get(res.inode, name)

    def fgetxattr(self, tid, fd, name):
        open_file = self._file_of(fd, kinds=("file", "dir"))
        yield from self.stack.meta_read(tid, open_file.ino)
        return self._xattr_get(self.table.get(open_file.ino), name)

    def _xattr_get(self, inode, name):
        if name not in inode.xattrs:
            return -1, self._xattr_missing_errno()
        return inode.xattrs[name], None

    def setxattr(self, tid, path, name, size=16, follow=True):
        res = yield from self._resolve(tid, path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        res.inode.xattrs[name] = size
        yield from self.stack.namespace_op(tid, res.inode.ino)
        return 0, None

    def fsetxattr(self, tid, fd, name, size=16):
        open_file = self._file_of(fd, kinds=("file", "dir"))
        self.table.get(open_file.ino).xattrs[name] = size
        yield from self.stack.namespace_op(tid, open_file.ino)
        return 0, None

    def listxattr(self, tid, path, follow=True):
        res = yield from self._resolve(tid, path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return sorted(res.inode.xattrs), None

    def flistxattr(self, tid, fd):
        open_file = self._file_of(fd, kinds=("file", "dir"))
        yield from self.stack.meta_read(tid, open_file.ino)
        return sorted(self.table.get(open_file.ino).xattrs), None

    def removexattr(self, tid, path, name, follow=True):
        res = yield from self._resolve(tid, path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        if name not in res.inode.xattrs:
            return -1, self._xattr_missing_errno()
        del res.inode.xattrs[name]
        yield from self.stack.namespace_op(tid, res.inode.ino)
        return 0, None

    def fremovexattr(self, tid, fd, name):
        open_file = self._file_of(fd, kinds=("file", "dir"))
        inode = self.table.get(open_file.ino)
        if name not in inode.xattrs:
            if not self._advance(self._meta_cpu):
                yield self.stack.meta_delay
            return -1, self._xattr_missing_errno()
        del inode.xattrs[name]
        yield from self.stack.namespace_op(tid, open_file.ino)
        return 0, None

    # ------------------------------------------------------------------
    # Darwin-specific primitives
    # ------------------------------------------------------------------

    def exchangedata(self, tid, path1, path2):
        """Darwin's atomic data-fork swap: each file's inode ends up
        pointing at the other file's data, metadata preserved."""
        a = yield from self._resolve(tid, path1)
        b = yield from self._resolve(tid, path2)
        if a.inode is None or b.inode is None:
            raise VfsError(Errno.ENOENT)
        if not (a.inode.is_reg and b.inode.is_reg):
            raise VfsError(Errno.EINVAL)
        a.inode.size, b.inode.size = b.inode.size, a.inode.size
        yield from self.stack.namespace_op(tid, a.inode.ino)
        yield from self.stack.namespace_op(tid, b.inode.ino)
        return 0, None

    def getattrlist(self, tid, path, follow=True):
        """Darwin bulk-metadata read; modeled as a stat-family call."""
        res = yield from self._resolve(tid, path, follow_last=follow)
        if res.inode is None:
            raise VfsError(Errno.ENOENT)
        return StatResult(res.inode), None

    def setattrlist(self, tid, path, follow=True):
        return self._touch_path_meta(tid, path)

    # ------------------------------------------------------------------
    # asynchronous I/O
    # ------------------------------------------------------------------

    def aio_submit(self, tid, cb_id, fd, nbytes, offset, is_write):
        open_file = self._file_of(fd)
        inode = self.table.get(open_file.ino)
        from repro.sim.events import Event

        done = Event()
        block = AioControlBlock(cb_id, fd, nbytes, offset, is_write, done)
        self._aiocbs[cb_id] = block

        def _runner():
            if is_write:
                yield from self.stack.write(tid, inode.ino, offset, nbytes)
                inode.size = max(inode.size, offset + nbytes)
                block.result = nbytes
            else:
                span = max(0, min(nbytes, inode.size - offset))
                if span:
                    yield from self.stack.read(tid, inode.ino, offset, span)
                block.result = span
            block.status = None  # 0 / success
            done.set(block.result)

        self.engine.spawn(_runner(), name="aio-%s" % (cb_id,))
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        return 0, None

    def lio_listio(self, tid, ops):
        """Submit ``(cb_id, fd, nbytes, offset, is_write)`` requests in
        order; the first one refused raises out of the call."""
        for cb_id, fd, nbytes, offset, is_write in ops:
            yield from self.aio_submit(tid, cb_id, fd, nbytes, offset, is_write)
        return 0, None

    def aio_error(self, tid, cb_id):
        block = self._aiocbs.get(cb_id)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        if block is None:
            return -1, Errno.EINVAL
        if block.status == Errno.EINPROGRESS:
            return Errno.EINPROGRESS, None
        return 0, None

    def aio_return(self, tid, cb_id):
        block = self._aiocbs.pop(cb_id, None)
        if not self._advance(self._meta_cpu):
            yield self.stack.meta_delay
        if block is None:
            return -1, Errno.EINVAL
        return (block.result if block.result is not None else -1), None

    def aio_suspend(self, tid, cb_ids):
        for cb_id in cb_ids:
            block = self._aiocbs.get(cb_id)
            if block is not None and block.status == Errno.EINPROGRESS:
                yield block.done
        return 0, None
