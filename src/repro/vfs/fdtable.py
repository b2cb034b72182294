"""File descriptors and open-file descriptions.

As on a real kernel, ``dup`` shares one open-file description (and thus
one offset) between descriptors, while two independent ``open`` calls
on the same file get independent offsets.
"""

from repro.vfs.errnos import Errno, VfsError


class OpenFile(object):
    """An open-file description (struct file)."""

    __slots__ = ("ino", "offset", "flags", "kind", "refcount", "path")

    def __init__(self, ino, flags, kind="file", path=None):
        self.ino = ino
        self.offset = 0
        self.flags = flags
        self.kind = kind  # "file" | "dir" | "pipe_r" | "pipe_w"
        self.refcount = 1
        self.path = path  # the path it was opened by, for diagnostics

    def __repr__(self):
        return "<OpenFile ino=%s kind=%s off=%d>" % (self.ino, self.kind, self.offset)


class FDTable(object):
    FIRST_FD = 3  # 0-2 are the std streams, which traces rarely touch
    MAX_FDS = 65536

    def __init__(self):
        self._fds = {}
        # Every descriptor in [FIRST_FD, _hint) is open, so the probe
        # for the lowest free one may start there instead of walking
        # the open descriptors on every open/dup.
        self._hint = FDTable.FIRST_FD

    def alloc(self, open_file, lowest=None):
        fds = self._fds
        hint = self._hint
        fd = FDTable.FIRST_FD if lowest is None else lowest
        if FDTable.FIRST_FD <= fd < hint:
            fd = hint
        start = fd
        while fd in fds:
            fd += 1
        if fd >= FDTable.MAX_FDS:
            raise VfsError(Errno.EMFILE)
        fds[fd] = open_file
        if start <= hint <= fd:
            self._hint = fd + 1
        return fd

    def get(self, fd):
        try:
            return self._fds[fd]
        except KeyError:
            raise VfsError(Errno.EBADF) from None

    def dup(self, fd, lowest=None):
        open_file = self.get(fd)
        open_file.refcount += 1
        return self.alloc(open_file, lowest)

    def dup2(self, fd, newfd):
        open_file = self.get(fd)
        if newfd == fd:
            return newfd
        if newfd in self._fds:
            self.remove(newfd)
        open_file.refcount += 1
        self._fds[newfd] = open_file
        return newfd

    def remove(self, fd):
        """Drop ``fd``; returns the description if this was its last
        reference (the caller then releases the inode)."""
        open_file = self.get(fd)
        del self._fds[fd]
        if FDTable.FIRST_FD <= fd < self._hint:
            self._hint = fd
        open_file.refcount -= 1
        return open_file if open_file.refcount == 0 else None

    def open_fds(self):
        return sorted(self._fds)

    def __contains__(self, fd):
        return fd in self._fds

    def __len__(self):
        return len(self._fds)
