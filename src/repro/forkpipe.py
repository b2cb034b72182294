"""Forked children that answer over a pipe: the one piece of process
plumbing the shard core's workers and the live follow's compile
process share.

:func:`fork_child` forks a child that runs ``body(wfd)`` and then
leaves with ``os._exit`` -- it never unwinds into the forked copy of
the caller (pytest, the CLI) -- and hands the parent a
:class:`Receiver` on the pipe.  Messages are pickles behind a 4-byte
length (:func:`send`), so one pipe carries a single payload or a
stream of them.  :func:`reap` waits for the child, killing it first
when asked.  :func:`leave_cpu` moves a streaming child off the CPU it
was forked on.
"""

import fcntl
import os
import pickle
import select
import signal
import struct

_LENGTH = struct.Struct("<I")

#: Bytes asked of the pipe per read: the default Linux pipe capacity.
_READ = 1 << 16


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def send(fd, obj):
    """Write ``obj`` as one length-prefixed pickle.  Blocks while the
    pipe is full; a reader that is gone raises ``BrokenPipeError``."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _write_all(fd, _LENGTH.pack(len(blob)) + blob)


class Receiver(object):
    """The parent's end of a child's pipe, message by message."""

    def __init__(self, fd):
        self.fd = fd
        self._buffer = bytearray()

    def _whole(self):
        buffer = self._buffer
        return (
            len(buffer) >= _LENGTH.size
            and len(buffer) >= _LENGTH.size + _LENGTH.unpack_from(buffer)[0]
        )

    def ready(self):
        """Whether :meth:`get` has a message at hand, or the child has
        started writing one (so :meth:`get` waits on the child, never
        on what the child itself waits for)."""
        return self._whole() or bool(select.select([self.fd], [], [], 0)[0])

    def get(self):
        """The next message, waiting for it; ``EOFError`` once the
        child closed the pipe without sending one."""
        buffer = self._buffer
        while not self._whole():
            chunk = os.read(self.fd, _READ)
            if not chunk:
                raise EOFError("the child closed its pipe")
            buffer += chunk
        end = _LENGTH.size + _LENGTH.unpack_from(buffer)[0]
        obj = pickle.loads(buffer[_LENGTH.size:end])
        del buffer[:end]
        return obj

    def close(self):
        os.close(self.fd)


def fork_child(body, close=(), capacity=None):
    """Fork a child that closes the descriptors ``close`` (inherited
    ends of earlier children's pipes), runs ``body(wfd)`` and exits:
    0 when ``body`` returned, 1 when it raised.  ``capacity`` asks the
    kernel for a pipe of that many bytes (how far a streaming child may
    run ahead of its reader; the system's limit wins).  Returns
    ``(pid, receiver)`` in the parent."""
    rfd, wfd = os.pipe()
    if capacity is not None and hasattr(fcntl, "F_SETPIPE_SZ"):
        try:
            fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, capacity)
        except OSError:
            pass  # above the system's limit: keep the default size
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            for fd in close:
                os.close(fd)
            body(wfd)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, Receiver(rfd)


def leave_cpu():
    """Move the calling process off the CPU it runs on, then give it
    back its affinity mask (a no-op without Linux's ``/proc`` and
    affinity calls, or with one CPU allowed).

    Linux starts a forked child on its parent's CPU, and a pipe write
    wakes the blocked reader on the writer's CPU, so a child streaming
    to a parent that waits on it shares one CPU with the parent while
    the others idle: on a 2-vCPU VM both stayed on CPU 0 for every
    batch of a live follow.  After one move each keeps its own CPU, and
    the scheduler is still free to balance them."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open("/proc/self/stat") as handle:
            # Field 39 (processor), counted past the command's ")".
            here = int(handle.read().rsplit(")", 1)[1].split()[36])
        mask = os.sched_getaffinity(0)
        if mask - {here}:
            os.sched_setaffinity(0, mask - {here})
            os.sched_setaffinity(0, mask)
    except (OSError, ValueError, IndexError):
        pass  # no /proc, or a mask the system refuses: stay put


def reap(pid, kill=False):
    """Wait for child ``pid`` (after ``SIGKILL`` when ``kill``) and
    return its wait status."""
    if kill:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return os.waitpid(pid, 0)[1]
