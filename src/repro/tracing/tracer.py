"""Passive tracing of live workloads.

:class:`TracedOS` is the facade simulated applications use to make
system calls.  With a trace attached it records every call (passively
-- timing is unperturbed, since recording costs no simulated time);
without one it is just the plain syscall interface, used for
ground-truth runs on target platforms.
"""

from repro.syscalls.execute import perform
from repro.tracing.trace import Trace, TraceRecord


def _jsonable(value):
    """Normalize return values for storage in a trace."""
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    # StatResult and friends: keep the interesting fields.
    if hasattr(value, "size") and hasattr(value, "ftype"):
        return {"ino": value.ino, "ftype": value.ftype, "size": value.size}
    return repr(value)


class TracedOS(object):
    """System-call interface for simulated applications."""

    def __init__(self, fs, trace=None):
        self.fs = fs
        self.trace = trace

    def start_tracing(self, label="", platform=None):
        self.trace = Trace(platform=platform or self.fs.platform, label=label)
        return self.trace

    def call(self, tid, name, /, **args):
        """Issue one system call; a generator returning (ret, errno).

        ``tid`` and ``name`` are positional-only so that calls whose
        argument is literally named ``name`` (shm_open) work."""
        fs = self.fs
        t_enter = fs.engine.now
        try:
            ret, err = yield from perform(fs, tid, name, args)
        except fs.FAILURES as exc:
            ret, err = yield from fs.failed(exc)
        t_return = fs.engine.now
        if self.trace is not None:
            self.trace.append(
                TraceRecord(
                    len(self.trace.records),
                    tid,
                    name,
                    dict(args),
                    _jsonable(ret),
                    err,
                    t_enter,
                    t_return,
                )
            )
        return ret, err
