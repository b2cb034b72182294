"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package.

    Every error survives ``pickle`` (a forked compile process or shard
    worker sends its failure to the caller): a class whose ``__init__``
    does not take its own message back defines ``__reduce__``."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class ProcessCrashed(SimulationError):
    """A simulated process raised an unhandled exception."""

    def __init__(self, process_name, original):
        super().__init__(
            "simulated process %r crashed: %r" % (process_name, original)
        )
        self.process_name = process_name
        self.original = original

    def __reduce__(self):
        return (type(self), (self.process_name, self.original), self.__dict__)


class AbortSimulation(ReproError):
    """Control-flow base for exceptions that must unwind the whole
    simulation: the engine's process wrapper re-raises these unchanged
    (instead of wrapping them in :class:`ProcessCrashed`), so a single
    raise anywhere inside the event loop terminates ``engine.run``."""


class MachineCrashed(AbortSimulation):
    """The simulated machine lost power (``--crash-at``).

    Everything in volatile state -- dirty page cache, uncommitted
    journal entries, in-flight requests -- is gone; only what the
    durability tracker saw reach the platter survives.
    """

    def __init__(self, when):
        super().__init__("simulated machine crashed at t=%.6f" % (when,))
        self.when = when

    def __reduce__(self):
        return (type(self), (self.when,), self.__dict__)


class DeviceError(ReproError):
    """A block request failed at the device (injected EIO & friends).

    Carries the symbolic errno the VFS should surface; the storage
    stack raises it out of ``read``/``fsync`` paths and
    ``FileSystem._run`` converts it to ``(-1, errno)`` like any other
    failed call.
    """

    def __init__(self, errno="EIO", detail=""):
        message = "device error: %s" % errno
        if detail:
            message += " (%s)" % detail
        super().__init__(message)
        self.errno = errno
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.errno, self.detail), self.__dict__)


class TraceError(ReproError, ValueError):
    """A trace file is malformed.

    The single actionable parse error shared by the batch loaders and
    the streaming tailer: the message always carries the line number
    and byte offset of the offending line when they are known, so a
    producer-side bug can be located in the raw file directly.
    (Also a ``ValueError`` for callers that predate the hierarchy.)

    ``kind`` names the failure in a tolerant reader's
    :class:`~repro.tracing.trace.ParseWarnings`.
    """

    def __init__(self, message, line_number=None, line=None, byte_offset=None,
                 kind="bad-line"):
        location = ""
        if line_number is not None:
            location = " (line %d" % line_number
            if byte_offset is not None:
                location += ", byte %d" % byte_offset
            location += ")"
        elif byte_offset is not None:
            location = " (byte %d)" % byte_offset
        super().__init__(message + location)
        self.line_number = line_number
        self.line = line
        self.byte_offset = byte_offset
        self.kind = kind


class SnapshotError(ReproError):
    """An initial file-tree snapshot is malformed or inconsistent."""


class BenchmarkError(ReproError, ValueError):
    """A compiled benchmark file is malformed: the loader names the
    column it refuses.  (Also a ``ValueError`` for callers that predate
    the hierarchy.)"""


class CompileError(ReproError):
    """The ARTC compiler could not build a benchmark from a trace."""


class ReplayError(ReproError):
    """The ARTC replayer hit an unrecoverable condition."""


class ReplayAborted(AbortSimulation):
    """The hardened replayer's watchdog stopped a stalled replay.

    ``members`` carries the dependency-cycle action indices when the
    diagnosis found one (the same analysis as ``artc lint``'s graph
    pass); ``context`` is a free-form diagnosis dict (completed/pending
    counts, stalled threads, critical-path hint) for the report.
    """

    def __init__(self, message, members=None, context=None):
        super().__init__(message)
        self.members = list(members or [])
        self.context = dict(context or {})


class CycleError(ReproError):
    """A dependency graph that should be acyclic contains a cycle.

    ``members`` lists the action indices on one offending cycle, in
    edge order (each element depends on the previous; the last wraps
    around to the first).
    """

    def __init__(self, members, message=None):
        self.members = list(members)
        if message is None:
            message = "dependency graph contains a cycle: %s" % (
                " -> ".join(str(m) for m in self.members + self.members[:1])
            )
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.members, str(self)), self.__dict__)


class UnsupportedSyscallError(CompileError):
    """The trace contains a call the registry does not know about."""

    kind = "unsupported-call"  # as :attr:`TraceError.kind`

    def __init__(self, name):
        super().__init__("unsupported system call: %r" % (name,))
        self.name = name

    def __reduce__(self):
        return (type(self), (self.name,), self.__dict__)
