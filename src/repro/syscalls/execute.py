"""One call table for every registered call.

Which file-system call a system call makes, with which values, is
stated once, as data, in the *binding* of its kind's registry row
(:mod:`repro.syscalls.registry`): the
:class:`~repro.vfs.filesystem.FileSystem` method it runs and where that
method's arguments come from in the normalized argument dict
(:data:`HANDLERS` is the kind -> binding view).  This module compiles
the bindings; :func:`bind` reads them -- ``(method, argv, kwargs)`` --
and :func:`perform` makes the call.  The same table serves two
situations:

1. *Live workloads* being traced (args are real values); and
2. *Replay* of compiled benchmarks (fd/aiocb args already translated
   through the replay's descriptor slots by the replayer).

Using a single table guarantees that replayed calls have exactly the
semantics of traced calls.  Every consumer reads it: the tracer and the
dynamic replay kernel through :func:`perform`, abstract replay the same
way on a null machine, and the execution-plan IR
(:mod:`repro.artc.planir`) binds each step once when a plan entry is
built, so the precompiled kernel calls the file system directly and the
JIT writes the bound call out as source.  Every bound method is the
op's own generator: it returns ``(retval, None)`` or raises one of
``FileSystem.FAILURES``, which the driver running it converts with
``FileSystem.failed`` into ``(-1, errno)``.
"""

from repro.errors import ReplayError
from repro.syscalls.registry import KINDS, Const, Flags, Row, spec_for
from repro.vfs import flags as F


def flags_of(args, default=0):
    """The numeric open flags of a call (traces carry them as text);
    ``default`` when the call names none."""
    value = args.get("flags", default)
    if isinstance(value, str):
        value = F.parse_flags(value)
    return value


#: Kind -> its binding: a :class:`Row` (with :class:`Flags` and
#: :class:`Const` parameters) or a function ``args -> (method, argv,
#: kwargs)``, as its registry row states it.
HANDLERS = {kind: spec.binding for kind, spec in KINDS.items()}


def _compile(kinds):
    """The rows' two binder maps: kind -> ``args -> (method, argv,
    kwargs)`` and, for the kinds that pass a top-level ``fd`` on, kind
    -> ``args -> (method, head, tail, kwargs)`` with ``argv`` split
    around it.  A data row becomes one expression in one frame -- what
    an argument-unpacking shim would cost -- because every plan entry
    built (artifact save and load, each ``--follow`` feed) binds once.
    A function binding that takes an ``fd`` passes it first."""
    whole, around_fd = {}, {}
    for kind, spec in kinds.items():
        entry = spec.binding
        if not isinstance(entry, Row):
            whole[kind] = entry
            if "fd" in spec.args:
                around_fd[kind] = _fd_first(entry)
            continue
        terms, fd_at = [], None
        for param in entry.params:
            if isinstance(param, str):
                terms.append("args[%r], " % param)
            elif isinstance(param, Flags):
                terms.append("flags_of(args, %r), " % param.default)
            elif isinstance(param, Const):
                terms.append("%r, " % (param.value,))
            else:
                terms.append("args.get(%r, %r), " % param)
            if param == "fd" or (type(param) is tuple and param[0] == "fd"):
                fd_at = len(terms) - 1
        scope = {"method": entry.method, "kwargs": entry.kwargs, "flags_of": flags_of}
        whole[kind] = eval(
            "lambda args: (method, (%s), kwargs)" % "".join(terms), scope
        )
        if fd_at is not None:
            around_fd[kind] = eval(
                "lambda args: (method, (%s), (%s), kwargs)"
                % ("".join(terms[:fd_at]), "".join(terms[fd_at + 1:])),
                scope,
            )
    return whole, around_fd


def _fd_first(binder):
    def around_fd(args):
        method, argv, kwargs = binder(args)
        return method, (), argv[1:], kwargs

    return around_fd


#: The compiled rows: kind -> binder.  ``BIND[kind](args)`` is
#: :func:`bind`; ``BIND_AROUND_FD[kind](args)`` is the same call with
#: ``argv`` split around its top-level ``fd`` argument -- ``(method,
#: head, tail, kwargs)``, to be run as ``fs.<method>(tid, *head, fd,
#: *tail, **kwargs)`` -- for a caller that supplies the descriptor at
#: issue time (the plan IR's fd remap); a kind that passes no ``fd`` on
#: is absent from it.
BIND, BIND_AROUND_FD = _compile(KINDS)


def bind(kind, args):
    """The call a system call of ``kind`` with normalized ``args``
    makes: ``(method, argv, kwargs)``, to be run as
    ``fs.<method>(tid, *argv, **kwargs)``.  Values in ``argv`` are the
    very objects held by ``args``.  Raises ``KeyError`` naming a
    required argument that is missing."""
    return BIND[kind](args)


def perform(fs, tid, name, args):
    """Execute call ``name`` with normalized ``args`` on ``fs``: the bound op's
    own generator, which returns ``(retval, None)`` or raises one of
    ``FileSystem.FAILURES`` for the caller to convert.

    Arguments bind eagerly (before the returned generator first runs),
    so a malformed record -- a missing ``path``, ``fd``, ``nbytes``,
    ... -- surfaces here as a :class:`ReplayError` naming the call,
    never as a bare ``KeyError`` escaping the replay.  This is the one
    place that happens: a plan entry whose step does not bind is
    compiled ``dynamic`` and so arrives here too.
    """
    kind = spec_for(name).kind
    try:
        method, argv, kwargs = BIND[kind](args)
    except KeyError as exc:
        if kind not in HANDLERS:
            raise ReplayError(
                "no handler for syscall kind %r (%s)" % (kind, name)
            ) from None
        raise ReplayError(
            "syscall %s (kind %s) is missing argument %s; got %r"
            % (name, kind, exc, sorted(args))
        ) from exc
    return getattr(fs, method)(tid, *argv, **kwargs)
