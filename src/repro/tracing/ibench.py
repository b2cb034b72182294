"""The iBench dtrace trace format.

ARTC's second input format is "a special dtrace-generated format used
by the iBench traces" (section 4.3.1).  We model it as the tab-separated
layout iBench's dtrace scripts produce: one line per call with entry
timestamp (microseconds), elapsed microseconds, thread id, call name,
the raw argument list, and the return value/errno::

    1380000000123456\t85\t0x70000abc\topen\t"/Library/x.plist", 0x0, 0x1B6\t3
    1380000000123999\t12\t0x70000abc\tread\t0x3, 0x7fff5fbff000, 0x1000\t4096
    1380000000124500\t9\t0x70000def\tstat64\t"/missing"\t-1 ENOENT

Buffer pointers are parsed and discarded (ARTC ignores them); sizes and
descriptors are kept.  An aio call names its control block, then the
block's fields.  A return that is not an integer is JSON text.  The
normalized records are the same as those of the other formats, so
iBench-style traces feed the same compiler, and a trace at microsecond
precision survives :func:`dumps` then :func:`loads` whole.
"""

import json

from repro.errors import TraceError, TraceParseError
from repro.syscalls.registry import spec_for
from repro.tracing.trace import (
    TraceFormat, TraceRecord, read_trace, split_args, tid_value,
)

#: The raw dtrace argument order of the kinds where it is not the
#: registry's normalized order (``spec.args``).  ``None`` marks a
#: position to discard: a buffer pointer, mmap's addr/prot/flags.
_RAW_LAYOUT = {
    "read": ("fd", None, "nbytes"),
    "write": ("fd", None, "nbytes"),
    "pread": ("fd", None, "nbytes", "offset"),
    "pwrite": ("fd", None, "nbytes", "offset"),
    "mmap": (None, "length", None, None, "fd", "offset"),
}

_FLAG_ARGS = frozenset(["flags"])
_JSON_OPENERS = frozenset('"[{')


def _layout(spec):
    """The names of a call's raw positional arguments.  An aio call
    names its control block, then the block's fields."""
    return _RAW_LAYOUT.get(spec.kind, spec.args)


def _value(token, arg_name):
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"')
    if token[:1] in "[{":
        return json.loads(token)  # a list of control blocks or ops
    if arg_name in _FLAG_ARGS:
        if token.startswith("0x") or token.isdecimal():
            return _flags_text(int(token, 0))  # ValueError: ``0644``, ``0x``
        return token
    try:
        return int(token, 0)  # handles 0x..., 0o-style octal via int(,0)
    except ValueError:
        return token


def _flags_text(value):
    from repro.vfs.flags import format_flags

    return format_flags(value)


def _parse_line(line, idx):
    """One record of iBench dtrace text (the reader places errors)."""
    fields = line.split("\t")
    if len(fields) != 6:
        raise TraceParseError("expected 6 tab-separated fields, got %d" % len(fields))
    ts_text, elapsed_text, tid_text, name, raw_args, ret_text = fields
    spec = spec_for(name)  # raises UnsupportedSyscallError when unknown
    args = {}
    for arg_name, token in zip(_layout(spec), split_args(raw_args)):
        if arg_name is not None:
            try:
                args[arg_name] = _value(token, arg_name)
            except ValueError:
                raise TraceParseError("bad %s %r" % (arg_name, token)) from None
    ret, err = _ret_of(ret_text)
    try:
        t_enter = int(ts_text) / 1e6
        duration = int(elapsed_text) / 1e6
    except ValueError:
        raise TraceParseError(
            "bad time %r or elapsed %r" % (ts_text, elapsed_text)
        ) from None
    return TraceRecord(
        idx, tid_value(tid_text), name, args, ret, err, t_enter, t_enter + duration
    )


def _ret_of(text):
    """``(ret, err)`` of a return field: ``-1 ERRNO``, an integer, or
    JSON text (a return that is not an integer, as :func:`dumps`
    writes it)."""
    text = text.strip()
    if text[:1] in _JSON_OPENERS:
        try:
            return json.loads(text), None
        except ValueError:
            raise TraceParseError("bad return %r" % text) from None
    parts = text.split()
    err = parts[1] if len(parts) >= 2 and parts[1].isupper() else None
    try:
        ret = int(parts[0], 0) if parts else 0
    except ValueError:
        ret = parts[0]
    return ret, err


def _ret_text(record):
    """A record's return field, refused when reading it back would not
    give the record's ``(ret, err)``."""
    try:
        if record.ok:
            text = json.dumps(record.ret, separators=(",", ":"))
        else:
            text = "-1 %s" % record.err
        carried = _ret_of(text) == (record.ret, record.err)
    except (TypeError, ValueError):  # TraceParseError is a ValueError
        carried = False
    if not carried:
        raise TraceError(
            "record #%d (%s): return %r, error %r cannot be carried in "
            "iBench text" % (record.idx, record.name, record.ret, record.err)
        )
    return text


def dumps(trace):
    """Emit a trace in the iBench dtrace layout.  Times are whole
    microseconds, rounded: the entry time and the elapsed time, as
    strace text carries them."""
    lines = []
    for record in trace.records:
        raw = []
        for arg_name in _layout(spec_for(record.name)):
            if arg_name is None:
                raw.append("0x0")
            elif arg_name in record.args:
                value = record.args[arg_name]
                if isinstance(value, str) and arg_name not in _FLAG_ARGS:
                    raw.append('"%s"' % value.replace('"', '\\"'))
                elif isinstance(value, (list, dict)):
                    raw.append(json.dumps(value, separators=(",", ":")))
                else:
                    raw.append(str(value))
        lines.append(
            "\t".join(
                [
                    str(round(record.t_enter * 1e6)),
                    str(round(record.duration * 1e6)),
                    str(record.tid),
                    record.name,
                    ", ".join(raw),
                    _ret_text(record),
                ]
            )
        )
    return "\n".join(lines) + "\n"


FORMAT = TraceFormat(
    _parse_line, None, "#", None,
    {"platform": "darwin", "label": "", "thread_roster": None}, dumps,
)


def loads(text, label=""):
    """Parse iBench dtrace text into a :class:`Trace` (Darwin platform;
    strict: see :func:`~repro.tracing.trace.read_trace`)."""
    trace = read_trace(FORMAT, text)
    trace.label = label
    return trace


def load(path, label=""):
    with open(path) as handle:
        return loads(handle.read(), label=label)


def save(trace, path):
    with open(path, "w") as handle:
        handle.write(dumps(trace))
