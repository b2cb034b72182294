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
descriptors are kept.  The normalized records are the same as those of
the other formats, so iBench-style traces feed the same compiler.
"""

from repro.errors import TraceParseError
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


def _layout(spec):
    """The names of a call's raw positional arguments."""
    if spec.category == "aio":
        return ()  # one opaque control-block pointer: no fields
    return _RAW_LAYOUT.get(spec.kind, spec.args)


def _value(token, arg_name):
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"')
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
    ret_parts = ret_text.strip().split()
    err = None
    if len(ret_parts) >= 2 and ret_parts[1].isupper():
        err = ret_parts[1]
    try:
        ret = int(ret_parts[0], 0) if ret_parts else 0
    except ValueError:
        ret = ret_parts[0]
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


def dumps(trace):
    """Emit a trace in the iBench dtrace layout."""
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
                else:
                    raw.append(str(value))
        if record.ok:
            ret_text = str(record.ret if isinstance(record.ret, int) else 0)
        else:
            ret_text = "-1 %s" % record.err
        lines.append(
            "\t".join(
                [
                    str(int(record.t_enter * 1e6)),
                    str(int(record.duration * 1e6)),
                    str(record.tid),
                    record.name,
                    ", ".join(raw),
                    ret_text,
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
