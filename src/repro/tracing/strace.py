"""An strace-compatible text format.

Emits and parses lines in the style of ``strace -f -ttt -T``::

    1001 5.002419 open("/a/b/c", O_RDWR|O_CREAT, 0644) = 3 <0.000210>
    1002 5.002933 read(4, 4096) = 4096 <0.004001>
    1001 5.010022 stat("/a/gone") = -1 ENOENT <0.000005>

Arguments are rendered positionally following each call's registry
spec, so the format round-trips through :func:`dumps`/:func:`loads`.
Buffer pointers are omitted (ARTC ignores them too); ``read``'s second
argument is the byte count.
"""

import json

from repro.errors import TraceParseError, UnsupportedSyscallError
from repro.syscalls.registry import spec_for
from repro.tracing.trace import ParseWarnings, Trace, TraceRecord, split_args

_STRING_ARGS = frozenset(
    ["path", "old", "new", "target", "name", "xname", "path1", "path2", "aiocb"]
)
_SYMBOL_ARGS = frozenset(["cmd", "advice", "flags", "whence"])


def _render_value(name, value):
    if value is None:
        return "NULL"
    if name in _STRING_ARGS and isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _render_args(record):
    spec = spec_for(record.name)
    parts = []
    for arg_name in spec.args:
        if arg_name not in record.args:
            break
        parts.append(_render_value(arg_name, record.args[arg_name]))
    return ", ".join(parts)


def dumps(trace):
    roster = trace.thread_roster if trace.thread_roster is not None else trace.threads
    lines = [
        "# repro-strace-v1 platform=%s label=%s threads=%s"
        % (trace.platform, trace.label, json.dumps(roster, separators=(",", ":")))
    ]
    for record in trace.records:
        ret = json.dumps(record.ret, separators=(",", ":")) if record.ok else "-1"
        err = "" if record.ok else " %s" % record.err
        lines.append(
            "%s %.6f %s(%s) = %s%s <%.6f>"
            % (
                record.tid,
                record.t_enter,
                record.name,
                _render_args(record),
                ret,
                err,
                record.duration,
            )
        )
    return "\n".join(lines) + "\n"


def _parse_value(name, token):
    if token == "NULL":
        return None
    if token.startswith('"') or token.startswith("[") or token.startswith("{"):
        return json.loads(token)
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token  # symbolic: flags, fcntl command, errno...


def _scan_call(text, line_number, line):
    """Split ``name(args) = ret [ERR] <dur>`` into its pieces."""
    open_paren = text.find("(")
    if open_paren < 0:
        raise TraceParseError("missing '(' in call", line_number, line)
    name = text[:open_paren]
    depth = 0
    in_string = False
    escaped = False
    for index in range(open_paren, len(text)):
        char = text[index]
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return name, text[open_paren + 1 : index], text[index + 1 :]
    raise TraceParseError("unbalanced parentheses", line_number, line)


def parse_header_line(line, into):
    """Apply one ``#`` header line's tokens to the dict ``into``
    (keys: platform, label, thread_roster)."""
    for token in line[1:].split():
        if token.startswith("platform="):
            into["platform"] = token.split("=", 1)[1]
        elif token.startswith("label="):
            into["label"] = token.split("=", 1)[1]
        elif token.startswith("threads="):
            try:
                into["thread_roster"] = list(json.loads(token.split("=", 1)[1]))
            except ValueError:
                pass  # an unreadable roster only disables pipelining


def _parse_body(line, idx):
    """Parse one record line (no location info -- the caller attaches
    line number and byte offset).  Raises TraceParseError on malformed
    structure, UnsupportedSyscallError on unknown calls."""
    try:
        tid_text, ts_text, rest = line.split(None, 2)
    except ValueError:
        raise TraceParseError("too few fields", line=line) from None
    name, args_text, tail = _scan_call(rest, None, line)
    tail = tail.strip()
    if not tail.startswith("="):
        raise TraceParseError("missing '=' result", line=line)
    tail = tail[1:].strip()
    if not tail.endswith(">"):
        raise TraceParseError("missing <duration>", line=line)
    body, _, dur_text = tail.rpartition("<")
    try:
        duration = float(dur_text[:-1])
    except ValueError:
        raise TraceParseError(
            "bad duration %r" % dur_text[:-1], line=line
        ) from None
    body = body.strip()
    pieces = body.split()
    err = None
    if len(pieces) >= 2 and pieces[-1].isupper():
        err = pieces[-1]
        ret_text = " ".join(pieces[:-1])
    else:
        ret_text = body
    try:
        ret = _parse_value("ret", ret_text)
    except ValueError:
        raise TraceParseError("bad return value %r" % ret_text, line=line) from None
    spec = spec_for(name)
    args = {}
    try:
        for arg_name, token in zip(spec.args, split_args(args_text)):
            args[arg_name] = _parse_value(arg_name, token)
    except ValueError:
        raise TraceParseError("bad argument list %r" % args_text, line=line) from None
    tid = int(tid_text) if tid_text.isdigit() else tid_text
    try:
        t_enter = float(ts_text)
    except ValueError:
        raise TraceParseError("bad timestamp %r" % ts_text, line=line) from None
    return TraceRecord(idx, tid, name, args, ret, err, t_enter, t_enter + duration)


def parse_line(line, fallback_idx):
    """Tolerant single-line parse: ``(TraceRecord, None)`` on success,
    ``(None, failure_kind)`` on garbage.  Shared by the tolerant batch
    loader and the streaming tailer."""
    try:
        return _parse_body(line, fallback_idx), None
    except UnsupportedSyscallError:
        return None, "unsupported-call"
    except TraceParseError:
        return None, "bad-line"


def loads(text, tolerant=False, warnings=None):
    """Parse strace-format text.

    Strict mode (the default) raises a single actionable
    :class:`~repro.errors.TraceError` with line number and byte offset
    on the first malformed line; tolerant mode skips garbage with one
    deduped :class:`~repro.tracing.trace.ParseWarnings` entry per kind.
    """
    if tolerant and warnings is None:
        warnings = ParseWarnings()
    head = {"platform": "linux", "label": "", "thread_roster": None}
    records = []
    offset = 0
    for line_number, raw in enumerate(text.splitlines(True), 1):
        line = raw.strip()
        line_offset = offset
        offset += len(raw.encode("utf-8")) if isinstance(raw, str) else len(raw)
        if not line:
            continue
        if line.startswith("#"):
            parse_header_line(line, head)
            continue
        if tolerant:
            record, kind = parse_line(line, len(records))
            if record is None:
                warnings.warn(kind, line_number, line_offset, line[:120])
                continue
            records.append(record)
            continue
        try:
            records.append(_parse_body(line, len(records)))
        except UnsupportedSyscallError:
            raise
        except TraceParseError as exc:
            raise TraceParseError(
                str(exc), line_number, line, line_offset
            ) from None
    return Trace(
        records,
        platform=head["platform"],
        label=head["label"],
        thread_roster=head["thread_roster"],
    )


def save(trace, path):
    with open(path, "w") as handle:
        handle.write(dumps(trace))


def load(path):
    with open(path) as handle:
        return loads(handle.read())
