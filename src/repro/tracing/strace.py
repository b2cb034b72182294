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
import re

from repro.errors import TraceParseError, UnsupportedSyscallError
from repro.syscalls.registry import REGISTRY, spec_for
from repro.tracing.trace import ParseWarnings, Trace, TraceRecord

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


#: ``tid timestamp name(`` -- the fields split on whitespace as
#: ``str.split`` would; the name is whatever precedes the first ``(``.
#: (Here and below no token may *start* with whitespace, so a failed
#: match never retries a run of blanks: garbage costs linear time.)
_HEAD = re.compile(r"\s*(\S+)\s+(\S+)\s+((?:[^\s(][^(]*)?)\(").match
#: One argument: a JSON opener (group 1, decoded by the caller), or a
#: bare token free of quotes and brackets (group 2) and its terminator.
_ARG = re.compile(
    r'\s*(?:(["\[{])|((?:[^\s,()\[\]{}"][^,()\[\]{}"]*)?)([,)]))'
).match
_AFTER_JSON_ARG = re.compile(r"\s*([,)])").match
#: What moves bracket depth: a whole string (to the end of the line when
#: unterminated), a bracket, a comma.
_STRUCTURE = re.compile(r'"(?:[^"\\]|\\.)*"?|[()\[\]{},]', re.S).finditer
_decode_json = json.JSONDecoder().raw_decode
_JSON_OPENERS = frozenset('"[{')
#: No number starts like this (``inf``/``nan`` may, in either case).
_SYMBOL_HEADS = frozenset("ABCDEFGHJKLMOPQRSTUVWXYZ_")


def _bare_value(token):
    if token[:1] in _SYMBOL_HEADS:
        return token  # symbolic: flags, fcntl command, whence...
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return None if token == "NULL" else token


def _split_rest(line, pos):
    """The general form of the argument walk, for what the one pass
    below cannot take: the text between top-level commas from ``pos``
    to the call's closing parenthesis, and the index after it.  The
    parenthesis closes the call when no other is open; a comma splits
    when every bracket of any kind is closed (``makedev(8, 1)`` is one
    argument).  ValueError when the line ends first."""
    parens = depth = 0
    pieces = []
    for match in _STRUCTURE(line, pos):
        char = match.group()
        if char == "(":
            parens += 1
            depth += 1
        elif char == ")":
            if not parens:
                pieces.append(line[pos : match.start()])
                return pieces, match.end()
            parens -= 1
            depth -= 1
        elif char == ",":
            if not depth:
                pieces.append(line[pos : match.start()])
                pos = match.end()
        elif char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
    raise ValueError("unbalanced parentheses")


def _piece_value(token):
    if token[:1] in _JSON_OPENERS:
        value, end = _decode_json(token, 0)
        if end != len(token):
            raise ValueError("text after a JSON argument")
        return value
    return _bare_value(token)


def _parse_args(line, pos, wanted):
    """Walk the argument list from just after ``name(``: the first
    ``wanted`` positional values (the registry names no more, and what
    it does not name is not read) and the index after the closing
    parenthesis.  ValueError on anything that is not a list of JSON
    values and bare tokens."""
    values = []
    while len(values) < wanted:
        arg = _ARG(line, pos)
        if arg is None:
            # A bare token holding brackets or quotes, or a line cut short.
            pieces, pos = _split_rest(line, pos)
            if not pieces[-1].strip():
                pieces.pop()
            for piece in pieces[: wanted - len(values)]:
                values.append(_piece_value(piece.strip()))
            return values, pos
        if arg.lastindex == 1:
            value, pos = _decode_json(line, arg.start(1))
            arg = _AFTER_JSON_ARG(line, pos)
            if arg is None:
                raise ValueError("text after a JSON argument")
            values.append(value)
            pos = arg.end()
            if arg.group(1) == ")":
                return values, pos
            continue
        token, closer = arg.group(2, 3)
        token = token.rstrip()
        pos = arg.end()
        if closer == ")":
            if token:  # ``f()`` and a trailing comma add no argument
                values.append(_bare_value(token))
            return values, pos
        values.append(_bare_value(token))
    return values, _split_rest(line, pos)[1]


def _parse_result(line, pos):
    """``= ret [ERRNO] <duration>`` from ``pos`` to the end of the line.
    A JSON return value is decoded where it stands, so no space, capital
    or ``<`` inside it can pass for the errno or the duration."""
    tail = line[pos:].strip()
    if not tail.startswith("="):
        raise TraceParseError("missing '=' result", line=line)
    tail = tail[1:].lstrip()
    if not tail.endswith(">"):
        raise TraceParseError("missing <duration>", line=line)
    ret = err = None
    json_ret = tail[0] in _JSON_OPENERS
    if json_ret:
        try:
            ret, end = _decode_json(tail, 0)
        except ValueError:
            raise TraceParseError(
                "bad return value in %r" % tail, line=line
            ) from None
        tail = tail[end:]
    body, opened, dur_text = tail.rpartition("<")
    try:
        duration = float(dur_text[:-1])
    except ValueError:
        raise TraceParseError(
            "bad duration %r" % dur_text[:-1], line=line
        ) from None
    pieces = body.split()
    if json_ret:
        if not opened:
            raise TraceParseError("missing <duration>", line=line)
        if pieces:
            err = pieces[0]
            if len(pieces) > 1 or not tail[0].isspace() or not err.isupper():
                raise TraceParseError(
                    "bad text %r after the return value" % body, line=line
                )
    elif len(pieces) >= 2 and pieces[-1].isupper():
        err = pieces.pop()
        ret = _bare_value(" ".join(pieces))
    else:
        ret = _bare_value(body.strip())
    return ret, err, duration


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
    structure, UnsupportedSyscallError on unknown calls.

    One pass: the head regex, a cursor over the arguments, the result.
    Failures keep one precedence -- a line whose parentheses, ``=`` or
    ``<duration>`` are wrong is malformed whatever it calls; an unknown
    call is unsupported whatever its arguments hold."""
    head = _HEAD(line)
    if head is None:
        raise TraceParseError("expected 'tid timestamp name('", line=line)
    tid_text, ts_text, name = head.groups()
    spec = REGISTRY.get(name)
    try:
        values, pos = _parse_args(
            line, head.end(), len(spec.args) if spec is not None else 0
        )
    except ValueError:
        values = None  # reported below, once the rest of the line is read
        try:
            pos = _split_rest(line, head.end())[1]
        except ValueError:
            raise TraceParseError("unbalanced parentheses", line=line) from None
    ret, err, duration = _parse_result(line, pos)
    if spec is None:
        raise UnsupportedSyscallError(name)
    if values is None:
        raise TraceParseError("bad argument list", line=line)
    try:
        t_enter = float(ts_text)
    except ValueError:
        raise TraceParseError("bad timestamp %r" % ts_text, line=line) from None
    return TraceRecord(
        idx,
        int(tid_text) if tid_text.isdigit() else tid_text,
        name,
        dict(zip(spec.args, values)),
        ret,
        err,
        t_enter,
        t_enter + duration,
    )


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
    one_byte_chars = text.isascii()
    for line_number, raw in enumerate(text.splitlines(True), 1):
        line = raw.strip()
        line_offset = offset
        offset += len(raw) if one_byte_chars else len(raw.encode("utf-8"))
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
