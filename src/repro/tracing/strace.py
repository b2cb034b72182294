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
from repro.tracing.trace import TraceFormat, TraceRecord, read_trace, tid_value

_STRING_ARGS = frozenset(
    ["path", "old", "new", "target", "name", "xname", "path1", "path2", "aiocb"]
)


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
    parts = []
    for arg_name in spec_for(record.name).args:
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
        lines.append("%s %.6f %s(%s) = %s%s <%.6f>" % (
            record.tid, record.t_enter, record.name, _render_args(record),
            ret, err, record.duration,
        ))
    return "\n".join(lines) + "\n"


#: ``tid timestamp name(`` -- the fields split on whitespace as
#: ``str.split`` would; the name is whatever precedes the first ``(``.
#: (Here and below no token may *start* with whitespace, so a failed
#: match never retries a run of blanks: garbage costs linear time.)
_HEAD = re.compile(r"\s*(\S+)\s+(\S+)\s+((?:[^\s(][^(]*)?)\(").match
#: What moves bracket depth: a whole string (to the end of the line when
#: unterminated), a bracket, a comma.
_STRUCTURE = re.compile(r'"(?:[^"\\]|\\.)*"?|[()\[\]{},]', re.S).finditer
_decode_json = json.JSONDecoder().raw_decode
_JSON_OPENERS = frozenset('"[{')
#: No number starts like this (``inf``/``nan`` may, in either case).
_SYMBOL_HEADS = frozenset("ABCDEFGHJKLMOPQRSTUVWXYZ_")

#: One argument as :func:`dumps` writes it: a string of printable ASCII
#: but quote and backslash (group 1, its text), an integer (2), a bare
#: token of printable ASCII but blank, quote, comma and brackets (3), or
#: a flat JSON array (4).
_ONE_ARG = (
    r'(?:"([ !#-\[\]-~]*)"|(-?[0-9]{1,18})(?=[,)])|'
    r"([!#-'*+\--Z\\^-z|~]+)|(\[[ -Z\\^-z|~]*\]))"
)
_WIDEST = max(len(spec.args) for spec in REGISTRY.values())
_ARGS = ""
for _ in range(_WIDEST):
    _ARGS = "(?:, %s%s)?" % (_ONE_ARG, _ARGS)
#: A whole line as :func:`dumps` writes it, a slot per argument of the
#: widest call (no comma before the first), returning an integer (with
#: an errno or not) or a flat JSON array or object.  The general walk
#: reads what it takes the same; none of it is a line break of any kind.
_LINES = re.compile(
    r"^([0-9]{1,18}) (-?[0-9]+\.[0-9]+) ([a-z0-9_]+)\((?:%s\) = "
    r"(?:(-?[0-9]{1,18})(?: ([A-Z][A-Z0-9_]*))?|([\[{][ -Z\\^-z|~]*[\]}])) "
    r"<(-?[0-9]+\.[0-9]+)>$" % _ARGS[5:],
    re.M,
).finditer
_RET = 3 + 4 * _WIDEST  # the return value's group, counted from 0


def _bare_value(token):
    if token[:1] in _SYMBOL_HEADS:
        return token  # symbolic: flags, fcntl command, whence...
    for number in (int, float):
        try:
            return number(token)
        except ValueError:
            pass
    return None if token == "NULL" else token


def _split_rest(line, pos):
    """The argument walk: the text between top-level commas from ``pos``
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


def parse_header_line(line, head, line_number, offset):
    """Apply one ``#`` comment line's ``key=value`` tokens to ``head``
    (keys: platform, label, thread_roster); other tokens are commentary.
    No comment line is an error, so ``line_number`` and ``offset`` go
    unused."""
    for token in line[1:].split():
        key, equals, value = token.partition("=")
        if equals and key in ("platform", "label"):
            head[key] = value
        elif equals and key == "threads":
            try:
                head["thread_roster"] = list(json.loads(value))
            except ValueError:
                pass  # an unreadable roster only disables pipelining


def _parse_body(line, idx):
    """The general walk, for a line :data:`_LINES` does not take (the
    reader attaches line number and byte offset).  Failures keep one
    precedence -- a line whose parentheses, ``=`` or ``<duration>`` are
    wrong is malformed (TraceParseError) whatever it calls; an unknown
    call is unsupported whatever its arguments hold."""
    head = _HEAD(line)
    if head is None:
        raise TraceParseError("expected 'tid timestamp name('", line=line)
    tid_text, ts_text, name = head.groups()
    spec = REGISTRY.get(name)
    try:
        pieces, pos = _split_rest(line, head.end())
    except ValueError:
        raise TraceParseError("unbalanced parentheses", line=line) from None
    if not pieces[-1].strip():
        pieces.pop()  # ``f()`` and a trailing comma add no argument
    wanted = len(spec.args) if spec is not None else 0  # no more are read
    try:
        values = [_piece_value(piece.strip()) for piece in pieces[:wanted]]
    except ValueError:
        values = None  # reported below, once the rest of the line is read
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
        idx, tid_value(tid_text), name, dict(zip(spec.args, values)), ret,
        err, t_enter, t_enter + duration,
    )


def scan(text, records, base=0):
    """The bulk parse of :data:`FORMAT`: append to ``records``
    (numbered from ``base`` plus its length) the record of each line of
    ``text`` one :data:`_LINES` match reads, and yield the runs of other
    lines, in order, as ``(start, end, fast)``: the run
    ``text[start:end]`` and how many lines the match read since the last
    run (ASCII, one newline each).  The last run, maybe empty, ends
    ``text``.  A matched line of an unknown call joins a run."""
    start = fast = 0
    idx = base + len(records)
    append = records.append
    ret_at, err_at, json_at, dur_at = range(_RET, _RET + 4)
    for match in _LINES(text):
        groups = match.groups()
        spec = REGISTRY.get(groups[2])
        if spec is None:
            continue
        ret = groups[ret_at]
        args = {}
        at = 3
        try:
            ret = int(ret) if ret is not None else _decode_json(groups[json_at])[0]
            for name in spec.args:
                value = groups[at + 1]
                if value is not None:
                    value = int(value)
                elif groups[at] is not None:
                    value = groups[at]
                elif groups[at + 2] is not None:
                    value = _bare_value(groups[at + 2])
                elif groups[at + 3] is not None:
                    value = _decode_json(groups[at + 3])[0]
                else:
                    break
                args[name] = value
                at += 4
        except ValueError:  # not JSON after all: the general walk refuses it
            continue
        if match.start() != start:
            yield start, match.start(), fast
            idx = base + len(records)
            fast = 0
        t_enter = float(groups[1])
        append(TraceRecord(
            idx, int(groups[0]), groups[2], args, ret, groups[err_at],
            t_enter, t_enter + float(groups[dur_at]),
        ))
        idx += 1
        fast += 1
        start = match.end() + 1
    yield min(start, len(text)), len(text), fast


FORMAT = TraceFormat(
    _parse_body, scan, "#", parse_header_line,
    {"platform": "linux", "label": "", "thread_roster": None}, dumps,
)


def loads(text):
    """Parse strace-format text (strict: see
    :func:`~repro.tracing.trace.read_trace`)."""
    return read_trace(FORMAT, text)


def save(trace, path):
    with open(path, "w") as handle:
        handle.write(dumps(trace))


def load(path):
    with open(path) as handle:
        return loads(handle.read())
