"""The trace model: a totally-ordered list of system-call records.

Matches the paper's required fields (section 4.3.1): entry/return
timestamps, numeric thread ID, call type, parameters, return value.
Failed calls carry a symbolic errno.  Traces serialize to JSON-lines.

Trace text in every format is read by one routine, :class:`LineReader`;
a format is one :class:`TraceFormat` row (this module's
:data:`JSON_LINES`, ``strace.FORMAT``, ``ibench.FORMAT``), and
:func:`format_of` picks the row from a file's name.  The batch loaders
are strict: the first malformed line raises one actionable
:class:`~repro.errors.TraceError` carrying its line number and byte
offset.  The streaming tailer (:mod:`repro.stream.tail`) is the
tolerant reader: it skips malformed lines with one deduplicated
:class:`ParseWarnings` entry per failure kind, so a live tail survives
torn writes and producer garbage without crashing.  Either way records
are numbered by position.
"""

import json
from collections import namedtuple

from repro.errors import TraceError, UnsupportedSyscallError


def lines_of(text):
    """The lines of trace ``text``: split on newlines alone, so a form
    feed or a Unicode line separator inside a line reads the same batch
    and streamed.  The empty piece after a final newline is no line."""
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]


def parse_header(line, head, line_number, offset):
    """Read a JSON-lines trace's header ``line`` into ``head``
    (``platform``, ``label``, ``thread_roster``).  A line that is no
    header raises, tolerant reader or not: the stream is the wrong
    format, not recoverable garbage."""
    try:
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except ValueError:
        raise TraceError("not a repro trace (unparseable header)",
                         line_number, line, offset) from None
    if header.get("format") != "repro-trace-v1":
        raise TraceError("not a repro trace (bad header)", line_number, line, offset)
    head["platform"] = header.get("platform", "linux")
    head["label"] = header.get("label", "")
    if header.get("threads"):
        head["thread_roster"] = list(header["threads"])


class ParseWarnings(object):
    """Deduplicated skippable-garbage warnings from tolerant parsing.

    One entry per failure *kind* (``bad-json``, ``bad-record``,
    ``bad-line``, ``unsupported-call``, ``torn-tail``; the ``kind`` of
    the error the line's parse raised): the first occurrence keeps its
    location and detail, repeats only bump the count.
    """

    def __init__(self):
        self.counts = {}
        self.first = {}

    def warn(self, kind, line_number=None, byte_offset=None, detail=""):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind not in self.first:
            self.first[kind] = {
                "line": line_number,
                "byte_offset": byte_offset,
                "detail": detail,
            }

    @property
    def total(self):
        return sum(self.counts.values())

    def to_dict(self):
        return {
            kind: dict(self.first[kind], count=count)
            for kind, count in sorted(self.counts.items())
        }

    def render(self):
        lines = []
        for kind, count in sorted(self.counts.items()):
            first = self.first[kind]
            where = ""
            if first["line"] is not None:
                where = " (first at line %s, byte %s)" % (
                    first["line"], first["byte_offset"],
                )
            detail = (": %s" % first["detail"]) if first["detail"] else ""
            lines.append("%s x%d%s%s" % (kind, count, where, detail))
        return "\n".join(lines)

    def __len__(self):
        return len(self.counts)

    def __repr__(self):
        return "<ParseWarnings %d kinds, %d total>" % (
            len(self.counts), self.total,
        )


class TraceRecord(object):
    """One system call as observed during tracing."""

    __slots__ = ("idx", "tid", "name", "args", "ret", "err", "t_enter", "t_return")

    def __init__(self, idx, tid, name, args, ret, err, t_enter, t_return):
        self.idx = idx
        self.tid = tid
        self.name = name
        self.args = args
        self.ret = ret
        self.err = err
        self.t_enter = t_enter
        self.t_return = t_return

    @property
    def ok(self):
        return self.err is None

    @property
    def duration(self):
        return self.t_return - self.t_enter

    def to_dict(self):
        return {
            "idx": self.idx,
            "tid": self.tid,
            "name": self.name,
            "args": self.args,
            "ret": self.ret,
            "err": self.err,
            "t_enter": self.t_enter,
            "t_return": self.t_return,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["idx"],
            data["tid"],
            data["name"],
            data.get("args", {}),
            data.get("ret"),
            data.get("err"),
            data["t_enter"],
            data["t_return"],
        )

    def __repr__(self):
        status = "=%r" % (self.ret,) if self.ok else "=-1 %s" % self.err
        return "<#%d [T%s] %s%s>" % (self.idx, self.tid, self.name, status)


def _json_record(line, idx):
    """One JSON-lines record, numbered ``idx`` whatever its ``idx``."""
    kind = "bad-json"
    try:
        data = json.loads(line)
        kind = "bad-record"
        if isinstance(data, dict):
            record = TraceRecord.from_dict(data)
            record.idx = idx
            return record
    except (ValueError, KeyError, TypeError):
        pass
    raise TraceError("malformed trace record (%s)" % kind, kind=kind)


def tid_value(text):
    """A thread id read from text: the number its decimal digits
    spell, else the text itself (``T1``, ``0x7f``, ``²``)."""
    if text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than ``int`` reads
            pass
    return text


def split_args(text):
    """Split a textual argument list on top-level commas, honoring
    quotes and brackets (the iBench format, whose strings are not
    JSON; strace lines are split in :mod:`repro.tracing.strace`)."""
    parts = []
    depth = 0
    in_string = False
    escaped = False
    current = []
    for char in text:
        if in_string:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
            current.append(char)
        elif char in "[{(":
            depth += 1
            current.append(char)
        elif char in ")}]":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class Trace(object):
    """An ordered collection of records plus source metadata."""

    def __init__(self, records=None, platform="linux", label="", thread_roster=None):
        self.records = list(records or [])
        self.platform = platform
        self.label = label
        # Optional declared thread roster (first-appearance order).  A
        # streaming consumer needs the full thread set *before* the
        # trace ends to spawn every replay thread at t=0 exactly like a
        # batch replay; headers written by :meth:`dumps` carry it.
        self.thread_roster = list(thread_roster) if thread_roster else None

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def threads(self):
        """Thread IDs in order of first appearance."""
        seen = []
        known = set()
        for record in self.records:
            if record.tid not in known:
                known.add(record.tid)
                seen.append(record.tid)
        return seen

    @property
    def duration(self):
        if not self.records:
            return 0.0
        start = min(r.t_enter for r in self.records)
        end = max(r.t_return for r in self.records)
        return end - start

    def by_thread(self):
        out = {}
        for record in self.records:
            out.setdefault(record.tid, []).append(record)
        return out

    # -- serialization -------------------------------------------------

    def dumps(self):
        head = {
            "format": "repro-trace-v1",
            "platform": self.platform,
            "label": self.label,
        }
        head["threads"] = (
            self.thread_roster if self.thread_roster is not None else self.threads
        )
        lines = [json.dumps(head)]
        lines.extend(json.dumps(r.to_dict()) for r in self.records)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text):
        """Parse JSON-lines trace text (strict: see :func:`read_trace`)."""
        return read_trace(JSON_LINES, text)

    def save(self, path):
        with open(path, "w") as handle:
            handle.write(self.dumps())

    def with_roster(self):
        """Stamp the declared thread roster from the records
        (first-appearance order, what a batch replay spawns)."""
        self.thread_roster = self.threads
        return self

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.loads(handle.read())

    def __repr__(self):
        return "<Trace %s: %d records, %d threads, %.3fs>" % (
            self.label or "?",
            len(self.records),
            len(self.threads),
            self.duration,
        )


#: One trace format, as :class:`LineReader` reads it: ``parse(line,
#: idx)`` is the record of a stripped non-blank line, numbered ``idx``
#: (a bad line raises an error whose ``kind`` names the failure);
#: ``scan(text, records, base)``, if not None, reads what lines it can
#: in bulk and yields the runs of the rest (``strace.scan``);
#: ``comment`` starts a comment line, or is None when the first line is
#: the header; ``header(line, head, line_number, offset)`` reads that
#: header, or each comment line, into ``head`` (None: comments are
#: skipped); ``head`` is the header of a text that states none; and
#: ``dumps(trace)`` writes the format.
TraceFormat = namedtuple("TraceFormat", "parse scan comment header head dumps")

JSON_LINES = TraceFormat(
    _json_record, None, None, parse_header,
    {"platform": "linux", "label": "", "thread_roster": None}, Trace.dumps,
)


def format_of(name):
    """The format a trace file's name says: ``.strace``, ``.ibench``,
    else JSON lines.  The one such rule, for the CLI and the tailer."""
    from repro.tracing import ibench, strace  # both build on this module

    for suffix, fmt in ((".strace", strace.FORMAT), (".ibench", ibench.FORMAT)):
        if name.endswith(suffix):
            return fmt
    return JSON_LINES


class LineReader(object):
    """The one reader of trace text, for the batch loaders and the
    stream tailer alike: it splits lines (:func:`lines_of`), skips
    blanks and comments, reads the header into :attr:`head`, numbers
    the records it appends to ``records`` by position, and counts line
    numbers and byte offsets across calls of :meth:`read`.

    A malformed line raises its parse's error, placed at that line,
    when ``warnings`` is None (the batch loaders); else (the tailer) it
    is one :class:`ParseWarnings` entry of the error's ``kind``.
    """

    def __init__(self, fmt, records, warnings=None):
        self.fmt = fmt
        self.records = records
        self.warnings = warnings
        self.head = dict(fmt.head)
        self.count = 0  # records read, including any taken out of ``records``
        self.line_number = 0
        self.offset = 0
        self._header_due = fmt.comment is None

    def read(self, text, data=None, kind=None):
        """Read the lines of ``text`` (the last may lack its newline).
        ``data`` is the bytes ``text`` was decoded from, which place a
        line in the raw file (default: ``text`` in UTF-8); ``kind``
        replaces each bad line's own warning kind."""
        fmt = self.fmt
        parse, comment, header = fmt.parse, fmt.comment, fmt.header
        records, warnings = self.records, self.warnings
        header_due = self._header_due
        base = self.count - len(records)
        sizes = None  # byte lengths, for text with multi-byte characters
        if not text.isascii():
            data = text.encode("utf-8") if data is None else data
            sizes = list(map(len, data.split(b"\n")))
        number = first = self.line_number
        offset = self.offset
        end = 0
        runs = ((0, len(text), 0),) if fmt.scan is None else fmt.scan(text, records, base)
        for start, end_of_run, fast in runs:
            offset += start - end  # the lines scan read are ASCII
            number += fast
            end = end_of_run
            for raw in lines_of(text[start:end]):
                at = offset
                offset += 1 + (len(raw) if sizes is None else sizes[number - first])
                number += 1
                line = raw.strip()
                if not line:
                    continue
                if header_due or line[0] == comment:
                    header_due = False
                    if header is not None:
                        header(line, self.head, number, at)
                    continue
                try:
                    records.append(parse(line, base + len(records)))
                except (TraceError, UnsupportedSyscallError) as exc:
                    if warnings is not None:
                        warnings.warn(kind or exc.kind, number, at, line[:120])
                    elif isinstance(exc, TraceError):
                        raise type(exc)(str(exc), number, line, at, exc.kind) from None
                    else:  # its message names the call; place it too
                        exc.line_number, exc.byte_offset = number, at
                        raise
        self._header_due = header_due
        self.line_number = number
        self.offset = offset
        self.count = base + len(records)


def read_trace(fmt, text):
    """The trace all of ``text`` holds in format ``fmt``; the first
    malformed line raises (see :class:`LineReader`)."""
    reader = LineReader(fmt, [])
    reader.read(text)
    return Trace(reader.records, **reader.head)
