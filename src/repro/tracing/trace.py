"""The trace model: a totally-ordered list of system-call records.

Matches the paper's required fields (section 4.3.1): entry/return
timestamps, numeric thread ID, call type, parameters, return value.
Failed calls carry a symbolic errno.  Traces serialize to JSON-lines.

Parsing comes in two strictnesses, shared by the batch loaders here
and the streaming tailer (:mod:`repro.stream.tail`):

- strict (the default): any malformed mid-file line raises a single
  actionable :class:`~repro.errors.TraceError` carrying the line
  number and byte offset;
- tolerant (``tolerant=True``): malformed lines are skipped with one
  deduplicated :class:`ParseWarnings` entry per failure kind, and
  records are renumbered sequentially so downstream consumers always
  see contiguous indices.  This is how a live tail survives torn
  writes and producer garbage without crashing.
"""

import json

from repro.errors import TraceError


def lines_of(text):
    """The lines of trace ``text``, for both loaders and the tailer:
    split on newlines alone, so a form feed or a Unicode line separator
    inside a line reads the same batch and streamed.  The empty piece
    after a final newline is no line."""
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]


def parse_header(line, head, line_number, offset):
    """Read a JSON-lines trace's header ``line`` into ``head``
    (``platform``, ``label``, ``thread_roster``), for the batch loader
    and the tailer alike.  A line that is no header raises: the stream
    is the wrong format, not recoverable garbage."""
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
    ``torn-tail``, ``unsupported-call``, ...): the first occurrence
    keeps its location and detail, repeats only bump the count.  Both
    the batch loaders (``tolerant=True``) and the streaming tailer
    feed the same sink, so diagnostics look identical either way.
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

    def merge(self, other):
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count
            self.first.setdefault(kind, other.first[kind])

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


def parse_record_line(line, fallback_idx):
    """Parse one JSON-lines record: ``(TraceRecord, None)`` on
    success, ``(None, failure_kind)`` on garbage.  Shared by the batch
    loader and the streaming tailer so both classify failures (and
    therefore warn) identically."""
    try:
        data = json.loads(line)
    except ValueError:
        return None, "bad-json"
    if not isinstance(data, dict):
        return None, "bad-record"
    try:
        record = TraceRecord.from_dict(data)
    except (KeyError, TypeError):
        return None, "bad-record"
    if not isinstance(record.idx, int):
        record.idx = fallback_idx
    return record, None


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

    def renumber(self):
        """Re-assign contiguous indices (after filtering records)."""
        for index, record in enumerate(self.records):
            record.idx = index

    def sort_by_issue(self):
        """Order records by entry timestamp.

        Tracers (like strace) emit a record when the call *returns*, so
        overlapping calls appear in completion order; the ROOT model
        wants the issue order (within a thread the two coincide, since
        system calls are synchronous).
        """
        self.records.sort(key=lambda record: (record.t_enter, record.idx))
        self.renumber()

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
    def loads(cls, text, tolerant=False, warnings=None):
        """Parse JSON-lines trace text.

        Strict mode raises :class:`~repro.errors.TraceError` (with
        line number and byte offset) on the first malformed line;
        tolerant mode skips garbage, records one deduped warning per
        failure kind in ``warnings`` (a :class:`ParseWarnings`), and
        renumbers the surviving records contiguously.
        """
        if tolerant and warnings is None:
            warnings = ParseWarnings()
        head = {"platform": "linux", "label": "", "thread_roster": None}
        records = []
        offset = 0
        saw_header = False
        for line_number, raw in enumerate(lines_of(text), 1):
            line = raw.strip()
            line_offset = offset
            offset += 1 + len(raw.encode("utf-8"))
            if not line:
                continue
            if not saw_header:
                saw_header = True
                parse_header(line, head, line_number, line_offset)
                continue
            idx = len(records)
            record, kind = parse_record_line(line, idx)
            if record is not None:
                if tolerant:
                    # Skipped garbage leaves holes; keep indices
                    # contiguous (downstream assumes idx == position).
                    record.idx = idx
                records.append(record)
                continue
            if not tolerant:
                raise TraceError(
                    "malformed trace record (%s)" % kind,
                    line_number, line, line_offset,
                )
            warnings.warn(kind, line_number, line_offset, line[:120])
        return cls(records, **head)

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
