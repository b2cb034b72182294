"""Tailing a growing trace: torn-tolerant incremental parsing.

:class:`TraceTailer` reads a trace that is still being written --
either one growing file or a watch-folder of segment files -- and
yields parsed :class:`~repro.tracing.trace.TraceRecord` objects as
complete lines land.  The tail protocol (docs/STREAMING.md):

- A line is consumed only once its terminating newline has been read.
  An unterminated final line is a *torn tail*: it stays buffered,
  unconsumed, until more bytes complete it (counted as a ``resync``)
  or the stream ends (one deduped ``torn-tail`` warning; never a
  crash).
- Complete-but-malformed lines are skippable garbage: one deduped
  :class:`~repro.tracing.trace.ParseWarnings` entry per failure kind,
  using the exact same classification as the tolerant batch loaders.
- Records are renumbered sequentially as they are emitted (garbage
  leaves no index holes), matching ``tolerant=True`` batch loads.
- In watch-folder mode the segments are read in sorted name order and
  behave exactly like the concatenation of their bytes: a segment is
  *sealed* once a later segment exists or the stream has ended, and an
  unterminated tail at a sealed segment's end carries over into the
  next segment (producers may cut segments mid-line).
- The stream ends when the done marker appears (``<file>.done``, or
  ``.done`` inside the watch folder) and every byte has been read.

Byte accounting is exact: ``position()`` is the resumable cursor
(segment ordinal + offset of consumed bytes), and a running SHA-256
over every consumed byte (:meth:`prefix_hexdigest`) lets a resume
prove the durable prefix was not rewritten underneath the checkpoint.
Both move once per drained chunk -- every complete line of a chunk is
consumed before ``poll`` returns, so no caller can observe them
between two lines of one chunk -- and the chunk is decoded once.

Reads are chunked and parsed records are handed out through a bounded
``poll(limit=...)``, so a consumer applying backpressure never forces
more than one chunk of lookahead into memory.
"""

import hashlib
import os
from collections import deque

from repro.tracing import strace
from repro.tracing.trace import ParseWarnings, lines_of, parse_header, parse_record_line

#: Bytes read from the source per drain step; bounds tailer lookahead.
CHUNK = 1 << 16


def _segment_names(path):
    try:
        names = os.listdir(path)
    except OSError:
        return []
    return sorted(
        name for name in names
        if not (name.startswith(".") or name.endswith(".tmp"))
        and os.path.isfile(os.path.join(path, name))
    )


def hash_prefix(path, position):
    """SHA-256 of the consumed prefix a :meth:`TraceTailer.position`
    cursor describes -- what a resume recomputes to validate a
    checkpoint against the current on-disk bytes."""
    seg = position.get("segment", 0)
    offset = position.get("offset", 0)
    sha = hashlib.sha256()

    def _feed(file_path, left=-1):  # the first ``left`` bytes; -1: all
        with open(file_path, "rb") as handle:
            while left:
                chunk = handle.read(CHUNK if left < 0 else min(CHUNK, left))
                if not chunk:
                    break
                sha.update(chunk)
                if left > 0:
                    left -= len(chunk)

    if os.path.isdir(path):
        names = _segment_names(path)
        for name in names[:seg]:
            _feed(os.path.join(path, name))
        if offset and seg < len(names):
            _feed(os.path.join(path, names[seg]), offset)
    elif offset:
        _feed(path, offset)
    return sha.hexdigest()


class TraceTailer(object):
    """Incremental, torn-tolerant reader of a growing trace source."""

    def __init__(self, path, warnings=None, done_marker=None):
        self.path = path
        self.is_dir = os.path.isdir(path)
        self.warnings = warnings if warnings is not None else ParseWarnings()
        if done_marker is None:
            done_marker = (
                os.path.join(path, ".done") if self.is_dir else path + ".done"
            )
        self.done_marker = done_marker
        self.header = {"platform": "linux", "label": "", "thread_roster": None}
        self.saw_header = False
        self.records_read = 0
        self.resyncs = 0
        self.finished = False
        self._segments = []
        # Two cursors: *consumed* (the resumable position) trails
        # *read* by exactly the pending torn tail, possibly across
        # segment boundaries.
        self._seg = 0
        self._offset = 0  # consumed bytes within segment _seg
        self._read_seg = 0
        self._read_off = 0  # bytes handed to the line splitter
        self._sealed_sizes = {}  # seg index -> size, read past but not consumed past
        self._total = 0  # consumed bytes across the whole stream
        self._pending = b""  # read-but-unconsumed torn tail
        self._starved = False  # hit end-of-available-bytes mid-line
        self._line_number = 0
        self._prefix = hashlib.sha256()
        self._ready = deque()
        self._fmt = None

    # -- metadata ------------------------------------------------------

    @property
    def fmt(self):
        """``"strace"`` or ``"json"``; decided once by the source (first
        segment) name, like the batch loaders."""
        if self._fmt is None:
            name = self.path
            if self.is_dir:
                self._segments = self._segments or _segment_names(self.path)
                if not self._segments:
                    return "json"  # no segment to name it yet
                name = self._segments[0]
            self._fmt = "strace" if name.endswith(".strace") else "json"
        return self._fmt

    @property
    def platform(self):
        return self.header["platform"]

    @property
    def label(self):
        return self.header["label"]

    @property
    def thread_roster(self):
        return self.header["thread_roster"]

    @property
    def drained(self):
        """The stream ended and every parsed record was handed out."""
        return self.finished and not self._ready

    def position(self):
        """The resumable cursor: consumed bytes only (the torn tail is
        not consumed until completed or flushed)."""
        return {"segment": self._seg, "offset": self._offset}

    def prefix_hexdigest(self):
        return self._prefix.copy().hexdigest()

    @property
    def buffered(self):
        """Records parsed but not yet handed out by :meth:`poll`."""
        return len(self._ready)

    # -- polling -------------------------------------------------------

    def poll(self, limit=None):
        """Consume what the producer has written (bounded lookahead)
        and return up to ``limit`` new records (all of them when
        None).  With ``limit`` records already parsed it touches no
        file (not even the done marker's ``stat``)."""
        if not self.finished and (limit is None or len(self._ready) < limit):
            self._fill(limit)
        take = len(self._ready) if limit is None else min(limit, len(self._ready))
        return [self._ready.popleft() for _ in range(take)]

    def _fill(self, limit):
        done_seen = os.path.exists(self.done_marker)
        if self.is_dir:
            self._segments = _segment_names(self.path)
        while limit is None or len(self._ready) < limit:
            if self.is_dir and self._read_seg >= len(self._segments):
                if done_seen:
                    self._flush_tail()
                    self.finished = True
                return
            if self._drain_chunk():
                continue
            # Source exhausted for now: seal/advance or finish.
            if self.is_dir:
                if self._read_seg + 1 < len(self._segments) or done_seen:
                    # Seal this segment; any pending torn tail carries
                    # over into the next segment's bytes.
                    self._sealed_sizes[self._read_seg] = self._read_off
                    self._read_seg += 1
                    self._read_off = 0
                    continue
                return
            if done_seen:
                self._flush_tail()
                self.finished = True
            return

    def _drain_chunk(self):
        """Read one bounded chunk of new bytes; returns True if any
        byte was read (progress was made)."""
        src = self.path
        if self.is_dir:
            src = os.path.join(self.path, self._segments[self._read_seg])
        try:
            grown = os.path.getsize(src) > self._read_off
        except OSError:
            grown = False
        data = b""
        if grown:
            with open(src, "rb") as handle:
                handle.seek(self._read_off)
                data = handle.read(CHUNK)
        if not data:
            self._starved = bool(self._pending)
            return False
        self._read_off += len(data)
        buf = self._pending + data
        whole = buf.rfind(b"\n") + 1
        if self._starved and whole:
            # A tail torn at end-of-available-bytes (not merely at one
            # of our own chunk boundaries) was completed by the
            # producer's later writes.
            self.resyncs += 1
        self._starved = False
        self._pending = buf[whole:]
        if whole:
            self._consume(buf[:whole])
        return True

    def _advance_consumed(self, nbytes):
        """Move the consumed cursor forward ``nbytes``, rolling over
        sealed segment boundaries the read cursor already crossed."""
        self._total += nbytes
        while self._seg in self._sealed_sizes:
            room = self._sealed_sizes[self._seg] - self._offset
            if nbytes < room:
                break
            nbytes -= room
            del self._sealed_sizes[self._seg]
            self._seg += 1
            self._offset = 0
        self._offset += nbytes

    def _flush_tail(self):
        """End-of-stream (or sealed-segment) handling of an
        unterminated final line: consume it; if it parses it was
        simply missing its newline, otherwise it is a torn write --
        one deduped warning, never a crash."""
        raw, self._pending = self._pending, b""
        self._starved = False
        if raw:
            self._consume(raw, torn_kind="torn-tail")

    def _consume(self, run, torn_kind=None):
        """Consume a run of whole lines (or, at the end of the stream,
        the unterminated last one): one hash update, one cursor roll
        and one decode for the run.  :func:`strace.scan` reads most
        strace lines with one match each; the rest, and JSON lines, are
        parsed one at a time."""
        text = run.decode("utf-8", "replace")
        # Byte lengths place a warning in the raw file; only a run with
        # multi-byte characters has to be split a second time for them.
        sizes = None if text.isascii() else list(map(len, run.split(b"\n")))
        strace_fmt = self.fmt == "strace"
        parse = strace.parse_line if strace_fmt else parse_record_line
        base = self.records_read - len(self._ready)
        first = number = self._line_number
        consumed = end = 0
        try:
            if strace_fmt:
                self.saw_header = True  # headerless strace is legal
                runs = strace.scan(text, self._ready, base)
            else:
                runs = [(0, len(text), 0)]
            for start, end_of_run, fast in runs:
                consumed += start - end  # the lines between are ASCII
                number += fast
                end = end_of_run
                for line in lines_of(text[start:end]):
                    line_start = self._total + consumed
                    consumed += 1 + (
                        len(line) if sizes is None else sizes[number - first])
                    number += 1
                    line = line.strip()
                    if not line:
                        continue
                    if strace_fmt and line.startswith("#"):
                        strace.parse_header_line(line, self.header)
                        continue
                    if not self.saw_header:  # a JSON trace's first line
                        parse_header(line, self.header, number, line_start)
                        self.saw_header = True
                        continue
                    record, kind = parse(line, base + len(self._ready))
                    if record is None:
                        self.warnings.warn(
                            torn_kind or kind, number, line_start, line[:120])
                    else:
                        record.idx = base + len(self._ready)
                        self._ready.append(record)
        finally:
            # All of the run, unless a fatal header stopped the loop;
            # an unterminated last line has no newline to count.
            consumed = min(consumed, len(run))
            self.records_read = base + len(self._ready)
            self._line_number = number
            self._prefix.update(run[:consumed])
            self._advance_consumed(consumed)
