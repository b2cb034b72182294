"""The span recorder: attributed intervals on *simulated* time.

Every replayed action, device I/O, and synchronization wait can be
recorded as a span — a ``(name, category, track, start, end, args)``
tuple where ``track`` is the lane it renders on (a replay thread
``T3``, a device queue ``hdd/s0``).  Instant markers (zero-duration
annotations such as divergence warnings) share the same stream.

Exports:

- :meth:`SpanRecorder.to_chrome` — the Chrome ``trace_event`` JSON
  object format, loadable in ``chrome://tracing`` and Perfetto.
  Simulated seconds map to microseconds; tracks map to synthetic
  thread ids with ``thread_name`` metadata so the UI shows readable
  lane names.
- :meth:`SpanRecorder.to_jsonl` — one JSON object per line, for ad-hoc
  processing with ``jq``/pandas.
"""

import json


class Span(object):
    """One closed interval on a track, in simulated seconds."""

    __slots__ = ("name", "cat", "track", "start", "end", "args")

    def __init__(self, name, cat, track, start, end, args=None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.args = args

    @property
    def duration(self):
        return self.end - self.start

    def __repr__(self):
        return "<Span %s/%s [%g..%g] on %s>" % (
            self.cat, self.name, self.start, self.end, self.track,
        )


class SpanRecorder(object):
    """An append-only list of spans and instant markers."""

    def __init__(self):
        self.spans = []
        self.instants = []

    def record(self, name, cat, track, start, end, args=None):
        """Record one completed span; returns it."""
        span = Span(name, cat, track, start, end, args)
        self.spans.append(span)
        return span

    def instant(self, name, cat, track, ts, args=None):
        """Record a zero-duration marker (e.g. a divergence warning)."""
        self.instants.append(Span(name, cat, track, ts, ts, args))

    def __len__(self):
        return len(self.spans) + len(self.instants)

    def tracks(self):
        """Track names in first-appearance order."""
        seen = []
        known = set()
        for span in self.spans + self.instants:
            if span.track not in known:
                known.add(span.track)
                seen.append(span.track)
        return seen

    # -- export --------------------------------------------------------

    def to_chrome(self, pid=1):
        """The Chrome ``trace_event`` JSON object format (dict).

        Times are microseconds of simulated time.  Each track becomes
        one synthetic thread id, named via ``thread_name`` metadata
        events so Perfetto shows the track label.
        """
        tids = {track: index + 1 for index, track in enumerate(self.tracks())}
        events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": str(track)},
            }
            for track, tid in tids.items()
        ]
        for span in self.spans:
            event = {
                "name": str(span.name),
                "cat": str(span.cat),
                "ph": "X",
                "pid": pid,
                "tid": tids[span.track],
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        for mark in self.instants:
            event = {
                "name": str(mark.name),
                "cat": str(mark.cat),
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": pid,
                "tid": tids[mark.track],
                "ts": mark.start * 1e6,
            }
            if mark.args:
                event["args"] = mark.args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, pid=1):
        return json.dumps(self.to_chrome(pid=pid))

    def to_jsonl(self):
        """One JSON object per span/instant, in recording order."""
        lines = []
        for span in self.spans:
            entry = {
                "name": span.name,
                "cat": span.cat,
                "track": span.track,
                "start": span.start,
                "end": span.end,
            }
            if span.args:
                entry["args"] = span.args
            lines.append(json.dumps(entry))
        for mark in self.instants:
            entry = {
                "name": mark.name,
                "cat": mark.cat,
                "track": mark.track,
                "ts": mark.start,
            }
            if mark.args:
                entry["args"] = mark.args
            lines.append(json.dumps(entry))
        return "\n".join(lines) + ("\n" if lines else "")

    def save_chrome(self, path, pid=1):
        with open(path, "w") as handle:
            handle.write(self.to_chrome_json(pid=pid))

    def save_jsonl(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    # -- queries (used by reports and tests) ---------------------------

    def by_category(self):
        out = {}
        for span in self.spans:
            out.setdefault(span.cat, []).append(span)
        return out
