"""Replay reports: timing, semantics, thread-time, concurrency.

After finishing replay, ARTC outputs elapsed wall-clock time plus
detailed data about *why* the replay performed as it did: thread-time
by call category, a per-thread concurrency timeline, and the
similarity of replayed return values to traced ones (possible
underconstraint shows up as semantic mismatches).  This module is that
output.
"""

from repro.syscalls.registry import CATEGORIES, spec_for


class ActionResult(object):
    """What happened when one action replayed."""

    __slots__ = ("idx", "tid", "name", "issue", "done", "ret", "err", "matched", "skipped")

    def __init__(self, idx, tid, name, issue, done, ret, err, matched, skipped=False):
        self.idx = idx
        self.tid = tid
        self.name = name
        self.issue = issue
        self.done = done
        self.ret = ret
        self.err = err
        self.matched = matched
        self.skipped = skipped

    @property
    def latency(self):
        return self.done - self.issue

    def __repr__(self):
        flag = "ok" if self.matched else "MISMATCH"
        return "<ActionResult #%d %s %s>" % (self.idx, self.name, flag)


class ReplayWarning(object):
    """A nonconforming replay event (paper section 5.1: "ARTC generally
    outputs warnings when replayed calls do not conform to its
    expectations, but sometimes suppresses them")."""

    __slots__ = ("idx", "kind", "message", "count", "call")

    #: warning kinds
    UNEXPECTED_FAILURE = "unexpected-failure"
    UNEXPECTED_SUCCESS = "unexpected-success"
    WRONG_ERRNO = "wrong-errno"
    SHORT_READ = "short-read"

    def __init__(self, idx, kind, message, count=1, call=None):
        self.idx = idx
        self.kind = kind
        self.message = message
        # Repeats of the same (kind, syscall) pair are collapsed onto
        # the first emission; ``count`` totals them (see the replayer).
        self.count = count
        #: the syscall name the warning is about (the collapse key).
        self.call = call

    def __repr__(self):
        return "<ReplayWarning #%d %s: %s>" % (self.idx, self.kind, self.message)


class ReplayReport(object):
    def __init__(self, mode, label=""):
        self.mode = mode
        self.label = label
        self.results = []
        self.warnings = []
        self.started = None
        self.finished = None
        # Hardened-replayer counters (repro.faults.harden).
        self.retries = 0
        self.retries_recovered = 0
        # Simulated crash time when the run was cut short (--crash-at).
        self.crashed_at = None

    def warn(self, warning):
        self.warnings.append(warning)

    def warning_emissions(self):
        """Total warning occurrences, counting collapsed repeats
        (``len(report.warnings)`` counts distinct (kind, call) pairs)."""
        return sum(warning.count for warning in self.warnings)

    def warning_counts(self):
        """Per-(kind, call) emission counts: ``{kind: {call: count}}``."""
        out = {}
        for warning in self.warnings:
            out.setdefault(warning.kind, {})[warning.call or "?"] = warning.count
        return out

    def add(self, result):
        self.results.append(result)

    @property
    def elapsed(self):
        if self.started is None or self.finished is None:
            return 0.0
        return self.finished - self.started

    @property
    def n_actions(self):
        return len(self.results)

    @property
    def failures(self):
        """Semantic mismatches vs. the original trace (Table 3 metric)."""
        return sum(1 for r in self.results if not r.matched)

    @property
    def skipped(self):
        """Actions recorded-and-skipped by graceful degradation."""
        return sum(1 for r in self.results if r.skipped)

    def failures_by_errno(self):
        out = {}
        for result in self.results:
            if not result.matched:
                out[result.err or "OK"] = out.get(result.err or "OK", 0) + 1
        return out

    # -- thread-time (Figure 10) ---------------------------------------

    def thread_time(self):
        """Total time threads spend inside system calls (two threads in
        calls for two seconds = four thread-seconds)."""
        return sum(r.latency for r in self.results)

    def thread_time_by_category(self):
        out = {category: 0.0 for category in CATEGORIES}
        for result in self.results:
            category = spec_for(result.name).category
            out[category] = out.get(category, 0.0) + result.latency
        return out

    # -- concurrency (Figure 9) -----------------------------------------

    def mean_outstanding(self):
        """Average number of simultaneously outstanding system calls:
        total in-call thread-time divided by elapsed time.  The paper's
        'system-call concurrency' ratio compares this across replays."""
        if self.elapsed <= 0:
            return 0.0
        return self.thread_time() / self.elapsed

    def render_timeline(self, width=72, span=None):
        """ASCII rendering of per-thread in-call spans (Figure 9 style).

        Each thread is a row; ``#`` marks time inside a system call,
        ``.`` time between calls.  ``span`` optionally restricts to a
        ``(start, end)`` window of the replay.
        """
        if not self.results or self.elapsed <= 0:
            return "(empty timeline)"
        start = self.started if span is None else span[0]
        end = self.finished if span is None else span[1]
        window = max(end - start, 1e-12)
        rows = {}
        for result in self.results:
            cells = rows.setdefault(result.tid, ["."] * width)
            left = int((result.issue - start) / window * width)
            right = int((result.done - start) / window * width)
            for cell in range(max(0, left), min(width, right + 1)):
                cells[cell] = "#"
        lines = ["t=%.4fs %s t=%.4fs" % (start, "-" * (width - 18), end)]
        for tid in sorted(rows, key=str):
            lines.append("T%-6s |%s|" % (tid, "".join(rows[tid])))
        return "\n".join(lines)

    def summary(self):
        out = {
            "mode": self.mode,
            "label": self.label,
            "elapsed": self.elapsed,
            "actions": self.n_actions,
            "failures": self.failures,
            "thread_time": self.thread_time(),
            "mean_outstanding": self.mean_outstanding(),
            "warnings": len(self.warnings),
            "warning_emissions": self.warning_emissions(),
            "warning_counts": self.warning_counts(),
            "skipped": self.skipped,
            "retries": self.retries,
            "retries_recovered": self.retries_recovered,
        }
        if self.crashed_at is not None:
            out["crashed_at"] = self.crashed_at
        return out

    def __repr__(self):
        return "<ReplayReport %s %s: %.4fs, %d/%d failures>" % (
            self.label or "?",
            self.mode,
            self.elapsed,
            self.failures,
            self.n_actions,
        )


def timing_error(replay_elapsed, original_elapsed):
    """The paper's accuracy metric: |replay - original| / original."""
    if original_elapsed <= 0:
        return 0.0
    return abs(replay_elapsed - original_elapsed) / original_elapsed
