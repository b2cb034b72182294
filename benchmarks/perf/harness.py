"""Timing, calibration, spans and statistics shared by every workload.

Timing rules (README, "How it measures"): host wall-clock from
``time.perf_counter``; ``gc.collect()`` then ``gc.disable()`` around
each timed region; every timed quantity is sampled over several passes
and reported as the median, with quartiles and the sample count in the
detail rows.

Calibration.  The hosts this runs on switch between two speeds about
1.3x apart, every 0.1 to 30 seconds, for reasons outside the guest; the
median and the minimum of raw times both moved 25-50% between identical
runs (README, "Why times are calibrated").  So every timed call is
surrounded by :func:`calibration_loop`, a fixed piece of interpreter
work -- once before, once after, and every ``CAL_EVERY`` seconds inside
the call from an interval-timer signal, so a call of seconds that spans
several speed changes is still measured against the speeds it ran at.
The loops' own time is taken out, and the call's CPU time is filed
scaled by ``CAL_REF / (mean loop time)``: seconds on a host whose loop
takes ``CAL_REF``.  Time the call spent off the CPU (sleeping on a
poll, waiting for a worker) is not the host's speed and is added
unscaled.  The raw seconds are kept beside the calibrated ones.

:class:`Recorder` is the one instrument.  ``recorder.call(name, fn,
...)`` times a call into a layer's public function and files it under
``name``; with tracing on it also files a span (name, start, end,
parent, pass id), kept in memory until the run ends.
"""

import contextlib
import gc
import json
import signal
import statistics
import time

#: What :func:`calibration_loop` usually takes on the host the bounds
#: were set on; calibrated seconds are seconds on such a host.
CAL_REF = 0.003

#: Seconds between calibration loops inside a timed call.
CAL_EVERY = 0.05

#: Two calls closer than this share one calibration loop.
_CAL_REUSE = 0.0005


class _Cell(object):
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def calibration_loop():
    """A fixed mix of the interpreter work the program does -- integer
    arithmetic, attribute stores, dict churn, a comprehension -- timed.
    About 3 ms; allocates nothing that outlives it."""
    started = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i
    table = {}
    for i in range(3000):
        cell = _Cell(i, str(i), (i, total))
        table[cell.b] = cell
        if i % 3 == 0:
            del table[cell.b]
    [cell.c for cell in table.values()]
    return time.perf_counter() - started


def summarize(values):
    """median/quartiles/n of a list of samples."""
    values = sorted(values)
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(
            values, n=4, method="inclusive"
        )
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


@contextlib.contextmanager
def gc_quiet():
    """``gc.collect()`` then GC off for the duration of the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Deadline(object):
    """A share of the run's measuring time."""

    def __init__(self, seconds):
        self.ends = time.perf_counter() + seconds

    def left(self):
        return self.ends - time.perf_counter()

    def more(self, done, at_least):
        """Whether to start another pass: always until ``at_least``
        passes are done, then only while time is left."""
        return done < at_least or self.left() > 0


class Recorder(object):
    """Calibrated and raw durations by name, plus spans when tracing."""

    def __init__(self, tracing=False):
        self.tracing = tracing
        self.durations = {}  # name -> calibrated seconds, one per sample
        self.raw = {}  # name -> raw seconds, same order
        self.loops = []  # every calibration loop's time
        self.spans = []
        self.counters = {}
        self.pass_id = 0
        self._stack = []  # open span ids (tracing)
        self._groups = []  # open groups: [calibrated, raw] running sums
        self._loop_at = 0.0
        self._loop = 0.0

    def _calibrate(self):
        if time.perf_counter() - self._loop_at > _CAL_REUSE:
            self._loop = calibration_loop()
            self._loop_at = time.perf_counter()
            self.loops.append(self._loop)
        return self._loop

    def _file(self, name, calibrated, raw):
        self.durations.setdefault(name, []).append(calibrated)
        self.raw.setdefault(name, []).append(raw)

    def _open(self, name, started):
        if not self.tracing:
            return None
        row = {"id": len(self.spans), "name": name, "start": started,
               "end": None, "pass": self.pass_id,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(row)
        self._stack.append(row["id"])
        return row

    def _close(self, row, ended):
        if row is not None:
            self._stack.pop()
            row["end"] = ended

    def call(self, name, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` and file it under ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name, sample=True):
        """A timed block (main thread only), calibrated by the loops
        before, after and -- unless ``sample`` is off, for a block that
        is being profiled -- inside it.  A block that raises is closed
        but not filed: a failed operation is never a sample."""
        loops = [self._calibrate()]
        inside = []
        if sample:
            handler = signal.signal(
                signal.SIGALRM, lambda *_: inside.append(calibration_loop())
            )
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)
        started = time.perf_counter()
        cpu_started = time.process_time()
        row = self._open(name, started)
        try:
            yield
        finally:
            cpu = time.process_time() - cpu_started
            ended = time.perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, handler)
            self._close(row, ended)
        spent = sum(inside)
        raw = ended - started - spent
        cpu = min(cpu - spent, raw)
        loops += inside
        loops.append(self._calibrate())
        self.loops += inside
        scale = CAL_REF / (sum(loops) / len(loops))
        calibrated = cpu * scale + (raw - cpu)
        self._file(name, calibrated, raw)
        for sums in self._groups:
            sums[0] += calibrated
            sums[1] += raw

    @contextlib.contextmanager
    def group(self, name):
        """Several timed calls that make one operation: filed as the
        sum of the calls inside (the glue between them is not timed)."""
        sums = [0.0, 0.0]
        self._groups.append(sums)
        row = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._close(row, time.perf_counter())
            self._groups.pop()
        self._file(name, sums[0], sums[1])

    def record(self, name, started, ended):
        """File an interval timed on a load thread (a request): raw
        only -- the loop cannot run beside it -- and a span when
        tracing."""
        self._file(name, ended - started, ended - started)
        if self.tracing:
            self.spans.append({
                "id": len(self.spans), "name": name, "start": started,
                "end": ended, "pass": self.pass_id,
                "parent": self._stack[-1] if self._stack else None,
            })

    def count(self, name, value):
        """A counter read at a layer boundary (last value wins: the
        simulated counts repeat exactly from pass to pass)."""
        self.counters[name] = value

    def median(self, name):
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    def sample_rows(self):
        """Detail rows: calibrated median and quartiles, raw median, n."""
        rows = {}
        for name in sorted(self.durations):
            rows[name] = summarize(self.durations[name])
            rows[name]["raw_median"] = statistics.median(self.raw[name])
        return rows

    def self_times(self):
        """Per span name: total raw duration minus the part covered by
        child spans (choosing-metrics guide, section 4)."""
        child = {}
        for row in self.spans:
            if row["parent"] is not None and row["end"] is not None:
                child[row["parent"]] = (
                    child.get(row["parent"], 0.0) + row["end"] - row["start"]
                )
        out = {}
        for row in self.spans:
            if row["end"] is None:
                continue
            own = row["end"] - row["start"] - child.get(row["id"], 0.0)
            out[row["name"]] = out.get(row["name"], 0.0) + own
        return out


class Checks(object):
    """Checked operations: attempted vs failed, with the first few
    failure notes kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)
        return ok


def dump_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_json(path):
    with open(path) as handle:
        return json.load(handle)
