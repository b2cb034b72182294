"""The metrics registry: counters, gauges, and log-scale histograms.

Instruments are named with dotted paths (``storage.hdd.seek_seconds``)
and live in a :class:`Metrics` registry.  Components acquire their
instrument handles *once* (at construction time) and then pay one
method call per update; when observability is disabled they hold
``None`` and skip the call entirely, so the hot paths of the simulator
are untouched (see :mod:`repro.obs.context` for the discovery
pattern).

Histograms use fixed log-scale bucket bounds so that two registries
are always mergeable and exports are stable across runs.  The default
bounds suit latencies: 1 µs to ~67 s in powers of four.
"""

from bisect import bisect_left

#: Default histogram bounds: 1 µs * 4**i — thirteen buckets spanning
#: microsecond CPU charges to minute-scale replays, plus overflow.
LATENCY_BOUNDS = tuple(1e-6 * 4 ** i for i in range(13))

#: Bounds for small cardinalities (queue depths, batch sizes): powers
#: of two from 1 to 4096.
COUNT_BOUNDS = tuple(float(2 ** i) for i in range(13))


class Counter(object):
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return "<Counter %s=%d>" % (self.name, self.value)


class Gauge(object):
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def set(self, value):
        self.value = value

    def add(self, delta):
        self.value += delta

    def __repr__(self):
        return "<Gauge %s=%r>" % (self.name, self.value)


class Histogram(object):
    """A fixed-bucket log-scale histogram.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one
    overflow bucket catches everything beyond the last bound.  ``sum``
    and ``count`` make means exact even though bucket placement is
    approximate.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "sum", "max")

    def __init__(self, name, bounds=LATENCY_BOUNDS):
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value):
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def __repr__(self):
        return "<Histogram %s n=%d mean=%g>" % (self.name, self.count, self.mean)


class Metrics(object):
    """A registry of named instruments.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same instrument thereafter, so handles can be acquired eagerly
    and shared.  Asking for an existing name with a different
    instrument type is a programming error and raises.
    """

    def __init__(self):
        self._instruments = {}

    def _get(self, name, factory, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory(name, *args)
        elif not isinstance(instrument, factory):
            raise TypeError(
                "metric %r is a %s, not a %s"
                % (name, type(instrument).__name__, factory.__name__)
            )
        return instrument

    def counter(self, name):
        return self._get(name, Counter)

    def gauge(self, name):
        return self._get(name, Gauge)

    def histogram(self, name, bounds=LATENCY_BOUNDS):
        return self._get(name, Histogram, bounds)

    def __iter__(self):
        return iter(sorted(self._instruments.values(), key=lambda i: i.name))

    def __len__(self):
        return len(self._instruments)

    def get(self, name):
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def value(self, name, default=None):
        """Counter/gauge value (or histogram sum) for ``name``."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return instrument.sum
        return instrument.value

    # -- export --------------------------------------------------------

    def to_dict(self):
        """A JSON-serializable snapshot of every instrument."""
        out = {}
        for instrument in self:
            if isinstance(instrument, Counter):
                out[instrument.name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[instrument.name] = {"type": "gauge", "value": instrument.value}
            else:
                out[instrument.name] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "max": instrument.max,
                    "mean": instrument.mean,
                    "bounds": list(instrument.bounds),
                    "buckets": list(instrument.buckets),
                }
        return out

    def render(self, prefix=""):
        """A human-readable listing, optionally filtered by name prefix."""
        lines = []
        for instrument in self:
            if prefix and not instrument.name.startswith(prefix):
                continue
            if isinstance(instrument, Histogram):
                lines.append(
                    "%-44s n=%-8d mean=%-12.6g max=%.6g"
                    % (instrument.name, instrument.count, instrument.mean,
                       instrument.max)
                )
            else:
                lines.append("%-44s %g" % (instrument.name, instrument.value))
        return "\n".join(lines)
