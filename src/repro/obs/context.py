"""The observability context: one bundle of metrics + spans.

Discovery pattern: an :class:`Observability` is attached to a
simulation :class:`~repro.sim.engine.Engine` by
``Engine(seed, obs=obs)``; every component that already holds the
engine — the storage stack, the replayer, traced applications — looks
it up once at construction time via :func:`of_engine` and caches the
instrument handles it needs.  Components built on an engine without an
attached context hold ``None`` handles and skip instrumentation
entirely, which is what keeps the disabled path zero-cost: no registry
lookups, no no-op calls, no branches inside inner loops.  ``None`` is
the one way to say "off".
"""

from repro.obs.metrics import Metrics
from repro.obs.spans import SpanRecorder


class Observability(object):
    """Metrics registry + span recorder, attached as a unit."""

    def __init__(self, metrics=None, spans=None):
        self.metrics = metrics if metrics is not None else Metrics()
        self.spans = spans if spans is not None else SpanRecorder()

    # -- snapshotting --------------------------------------------------

    def collect_stack(self, stack, prefix="storage"):
        """Snapshot a storage stack's passive counters into gauges.

        The page cache and :class:`~repro.storage.stack.StackStats`
        already count hits/misses/blocks for free; exporting them as
        gauges at collection time costs the hot paths nothing.
        """
        gauge = self.metrics.gauge
        for name, value in stack.stats.as_dict().items():
            gauge("%s.%s" % (prefix, name)).set(value)
        cache = stack.cache
        gauge("%s.cache.hits" % prefix).set(cache.hits)
        gauge("%s.cache.misses" % prefix).set(cache.misses)
        total = cache.hits + cache.misses
        gauge("%s.cache.hit_rate" % prefix).set(
            cache.hits / total if total else 0.0
        )
        gauge("%s.cache.resident_pages" % prefix).set(len(cache))
        gauge("%s.cache.dirty_pages" % prefix).set(cache.dirty_count)

    def to_dict(self):
        return {"metrics": self.metrics.to_dict()}


def of_engine(engine):
    """The :class:`Observability` attached to ``engine``, or ``None``.
    The single discovery point used by instrumented components."""
    return getattr(engine, "obs", None)
