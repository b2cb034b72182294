"""repro.obs — simulation-time observability.

Three pieces (see docs/OBSERVABILITY.md):

- :mod:`repro.obs.metrics` — counters, gauges, log-scale histograms.
- :mod:`repro.obs.spans` — attributed intervals on simulated time,
  exportable as Chrome ``trace_event`` JSON (Perfetto) or JSONL.
- :mod:`repro.obs.critpath` — dependency-chain makespan lower bounds
  with per-rule attribution.

Everything is off unless an :class:`Observability` context is attached
to the simulation engine; the disabled path costs nothing.
"""

from repro.obs.context import Observability, of_engine
from repro.obs.critpath import (
    CriticalPathResult,
    longest_chain,
    replay_critical_path,
    trace_critical_path,
)
from repro.obs.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
)
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "COUNT_BOUNDS",
    "Counter",
    "CriticalPathResult",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS",
    "Metrics",
    "Observability",
    "Span",
    "SpanRecorder",
    "longest_chain",
    "of_engine",
    "replay_critical_path",
    "trace_critical_path",
]
