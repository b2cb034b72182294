"""The compile loop's call budget.

``compile_trace`` runs one loop per record: the trace model, the rule
engine and the reducer (docs/PERFORMANCE.md, *Compiler hot path*).  A
touch is a plain ``(key, role)`` pair and the sequential and stage
rules apply inline, so the loop's cost is mostly calls it does not
make.  This test counts every call one ``compile_trace`` of
``pages_create15`` (traced on ``mac-hdd`` at seed 0, 791 records)
makes -- Python frames and built-ins alike, as ``sys.setprofile`` sees
them -- and divides by the records.

The loop this one replaced, with a ``Touch`` object, a ``*_key`` helper
and a ``kind`` property per touch and one rule method per edge, made
65,069 calls (82.3 per record); this one makes 43,440 (54.9), on
CPython 3.11.  The budget is the midpoint, so a helper, a property or a
per-touch object that creeps back into the loop fails here, where a
timing could not tell.
"""

import sys

import pytest

from repro.artc import compile_trace
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.workloads.magritte import build_suite

APP = "pages_create15"
BUDGET = (82.26 + 54.92) / 2  # calls per record


@pytest.fixture(scope="module")
def traced():
    app = build_suite([APP])[APP]
    return trace_application(app, PLATFORMS["mac-hdd"], seed=0)


def compile_calls(traced):
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        compile_trace(traced.trace, traced.snapshot)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_compile_stays_within_its_call_budget(traced):
    records = len(traced.trace.records)
    assert records == 791
    per_record = compile_calls(traced) / records
    assert per_record <= BUDGET, "%.2f calls per record" % per_record
