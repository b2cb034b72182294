"""The strace parser's call budget.

``strace.loads`` and the stream tailer parse through one routine,
``strace.scan``: a well-formed line is read by one match of a
whole-line pattern over the chunk, and only the lines it does not take
go through the general walk (docs/TRACE_FORMATS.md, section 2).  This
test counts every call -- Python frames and built-ins alike, as
``sys.setprofile`` sees them -- that parsing ``pages_create15``
(traced on ``mac-hdd`` at seed 0, 791 lines) makes, per line, through
``strace.loads`` and through a streamed ingest's tailer.

The parser this one replaced -- a head match, then a cursor that made
one match and one conversion per argument, then a separate result
pass -- made 35.31 calls per line through ``loads`` and 37.37 through
the tailer; this one makes 6.45 and 7.52, on CPython 3.11.  The
budgets are the midpoints, so a per-line helper or a per-argument call
that creeps back fails here, where a timing could not tell.

The one-match path only pays if it takes what ``strace.dumps`` writes,
so the last test holds every line written for the 34 Magritte profiles
to it: an emitter change that silently sends any of them down the
general walk fails here too.
"""

import sys

import pytest

from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.stream.follow import LOOKAHEAD
from repro.stream.tail import TraceTailer
from repro.tracing import strace
from repro.workloads.magritte import build_suite

APP = "pages_create15"
LOADS_BUDGET = (35.31 + 6.45) / 2  # calls per line
TAIL_BUDGET = (37.37 + 7.52) / 2


@pytest.fixture(scope="module")
def text():
    app = build_suite([APP])[APP]
    traced = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
    return strace.dumps(traced.trace.with_roster())


def calls_of(run):
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


def test_loads_stays_within_its_call_budget(text):
    lines = text.count("\n") - 1  # the header is not a record
    assert lines == 791
    per_line = calls_of(lambda: strace.loads(text)) / lines
    assert per_line <= LOADS_BUDGET, "%.2f calls per line" % per_line


def test_tailer_stays_within_its_call_budget(text, tmp_path):
    path = str(tmp_path / "t.strace")
    with open(path, "w") as handle:
        handle.write(text)
    with open(path + ".done", "w"):
        pass
    tailer = TraceTailer(path)
    records = []

    def ingest():  # as ``ingest_trace`` polls
        while not tailer.drained:
            records.extend(tailer.poll(limit=LOOKAHEAD))

    per_line = calls_of(ingest) / (text.count("\n") - 1)
    assert len(records) == 791
    assert per_line <= TAIL_BUDGET, "%.2f calls per line" % per_line


def test_every_written_magritte_line_takes_the_one_match_path(magritte):
    assert len(magritte) == 34
    for name, bench in sorted(magritte.items()):
        text = strace.dumps(bench.to_trace())
        records = []
        runs = [text[start:end] for start, end, _ in strace.scan(text, records)]
        header = text[: text.index("\n") + 1]
        assert [run for run in runs if run] == [header], name
        assert len(records) == len(bench.actions), name
