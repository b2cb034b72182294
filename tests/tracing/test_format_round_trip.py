"""Every trace format carries a trace at microsecond precision whole.

A trace read back from strace text has microsecond times.  Written in
any format and read back, it keeps every record, and it compiles to
the same benchmark, which packs to the same ``.artcb`` bytes whether
its records share ``args`` dicts (strace text) or not (the others).
"""

import pytest

from repro.artc import artifact, compile_trace
from repro.stream.digest import benchmark_digest
from repro.tracing import strace
from repro.tracing.trace import Trace, format_of, read_trace

SUFFIXES = (".json", ".strace", ".ibench")

#: Header fields a format cannot carry.  iBench text has no header: it
#: always reads as ``darwin``, unlabelled, with no thread roster.
EXEMPT = {
    ".json": (),
    ".strace": (),
    ".ibench": ("platform", "label", "thread_roster"),
}


def at_microseconds(trace):
    return read_trace(strace.FORMAT, strace.dumps(trace))


def round_trip(suffix, trace):
    fmt = format_of("trace" + suffix)
    back = read_trace(fmt, fmt.dumps(trace))
    for field in EXEMPT[suffix]:
        setattr(back, field, getattr(trace, field))
    return back


def rows(trace):
    return [record.to_dict() for record in trace.records]


@pytest.fixture(scope="module")
def profiles(magritte):
    """``{profile: (trace at microseconds, snapshot, its benchmark_digest,
    its .artcb bytes)}``."""
    out = {}
    for name, bench in sorted(magritte.items()):
        trace = at_microseconds(Trace(
            [action.record for action in bench.actions],
            platform=bench.platform, label=bench.label,
        ))
        compiled = compile_trace(trace, bench.snapshot)
        out[name] = (trace, bench.snapshot, benchmark_digest(compiled),
                     artifact.pack_bytes(compiled))
    return out


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_every_profile_round_trips(profiles, suffix):
    for name, (trace, snapshot, digest, packed) in profiles.items():
        back = round_trip(suffix, trace)
        assert rows(back) == rows(trace), name
        bench = compile_trace(back, snapshot)
        assert benchmark_digest(bench) == digest, name
        assert artifact.pack_bytes(bench) == packed, name
        assert bench.content_key == artifact.unpack_bytes(packed).content_key

