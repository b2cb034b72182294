"""Streamed compilation is byte-identical to batch compilation."""

import hashlib
import json

from repro.artc.compiler import compile_trace
from repro.stream.compile import StreamCompiler
from repro.stream.digest import (
    ActionChain,
    _canon,
    _ruleset_dict,
    benchmark_digest,
    stream_digest_of,
)
from repro.stream.follow import ingest_trace


def test_streamed_benchmark_identical_to_batch(trace_file, traced):
    batch = compile_trace(traced.trace, traced.snapshot)
    result = ingest_trace(trace_file, snapshot=traced.snapshot)
    assert result.finished
    assert benchmark_digest(result.benchmark) == benchmark_digest(batch)
    assert stream_digest_of(batch) == result.digest
    # The stats block (minus the volatile timer) matches too.
    batch_stats = dict(batch.stats)
    stream_stats = dict(result.benchmark.stats)
    batch_stats.pop("compile_seconds")
    stream_stats.pop("compile_seconds")
    assert batch_stats == stream_stats


def test_streamed_no_reduce_identical(trace_file, traced):
    batch = compile_trace(traced.trace, traced.snapshot, reduce=False)
    result = ingest_trace(trace_file, snapshot=traced.snapshot, reduce=False)
    assert benchmark_digest(result.benchmark) == benchmark_digest(batch)
    assert stream_digest_of(batch) == result.digest


def compiler_for(traced, **kwargs):
    return StreamCompiler(
        snapshot=traced.snapshot,
        platform=traced.trace.platform,
        label=traced.trace.label,
        **kwargs
    )


def test_windowed_compiler_matches_retained(traced):
    retain = compiler_for(traced)
    windowed = compiler_for(traced, retain=False)
    for record in traced.trace.records:
        compiled = retain.feed(record)
        w = windowed.feed(record)
        assert w.preds == compiled.preds
        assert w.wait == compiled.wait
        if windowed.fed % 50 == 0:
            windowed.retire()
    windowed.retire()
    assert windowed.digest() == retain.digest()
    assert windowed.retired > 0
    # Bounded memory: surviving reach vectors are the live refs plus
    # thread frontiers, not the whole history.
    assert windowed.live_vectors < windowed.fed // 2
    assert windowed.stats()["n_edges"] == retain.stats()["n_edges"]


def test_windowed_digest_equals_batch_digest(traced):
    batch = compile_trace(traced.trace, traced.snapshot)
    windowed = compiler_for(traced, retain=False)
    for record in traced.trace.records:
        windowed.feed(record)
        if windowed.fed % 64 == 0:
            windowed.retire()
    assert windowed.digest() == stream_digest_of(batch)


def test_chain_header_is_the_snapshot_text_round_trip(magritte):
    """The header hashes ``snapshot.to_dict()``: the same bytes the
    indent-1 dump and re-parse it replaced gave, on every Magritte
    snapshot."""
    for name, bench in sorted(magritte.items()):
        chain = ActionChain()
        chain.header(bench.platform, bench.label, bench.ruleset, bench.snapshot)
        text_round_trip = _canon({
            "platform": bench.platform,
            "label": bench.label,
            "ruleset": _ruleset_dict(bench.ruleset),
            "snapshot": json.loads(bench.snapshot.dumps()),
        })
        assert chain.hexdigest() == hashlib.sha256(text_round_trip).hexdigest(), name
