"""Property-based tests: the fast replay cores are invisible.

The scoreboard core (integer pending-predecessor counters + per-thread
gates) and the JIT core (trace-specialized generated code,
:mod:`repro.artc.codegen`) are pure optimizations over the classic
per-action event machinery -- for any benchmark and any replay mode
every core must produce a byte-identical report *and* leave the target
file system in a byte-identical final state.  The event core is the
oracle: it is the original implementation and still serves hardened,
fault, and crash-recovery replay.

Hypothesis drives (sample, mode, target platform, seed, reduced or
full graph) over two real Magritte traces; the fingerprint covers the
report summary, every per-action result tuple, and a full post-replay
snapshot of the target tree.  Under every named rule set the three
agree too: the JIT writes out the scoreboard's release, and the events
core wakes in the scoreboard's order (``planir.wake_order``).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, ReplayError, replay
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.core.modes import ReplayMode, named_rulesets
from repro.tracing.snapshot import Snapshot
from repro.workloads.magritte import build_suite

SAMPLES = ("itunes_startsmall1", "pages_pdf15")

_traced = {}
_benchmarks = {}


def benchmark_for(sample, rules="artc-default"):
    if sample not in _traced:
        app = build_suite([sample])[sample]
        _traced[sample] = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
    if (sample, rules) not in _benchmarks:
        traced = _traced[sample]
        _benchmarks[sample, rules] = compile_trace(
            traced.trace, traced.snapshot, ruleset=named_rulesets()[rules]
        )
    return _benchmarks[sample, rules]


def _run(bench, platform, mode, seed, core, jobs=1, reduced_deps=True):
    fs = platform.make_fs(seed=seed)
    if bench.snapshot is not None:
        initialize(fs, bench.snapshot)
    fs.stack.drop_caches()
    config = ReplayConfig(mode=mode, core=core, jobs=jobs,
                          reduced_deps=reduced_deps)
    report = replay(bench, fs, config)
    return report, fs


def replay_fingerprint(bench, platform, mode, seed, core, jobs=1,
                       reduced_deps=True):
    """Everything observable about one replay, as bytes."""
    report, fs = _run(bench, platform, mode, seed, core, jobs, reduced_deps)
    payload = json.dumps(
        [
            report.summary(),
            [
                (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err,
                 r.matched, r.skipped)
                for r in report.results
            ],
        ],
        sort_keys=True,
    )
    final = Snapshot.capture(fs, roots=("/",), label="final")
    return (payload + final.dumps()).encode("utf-8")


def semantic_fingerprint(bench, platform, mode, seed, core, jobs=1):
    """The timing-free view every core must agree on at any job count.

    Multi-shard replay follows the partitioned-clock timing model
    (per-shard simulated clocks reconciled only at cross-shard gates),
    so simulated timestamps -- and the per-replica descriptor numbers
    in ``ret`` -- are out of scope; errnos, conformance matches,
    warning counts, and the full final file-system state are not.
    """
    report, fs = _run(bench, platform, mode, seed, core, jobs)
    summary = report.summary()
    for timing_key in ("elapsed", "thread_time", "mean_outstanding"):
        summary.pop(timing_key, None)
    payload = json.dumps(
        [
            summary,
            [
                (r.idx, r.tid, r.name, r.err, r.matched, r.skipped)
                for r in report.results
            ],
        ],
        sort_keys=True,
    )
    final = Snapshot.capture(fs, roots=("/",), label="final")
    return (payload + final.dumps()).encode("utf-8")


@given(
    sample=st.sampled_from(SAMPLES),
    mode=st.sampled_from(sorted(ReplayMode.ALL)),
    platform=st.sampled_from(["hdd-ext4", "ssd", "smallcache"]),
    seed=st.integers(min_value=0, max_value=3),
    reduced_deps=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_fast_cores_identical_to_event_core(sample, mode, platform, seed,
                                            reduced_deps):
    bench = benchmark_for(sample)
    target = PLATFORMS[platform]
    # Neither fast core supports temporal replay; "auto" must route
    # temporal to the event core and everything else to the
    # scoreboard, so comparing "events" against "auto" exercises the
    # fast path exactly where it is reachable in production.
    if mode == ReplayMode.TEMPORAL:
        fast_cores = ("auto",)
    else:
        fast_cores = ("scoreboard", "jit")
    events = replay_fingerprint(bench, target, mode, seed, "events",
                                reduced_deps=reduced_deps)
    for core in fast_cores:
        assert events == replay_fingerprint(
            bench, target, mode, seed, core, reduced_deps=reduced_deps
        ), "core %r diverged from the event oracle" % (core,)


@given(
    sample=st.sampled_from(SAMPLES),
    rules=st.sampled_from(sorted(named_rulesets())),
    reduced_deps=st.booleans(),
    platform=st.sampled_from(["hdd-ext4", "ssd", "smallcache"]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_every_core_identical_under_every_rule_set(
    sample, rules, reduced_deps, platform, seed
):
    """Under any rule set's graph, reduced or full, the scoreboard
    replays byte-identically to the events oracle (one wake order), and
    the JIT, which writes out the scoreboard's gate and release, to
    both."""
    bench = benchmark_for(sample, rules)
    target = PLATFORMS[platform]
    events, scoreboard, jit = [
        replay_fingerprint(bench, target, ReplayMode.ARTC, seed, core,
                           reduced_deps=reduced_deps)
        for core in ("events", "scoreboard", "jit")
    ]
    assert events == scoreboard, (rules, reduced_deps)
    assert scoreboard == jit, (rules, reduced_deps)


@given(
    sample=st.sampled_from(SAMPLES),
    mode=st.sampled_from(
        sorted(m for m in ReplayMode.ALL if m != ReplayMode.TEMPORAL)
    ),
    platform=st.sampled_from(["hdd-ext4", "ssd", "smallcache"]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_shard_jobs1_identical_to_scoreboard(sample, mode, platform, seed):
    """``jobs=1`` degenerates to the scoreboard core exactly: the full
    fingerprint -- simulated timing included -- must be byte-identical."""
    bench = benchmark_for(sample)
    target = PLATFORMS[platform]
    scoreboard = replay_fingerprint(bench, target, mode, seed, "scoreboard")
    sharded = replay_fingerprint(bench, target, mode, seed, "shard", jobs=1)
    assert scoreboard == sharded, (
        "shard core at jobs=1 diverged from the scoreboard"
    )


@given(
    sample=st.sampled_from(SAMPLES),
    platform=st.sampled_from(["hdd-ext4", "ssd", "smallcache"]),
    seed=st.integers(min_value=0, max_value=3),
    jobs=st.sampled_from([2, 4]),
)
@settings(max_examples=10, deadline=None)
def test_shard_multiprocess_semantics_match_event_core(
    sample, platform, seed, jobs
):
    """Forked multi-shard replay must agree with the event oracle on
    everything except simulated timing: per-action errnos and matches,
    warning counts, and the byte-exact final file-system state."""
    bench = benchmark_for(sample)
    target = PLATFORMS[platform]
    events = semantic_fingerprint(
        bench, target, ReplayMode.ARTC, seed, "events"
    )
    sharded = semantic_fingerprint(
        bench, target, ReplayMode.ARTC, seed, "shard", jobs=jobs
    )
    assert events == sharded, (
        "shard core at jobs=%d diverged from the event oracle" % jobs
    )


def test_forcing_fast_core_on_temporal_raises():
    bench = benchmark_for("pages_pdf15")
    for core in ("scoreboard", "jit", "shard"):
        fs = PLATFORMS["ssd"].make_fs(seed=0)
        initialize(fs, bench.snapshot)
        try:
            replay(bench, fs, ReplayConfig(mode=ReplayMode.TEMPORAL, core=core))
        except ReplayError as exc:
            assert "temporal" in str(exc)
        else:
            raise AssertionError(
                "core=%r must reject temporal replay" % (core,)
            )
