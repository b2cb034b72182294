"""Trace/replay experiment drivers.

The standard experiment shape (paper section 5.2):

1. run the application on the *source* platform with tracing on;
2. run the application on the *target* platform (ground truth);
3. compile the trace and replay it on the target under each mode;
4. compare replay elapsed time to ground truth (timing error) and
   replay results to trace results (semantic failures).
"""

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.artc.report import timing_error
from repro.core.modes import ReplayMode
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS


class TraceResult(object):
    def __init__(self, trace, snapshot, elapsed, app):
        self.trace = trace
        self.snapshot = snapshot
        self.elapsed = elapsed
        self.app = app


def trace_application(app, platform, seed=0, warm_cache=False):
    """Run ``app`` on ``platform`` with passive tracing.

    Returns a :class:`TraceResult` carrying the trace, the pre-run
    snapshot (captured before the app runs, as ARTC requires), and the
    traced run's elapsed time.
    """
    fs = platform.make_fs(seed)
    app.setup(fs)
    snapshot = Snapshot.capture(
        fs,
        roots=app.roots,
        include_xattrs=getattr(app, "snapshot_xattrs", True),
        label=app.name,
    )
    if not warm_cache:
        fs.stack.drop_caches()
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label=app.name, platform=platform.os_flavor)
    elapsed = fs.engine.run_process(app.main(osapi), name="%s-main" % app.name)
    # Records stay in completion order (what strace emits): descriptor
    # numbers are assigned at completion, so that order keeps fd
    # generations consistent.  The rare inversions this leaves (e.g. a
    # failed O_EXCL open completing before its creator) are the same
    # trace ambiguities the paper reports working around.
    return TraceResult(trace, snapshot, elapsed, app)


def ground_truth_run(app, platform, seed=0, warm_cache=False):
    """The application's real elapsed time on ``platform``."""
    fs = platform.make_fs(seed)
    app.setup(fs)
    if not warm_cache:
        fs.stack.drop_caches()
    osapi = TracedOS(fs)  # untraced: no trace attached
    return fs.engine.run_process(app.main(osapi), name="%s-truth" % app.name)


def replay_benchmark(
    benchmark,
    platform,
    mode=ReplayMode.ARTC,
    seed=0,
    timing="afap",
    jitter=0.0,
    warm_cache=False,
    emulation=None,
):
    """Initialize a fresh target and replay ``benchmark`` on it."""
    fs = platform.make_fs(seed)
    if benchmark.snapshot is not None:
        initialize(fs, benchmark.snapshot)
    if not warm_cache:
        fs.stack.drop_caches()
    kwargs = {"mode": mode, "timing": timing, "jitter": jitter}
    if emulation is not None:
        kwargs["emulation"] = emulation
    return replay(benchmark, fs, ReplayConfig(**kwargs))


def replay_matrix(
    app,
    source,
    target,
    modes=(ReplayMode.SINGLE, ReplayMode.TEMPORAL, ReplayMode.ARTC),
    seed=0,
    timing="afap",
    ruleset=None,
    warm_cache=False,
    artifact_cache=None,
):
    """The standard accuracy experiment for one source/target pair.

    Returns a dict with the original's target elapsed time and, per
    mode, the replay elapsed time and signed/absolute error.

    ``artifact_cache`` short-circuits the trace+compile through the
    content-addressed ``.artcb`` store (:mod:`repro.bench.artifacts`):
    pass a cache (or ``True`` for the default one) and every cell
    sharing this (app, source, seed, ruleset) reuses one compiled
    benchmark.  The default ``None`` consults the cache only when
    ``$ARTC_ARTIFACT_DIR`` opts the process in; ``False`` disables it.
    """
    from repro.bench import artifacts

    # Distinct seeds per run: separate boots of a machine do not share
    # device state (rotational phase), so the traced run, the ground
    # truth, and each replay get their own.
    cache = artifacts.resolve(artifact_cache)
    artifact_info = None
    if cache is not None:
        benchmark, artifact_info = cache.get_or_build(
            app, source, seed, ruleset=ruleset, warm_cache=warm_cache
        )
        source_elapsed = benchmark.stats.get("source_elapsed", 0.0)
        trace_events = benchmark.stats.get("trace_events", len(benchmark))
    else:
        traced = trace_application(app, source, seed, warm_cache=warm_cache)
        benchmark = compile_trace(traced.trace, traced.snapshot, ruleset=ruleset)
        source_elapsed = traced.elapsed
        trace_events = len(traced.trace)
    original = ground_truth_run(app, target, seed + 101, warm_cache=warm_cache)
    rows = {}
    for index, mode in enumerate(modes):
        report = replay_benchmark(
            benchmark, target, mode, seed + 202 + index, timing,
            warm_cache=warm_cache,
        )
        rows[mode] = {
            "elapsed": report.elapsed,
            "error": timing_error(report.elapsed, original),
            "signed_error": (report.elapsed - original) / original if original else 0.0,
            "failures": report.failures,
            "report": report,
        }
    result = {
        "app": app.name,
        "source": source.name,
        "target": target.name,
        "original": original,
        "source_elapsed": source_elapsed,
        "trace_events": trace_events,
        "modes": rows,
        "benchmark": benchmark,
    }
    if artifact_info is not None:
        result["artifact"] = artifact_info
    return result


def matrix_summary(result):
    """A JSON-serializable view of a :func:`replay_matrix` result.

    Drops the live ``report`` / ``benchmark`` objects but keeps every
    number the paper's tables consume, so matrix cells can cross
    process boundaries (:mod:`repro.bench.parallel`).
    """
    out = {k: v for k, v in result.items() if k not in ("modes", "benchmark")}
    out["compile_stats"] = dict(result["benchmark"].stats)
    out["modes"] = {
        mode: {
            "elapsed": row["elapsed"],
            "error": row["error"],
            "signed_error": row["signed_error"],
            "failures": row["failures"],
            "warnings": len(row["report"].warnings),
        }
        for mode, row in result["modes"].items()
    }
    return out
