"""The benchmark's metric names, as data.

Three tables:

- ``END_TO_END``: what a user of the batch tools sees, reported by
  *every* workload (``BENCHMARK.json`` requires each workload to report
  each end-to-end metric, and none may be zero).  ``bound`` is the share
  by which the metric may worsen before a change is a regression.
- ``PATH_METRICS``: end-to-end metrics of one path that only some
  workloads drive (replay cores, the daemon, accuracy).  They cannot be
  in the first table for that reason, so ``BENCHMARK.json`` files them
  with the per-layer metrics (0 where the workload bypasses the path);
  ``compare.py`` still holds them to their bounds on their workloads.
- ``PER_LAYER``: metrics of single layers, ``<layer>.<what>``.

``aps`` means trace actions per second of host time.  Every time is
host wall-clock unless the name says ``sim``.
"""

import layers

BATCH = ("meta_churn", "ldb_readrandom", "ldb_fillsync", "big_trace")
CORES = ("meta_churn", "ldb_readrandom", "ldb_fillsync", "serve_warm2")
SERVE = ("serve_warm2",)
ALL = BATCH + SERVE

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.15),
    ("compile_aps", "actions/s", "higher", 0.20),
    ("replay_aps", "actions/s", "higher", 0.20),
    ("ingest_aps", "actions/s", "higher", 0.20),
    ("follow_aps", "actions/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: (name, unit, better, bound, workloads that drive the path)
PATH_METRICS = (
    ("replay_events_aps", "actions/s", "higher", 0.20, CORES),
    ("replay_jit_aps", "actions/s", "higher", 0.20, CORES),
    ("serve_rps", "req/s", "higher", 0.25, SERVE),
    ("serve_p50_ms", "ms", "lower", 0.25, SERVE),
    ("serve_p95_ms", "ms", "lower", 0.25, SERVE),
    ("serve_cold_ms", "ms", "lower", 0.25, SERVE),
    ("timing_error_pct", "%", "lower", 0.0, ALL),
    ("failed_share", "share", "lower", 0.0, ALL),
)

_STAGES = (
    ("tracing.parse_s", "s"),
    ("core.model_s", "s"),
    ("core.deps_s", "s"),
    ("core.reduce_s", "s"),
    ("artc.compiler.compile_s", "s"),
    ("artc.artifact.pack_s", "s"),
    ("artc.artifact.unpack_s", "s"),
    ("artc.artifact.bytes", "bytes"),
    ("artc.planir.build_s", "s"),
    ("artc.init.initialize_s", "s"),
    ("artc.report.summary_s", "s"),
    ("core.edges", "count"),
    ("core.edges_reduced", "count"),
    ("core.model_misses", "count"),
    ("artc.codegen.cold_s", "s"),
    ("artc.codegen.breakeven_replays", "replays"),
)

_PROFILE = tuple(
    (layer + suffix, unit)
    for layer in layers.REPLAY_LAYERS
    for suffix, unit in (
        (".self_s", "s"), (".self_share", "share"), (".calls", "count")
    )
)

_SIMULATED = (
    ("storage.cache.hits", "count"),
    ("storage.cache.misses", "count"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.stack.reads_submitted", "count"),
    ("storage.stack.writes_submitted", "count"),
    ("storage.stack.blocks_read", "count"),
    ("storage.stack.blocks_written", "count"),
    ("storage.stack.fsyncs", "count"),
    ("storage.stack.journal_commits", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "events/s"),
    ("artc.replayer.actions", "count"),
    ("artc.replayer.failures", "count"),
    ("artc.replayer.warnings", "count"),
    ("artc.replayer.sim_elapsed_s", "s"),
)

_MODES = (
    ("artc.replayer.single_aps", "actions/s"),
    ("artc.replayer.unconstrained_aps", "actions/s"),
    ("artc.replayer.temporal_aps", "actions/s"),
    ("artc.replayer.single_error_pct", "%"),
    ("artc.replayer.temporal_error_pct", "%"),
    ("artc.replayer.uc_failures", "count"),
    ("artc.replayer.mode_refusals", "count"),
    ("artc.shardcore.aps", "actions/s"),
    ("artc.shardcore.shards", "count"),
    ("artc.shardcore.cut_fraction", "share"),
    ("artc.shardcore.replays", "count"),
    ("artc.shardcore.mismatch_share", "share"),
)

_STREAM = (
    ("stream.ingest_s", "s"),
    ("stream.follow_s", "s"),
    ("stream.follow_over_batch", "ratio"),
    ("stream.window_high_water", "count"),
    ("stream.retired", "count"),
    ("stream.live_vectors", "count"),
    ("stream.backpressure_pauses", "count"),
    ("stream.producer_waits", "count"),
    ("stream.cap_overrides", "count"),
    ("stream.resyncs", "count"),
)

_SERVE = (
    ("serve.warm_requests", "count"),
    ("serve.p99_ms", "ms"),
    ("serve.server_elapsed_p50_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.direct_replay_ms", "ms"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.requests_total", "count"),
    ("serve.cache.compiles", "count"),
    ("serve.cache.warm_hits", "count"),
    ("serve.coalesced_total", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.workers.respawns", "count"),
    ("serve.quota.rejected", "count"),
)

_HOST = (
    ("host.gc_overhead_share", "share"),
    ("host.calibration_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("verify.expected_drift", "count"),
)

#: (name, unit)
PER_LAYER = _STAGES + _PROFILE + _SIMULATED + _MODES + _STREAM + _SERVE + _HOST

#: Metrics a pure speed-up must leave identical: simulated results and
#: counts of deterministic work, never a time or a race with a thread.
EXACT = (
    "timing_error_pct",
    "failed_share",
    "core.edges",
    "core.edges_reduced",
    "core.model_misses",
    "storage.cache.hits",
    "storage.cache.misses",
    "storage.cache.hit_ratio",
    "storage.stack.reads_submitted",
    "storage.stack.writes_submitted",
    "storage.stack.blocks_read",
    "storage.stack.blocks_written",
    "storage.stack.fsyncs",
    "storage.stack.journal_commits",
    "sim.events",
    "artc.replayer.actions",
    "artc.replayer.failures",
    "artc.replayer.warnings",
    "artc.replayer.sim_elapsed_s",
    "artc.replayer.single_error_pct",
    "artc.replayer.temporal_error_pct",
    "artc.replayer.uc_failures",
    "artc.shardcore.shards",
    "artc.shardcore.cut_fraction",
)

UNITS = dict(
    [(name, unit) for name, unit, _b, _bound in END_TO_END]
    + [(name, unit) for name, unit, _b, _bound, _w in PATH_METRICS]
    + list(PER_LAYER)
)


def bounds(workload):
    """``{name: (better, bound)}`` of every bounded metric the workload
    reports: what ``compare.py`` holds two run sets to."""
    out = {name: (better, bound) for name, _u, better, bound in END_TO_END}
    for name, _unit, better, bound, workloads in PATH_METRICS:
        if workload in workloads:
            out[name] = (better, bound)
    return out


def manifest(workloads, run_seconds):
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": module.NAME, "why": module.WHY}
            for module in workloads.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _bound, _w in PATH_METRICS
        ] + [
            {"name": name, "unit": unit, "better": _better(name, unit)}
            for name, unit in PER_LAYER
        ],
    }


def _better(name, unit):
    """Direction of a per-layer metric: rates and hit counts are better
    higher; times, sizes, errors and waste are better lower."""
    if unit in ("actions/s", "events/s", "req/s"):
        return "higher"
    if name in ("storage.cache.hits", "storage.cache.hit_ratio",
                "serve.cache.warm_hits", "serve.warm_requests",
                "stream.retired"):
        return "higher"
    return "lower"
