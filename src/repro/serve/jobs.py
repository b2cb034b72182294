"""Worker-side job execution for ``artc serve``.

This is the only serve module the worker processes import.  Each job
is one request kind applied to a **cell** -- the same
(app, source platform, seed, ruleset) tuple :func:`repro.bench.
harness.replay_matrix` keys its artifact reuse on -- or, for callers
that already hold a compiled benchmark, a ``benchmark`` file path.

Benchmarks are obtained through the content-addressed
:class:`~repro.bench.artifacts.ArtifactCache`: the first request for a
cell traces + compiles and files an ``.artcb``; every later request is
served warm, with a durable sidecar hit recorded as evidence.  On top
of the disk cache each worker keeps an in-memory memo of loaded
benchmarks, so steady-state repeat traffic does not even re-read the
artifact -- it still bumps the hit journal, because "this request was
served without recompiling" is exactly what the journal proves.

Replay jobs mirror ``artc replay`` byte for byte: same fresh target
construction, same snapshot initialization, no cache drop -- so a
serve response's report summary and final FS-state digest are
bit-identical to the CLI's for the same inputs (the serve test suite
and the CI smoke job both assert this).
"""

import time
import traceback

from repro.serve import protocol


class JobError(Exception):
    """A job failed in a way the requester caused (bad name, bad
    params); carries the response status."""

    def __init__(self, message, status=protocol.BAD_REQUEST, error_type="bad-request"):
        Exception.__init__(self, message)
        self.status = status
        self.error_type = error_type


class JobContext(object):
    """Per-worker state: the artifact cache, the benchmark memo, and
    the debug gate."""

    def __init__(self, artifact_dir=None, allow_debug=False):
        from repro.bench.artifacts import ArtifactCache

        self.cache = ArtifactCache(root=artifact_dir)
        self.memo = {}  # artifact key -> CompiledBenchmark
        self.allow_debug = allow_debug
        self.jobs_done = 0
        self.compiles = 0


# -- request-spec resolution -------------------------------------------


def build_app(params):
    """Instantiate the application a cell names.

    ``app`` is a Magritte trace name (``artc magritte --list``) or a
    built-in workload (``randreads``, ``cachereaders``, ``seqreaders``,
    ``leveldb-fillsync``, ``leveldb-readrandom``); ``app_args`` passes
    constructor keywords.  Non-default keywords are folded into the
    app's name so the artifact key (which hashes the name) cannot
    collide across configurations.
    """
    name = params.get("app")
    if not isinstance(name, str) or not name:
        raise JobError("params need an 'app' name", error_type="bad-cell")
    kwargs = params.get("app_args") or {}
    if not isinstance(kwargs, dict):
        raise JobError("'app_args' must be an object", error_type="bad-cell")

    from repro.workloads.magritte import build_suite, suite_names

    if name in suite_names():
        if kwargs:
            raise JobError("Magritte apps take no app_args",
                           error_type="bad-cell")
        return build_suite([name])[name]

    from repro.leveldb.apps import LevelDBFillSync, LevelDBReadRandom
    from repro.workloads import (
        CacheSensitiveReaders,
        CompetingSequentialReaders,
        ParallelRandomReaders,
    )

    factories = {
        "randreads": ParallelRandomReaders,
        "cachereaders": CacheSensitiveReaders,
        "seqreaders": CompetingSequentialReaders,
        "leveldb-fillsync": LevelDBFillSync,
        "leveldb-readrandom": LevelDBReadRandom,
    }
    factory = factories.get(name)
    if factory is None:
        raise JobError(
            "unknown app %r (not a Magritte trace or built-in workload)" % name,
            status=protocol.NOT_FOUND,
            error_type="unknown-app",
        )
    try:
        app = factory(**{str(k): v for k, v in kwargs.items()})
    except TypeError as exc:
        raise JobError("bad app_args for %r: %s" % (name, exc),
                       error_type="bad-cell")
    if kwargs:
        suffix = ",".join(
            "%s=%r" % (key, kwargs[key]) for key in sorted(kwargs)
        )
        app.name = "%s@%s" % (app.name, suffix)
    return app


def lookup_platform(name, cache_mb=0):
    from repro.bench.platforms import PLATFORMS

    try:
        platform = PLATFORMS[name]
    except KeyError:
        raise JobError(
            "unknown platform %r; choose from: %s"
            % (name, ", ".join(sorted(PLATFORMS))),
            status=protocol.NOT_FOUND,
            error_type="unknown-platform",
        )
    if cache_mb:
        platform = platform.variant(cache_bytes=int(cache_mb) << 20)
    return platform


def build_ruleset(spec):
    """``None`` (ARTC default), a ``--mode-flags`` style string, or a
    ``{flag: bool}`` object."""
    from repro.core.modes import RuleSet

    if spec is None:
        return None
    if isinstance(spec, str):
        flags = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("no-"):
                flags[token[3:].replace("-", "_")] = False
            else:
                flags[token.replace("-", "_")] = True
        spec = flags
    if not isinstance(spec, dict):
        raise JobError("'ruleset' must be null, a flag string, or an object",
                       error_type="bad-cell")
    try:
        return RuleSet(**{str(k): bool(v) for k, v in spec.items()})
    except (TypeError, ValueError) as exc:
        raise JobError("bad ruleset: %s" % exc, error_type="bad-cell")


def obtain_benchmark(params, ctx):
    """The compiled benchmark a job's params name.

    Returns ``(benchmark, info)`` where ``info`` records provenance:
    ``cached`` is True whenever no compile happened (memo or disk).
    """
    path = params.get("benchmark")
    if path is not None:
        from repro.artc.benchmark import CompiledBenchmark

        try:
            bench = CompiledBenchmark.load(path)
        except Exception as exc:
            raise JobError("cannot load benchmark %r: %s" % (path, exc),
                           status=protocol.NOT_FOUND,
                           error_type="unknown-benchmark")
        return bench, {"path": path, "cached": True, "key": None}

    app = build_app(params)
    source = lookup_platform(params.get("source", "mac-ssd"))
    seed = int(params.get("seed", 0))
    ruleset = build_ruleset(params.get("ruleset"))
    warm_cache = bool(params.get("warm_cache", False))

    from repro.bench.artifacts import artifact_key

    key = artifact_key(app, source, seed, ruleset, warm_cache)
    bench = ctx.memo.get(key)
    if bench is not None:
        # Served without touching the compiler *or* the disk; the
        # journal still records that this artifact was reused.
        ctx.cache.hits += 1
        ctx.cache.record_hit(key)
        return bench, {"key": key, "cached": True, "memo": True,
                       "path": ctx.cache.path_for(key)}
    bench, info = ctx.cache.get_or_build(
        app, source, seed, ruleset=ruleset, warm_cache=warm_cache
    )
    if not info["cached"]:
        ctx.compiles += 1
    ctx.memo[key] = bench
    info = dict(info)
    info["memo"] = False
    return bench, info


def _replay_config(params):
    from repro.artc.replayer import SINGLE_PROCESS_CORES, ReplayConfig
    from repro.core.modes import ReplayMode
    from repro.syscalls.emulation import EmulationOptions

    mode = params.get("mode", ReplayMode.ARTC)
    if mode not in ReplayMode.ALL:
        raise JobError("unknown mode %r; choose from: %s"
                       % (mode, ", ".join(ReplayMode.ALL)),
                       error_type="bad-cell")
    core = params.get("core", "auto")
    if core not in SINGLE_PROCESS_CORES:
        raise JobError("unknown core %r" % core, error_type="bad-cell")
    timing = params.get("timing", "afap")
    if timing not in ("afap", "natural"):
        try:
            timing = float(timing)
        except (TypeError, ValueError):
            raise JobError("bad timing %r" % timing, error_type="bad-cell")
    harden = None
    if any(params.get(k) for k in ("retry_max", "watchdog", "degrade")):
        from repro.faults import HardenConfig, RetryPolicy

        retry = None
        if params.get("retry_max"):
            retry = RetryPolicy(
                max_attempts=int(params["retry_max"]),
                base=float(params.get("retry_base", 0.005)),
            )
        harden = HardenConfig(
            retry=retry,
            watchdog_stall=float(params["watchdog"]) if params.get("watchdog")
            else None,
            degrade=bool(params.get("degrade", False)),
        )
    return ReplayConfig(
        mode=mode,
        timing=timing,
        jitter=float(params.get("jitter", 0.0)),
        emulation=EmulationOptions(
            fsync_mode=params.get("fsync_mode", "durable")
        ),
        harden=harden,
        core=core,
    )


# -- job handlers ------------------------------------------------------


def _job_compile(params, ctx):
    bench, info = obtain_benchmark(params, ctx)
    return {
        "label": bench.label,
        "actions": len(bench),
        "threads": len(bench.threads),
        "stats": dict(bench.stats),
        "artifact": info,
    }


def _job_replay(params, ctx):
    from repro.artc.init import initialize
    from repro.artc.replayer import replay
    from repro.verify.abstract import fs_digest

    bench, info = obtain_benchmark(params, ctx)
    target = lookup_platform(
        params.get("platform", params.get("source", "hdd-ext4")),
        cache_mb=params.get("cache_mb", 0),
    )
    config = _replay_config(params)
    # Mirrors cmd_replay exactly: fresh target at the replay seed,
    # snapshot initialization, no cache drop.  Divergence here would
    # break the serve==CLI byte-identity guarantee.
    fs = target.make_fs(seed=int(params.get("replay_seed", params.get("seed", 0))))
    if bench.snapshot is not None:
        initialize(fs, bench.snapshot)
    report = replay(bench, fs, config)
    digest = fs_digest(fs)
    fs.stack.close()  # free the machine now, not at a full collection
    return {
        "summary": report.summary(),
        "state_digest": digest,
        "artifact": info,
        "cost_actions": report.n_actions,
    }


def _job_lint(params, ctx):
    from repro.lint import lint_benchmark

    bench, info = obtain_benchmark(params, ctx)
    report = lint_benchmark(
        bench,
        modes=not params.get("no_modes", False),
        max_findings=int(params.get("max_findings", 25)),
    )
    return {"report": report.to_dict(), "artifact": info,
            "cost_actions": len(bench)}


def _job_profile(params, ctx):
    from repro.bench.harness import profile_benchmark

    bench, info = obtain_benchmark(params, ctx)
    target = lookup_platform(
        params.get("platform", params.get("source", "hdd-ext4")),
        cache_mb=params.get("cache_mb", 0),
    )
    config = _replay_config(params)
    report, obs, critpath = profile_benchmark(
        bench,
        target,
        mode=config.mode,
        seed=int(params.get("replay_seed", params.get("seed", 0))),
        timing=config.timing,
    )
    return {
        "summary": report.summary(),
        "critical_path": critpath.to_dict(),
        "metrics": obs.metrics.to_dict(),
        "artifact": info,
        "cost_actions": report.n_actions,
    }


def _job_verify(params, ctx):
    from repro.verify import CORES, verify_benchmark

    bench, info = obtain_benchmark(params, ctx)
    cores = params.get("cores")
    if cores is None:
        cores = list(CORES)
    modes = params.get("modes")
    result = verify_benchmark(
        bench, cores=cores, modes=modes,
        max_findings=int(params.get("max_findings", 25)),
    )
    return {"verify": result.to_dict(), "artifact": info,
            "cost_actions": len(bench)}


def _job_stream(params, ctx):
    """One stateless step of streamed trace ingestion
    (docs/STREAMING.md): consume whatever the producer has written
    beyond the checkpoint, update the checkpoint, and report the
    running chained digest.  Re-submitting the same request resumes
    from the durable prefix -- the trace file is the write-ahead log,
    so the handler itself keeps no state between calls and survives
    worker kills for free."""
    import os

    from repro.errors import TraceError
    from repro.stream.follow import ingest_trace

    path = params.get("trace")
    if not isinstance(path, str) or not path:
        raise JobError("stream params need a 'trace' path",
                       error_type="bad-request")
    if not os.path.exists(path):
        raise JobError("no trace at %r" % path,
                       status=protocol.NOT_FOUND, error_type="no-trace")
    ruleset = build_ruleset(params.get("ruleset"))
    checkpoint = params.get("checkpoint")
    try:
        result = ingest_trace(
            path,
            ruleset=ruleset,
            label=params.get("label"),
            reduce=not params.get("no_reduce", False),
            checkpoint_path=checkpoint,
            checkpoint_every=int(params.get("checkpoint_every", 256)),
            resume=bool(checkpoint),
            wait=False,
        )
    except TraceError as exc:
        raise JobError("stream ingestion failed: %s" % exc,
                       error_type="bad-trace")
    status = result.status
    out = {
        "finished": result.finished,
        "records": status.records,
        "actions": status.fed,
        "digest": status.digest,
        "position": result.position,
        "resyncs": status.resyncs,
        "warnings": status.warnings,
        "resume_verified": status.resume_verified,
        "checkpoints_written": status.checkpoints_written,
        "cost_actions": status.fed,
    }
    if result.finished and params.get("save"):
        result.benchmark.save(params["save"])
        out["saved"] = params["save"]
    return out


def _job_debug(params, ctx):
    """Test/ops hooks, refused unless the server enables them."""
    if not ctx.allow_debug:
        raise JobError("debug requests are disabled on this server",
                       status=protocol.NOT_FOUND, error_type="debug-disabled")
    op = params.get("op", "echo")
    if op == "echo":
        return {"echo": params.get("payload")}
    if op == "sleep":
        time.sleep(float(params.get("seconds", 1.0)))
        return {"slept": float(params.get("seconds", 1.0))}
    if op == "crash":
        import os

        os._exit(17)
    raise JobError("unknown debug op %r" % op, error_type="bad-request")


_HANDLERS = {
    "compile": _job_compile,
    "replay": _job_replay,
    "lint": _job_lint,
    "profile": _job_profile,
    "verify": _job_verify,
    "stream": _job_stream,
    "debug": _job_debug,
}


def execute(payload, ctx):
    """Run one job; always returns a worker envelope dict.

    ``{"ok": True, "result": ..., "cached": ..., "cost_actions": n}``
    on success; ``{"ok": False, "status": ..., "error": {...}}`` on
    failure.  Unexpected exceptions become 500s with a traceback so
    the requester can file a useful report.
    """
    kind = payload.get("kind")
    handler = _HANDLERS.get(kind)
    if handler is None:
        return {
            "ok": False,
            "status": protocol.NOT_FOUND,
            "error": {"type": "unknown-kind",
                      "message": "no worker handler for %r" % kind},
        }
    started = time.perf_counter()
    try:
        result = handler(payload.get("params", {}), ctx)
    except JobError as exc:
        return {
            "ok": False,
            "status": exc.status,
            "error": {"type": exc.error_type, "message": str(exc)},
        }
    except Exception as exc:
        return {
            "ok": False,
            "status": protocol.WORKER_ERROR,
            "error": {
                "type": "job-exception",
                "message": "%s: %s" % (type(exc).__name__, exc),
                "traceback": traceback.format_exc(limit=20),
            },
        }
    ctx.jobs_done += 1
    cost = 0
    cached = None
    if isinstance(result, dict):
        cost = int(result.pop("cost_actions", 0))
        artifact_info = result.get("artifact")
        if isinstance(artifact_info, dict):
            cached = bool(artifact_info.get("cached"))
    return {
        "ok": True,
        "result": result,
        "cached": cached,
        "cost_actions": cost,
        "worker_seconds": time.perf_counter() - started,
    }
