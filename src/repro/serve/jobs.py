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

Names, defaults and the replay sequence are not this module's: they
come from :mod:`repro.bench.request`, which ``artc replay`` runs too --
same fresh target construction, same snapshot initialization, no cache
drop -- so a serve response's report summary and final FS-state digest
are bit-identical to the CLI's for the same inputs (the serve test
suite and the CI smoke job both assert this).
"""

import time
import traceback

from repro.bench import request
from repro.bench.request import RequestError
from repro.serve import protocol

#: :class:`RequestError` kinds answered 404 (a name that does not
#: exist); every other kind is a 400.
_NOT_FOUND = ("unknown-app", "unknown-platform", "unknown-benchmark",
              "no-trace", "debug-disabled")


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
    """Instantiate the application a cell names (``app`` and
    ``app_args``; see :func:`repro.bench.request.app`)."""
    return request.app(params.get("app"), params.get("app_args"))


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
            raise RequestError("cannot load benchmark %r: %s" % (path, exc),
                               "unknown-benchmark")
        return bench, {"path": path, "cached": True, "key": None}

    app = build_app(params)
    source = request.platform(request.field(params, "source"))
    seed = int(request.field(params, "seed"))
    ruleset = request.ruleset(params.get("ruleset"))
    warm_cache = bool(request.field(params, "warm_cache"))

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
    from repro.artc.replayer import replay

    bench, info = obtain_benchmark(params, ctx)
    report, digest = request.replay_once(
        params, bench.snapshot, lambda fs, config: replay(bench, fs, config)
    )
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
        modes=not request.field(params, "no_modes"),
        max_findings=int(request.field(params, "max_findings")),
    )
    return {"report": report.to_dict(), "artifact": info,
            "cost_actions": len(bench)}


def _job_profile(params, ctx):
    bench, info = obtain_benchmark(params, ctx)
    report, obs, critpath = request.profile_once(params, bench)
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
        max_findings=int(request.field(params, "max_findings")),
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
        raise RequestError("stream params need a 'trace' path", "bad-request")
    if not os.path.exists(path):
        raise RequestError("no trace at %r" % path, "no-trace")
    ruleset = request.ruleset(params.get("ruleset"))
    checkpoint = params.get("checkpoint")
    try:
        result = ingest_trace(
            path,
            ruleset=ruleset,
            label=params.get("label"),
            reduce=not request.field(params, "no_reduce"),
            checkpoint_path=checkpoint,
            checkpoint_every=int(request.field(params, "checkpoint_every")),
            resume=bool(checkpoint),
            wait=False,
        )
    except TraceError as exc:
        raise RequestError("stream ingestion failed: %s" % exc, "bad-trace")
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
        raise RequestError("debug requests are disabled on this server",
                           "debug-disabled")
    op = params.get("op", "echo")
    if op == "echo":
        return {"echo": params.get("payload")}
    if op == "sleep":
        time.sleep(float(params.get("seconds", 1.0)))
        return {"slept": float(params.get("seconds", 1.0))}
    if op == "crash":
        import os

        os._exit(17)
    raise RequestError("unknown debug op %r" % op, "bad-request")


#: kind -> handler, bound from the one tuple of worker kinds: a kind
#: without a ``_job_<kind>`` fails here, at import, not at the 404.
_HANDLERS = {kind: globals()["_job_" + kind] for kind in request.WORKER_KINDS}


def execute(payload, ctx):
    """Run one job; always returns a worker envelope dict.

    ``{"ok": True, "result": ..., "cached": ..., "cost_actions": n}``
    on success; ``{"ok": False, "status": ..., "error": {...}}`` on
    failure.  Unexpected exceptions become 500s with a traceback so
    the requester can file a useful report.
    """
    started = time.perf_counter()
    try:
        result = _HANDLERS[payload.get("kind")](payload.get("params", {}), ctx)
    except RequestError as exc:
        return {
            "ok": False,
            "status": (protocol.NOT_FOUND if exc.kind in _NOT_FOUND
                       else protocol.BAD_REQUEST),
            "error": {"type": exc.kind, "message": str(exc)},
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
