"""Command-line interface: ``artc <subcommand>``.

Mirrors how the original ARTC is used from a shell:

- ``artc compile``  trace (+ snapshot) -> benchmark file
- ``artc pack``     benchmark JSON <-> versioned ``.artcb`` artifact
- ``artc replay``   benchmark file (JSON or ``.artcb``) ->
  timing/semantics report
- ``artc verify``   static verification: translation-validate the
  replay cores against the scoreboard semantics and predict replay
  outcomes (errnos + final-state digest) without running them
- ``artc convert``  trace between the JSON, strace and iBench text formats
- ``artc trace``    run a built-in workload on a simulated platform and
  emit its trace + snapshot (this reproduction's substitute for strace
  on a real machine)
- ``artc magritte`` list or generate Magritte suite traces
- ``artc serve``    run the replay-as-a-service daemon (sharded worker
  processes, request coalescing, warm artifact serving; docs/SERVICE.md)
- ``artc submit``   send requests to a running daemon

Trace files ending in ``.strace`` use the strace text format, those
ending in ``.ibench`` the iBench dtrace format; anything else uses the
JSON-lines format (:func:`repro.tracing.trace.format_of`).
"""

import argparse
import json
import sys

from repro.artc.artifact import ArtifactError
from repro.artc.benchmark import FORMAT_FAMILY, CompiledBenchmark
from repro.artc.compiler import compile_trace
from repro.artc.replayer import (
    CAPABILITIES, REPLAY_CORES, SINGLE_PROCESS_CORES, replay,
)
from repro.bench import request
from repro.core.modes import ReplayMode
from repro.errors import BenchmarkError, ReproError
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import JSON_LINES, format_of, read_trace


class _Unreadable(ReproError):
    """An input file the command cannot use; :func:`main` prints
    ``<command>: <path>: <message>`` and exits 2."""


def _load_benchmark(path):
    """The compiled benchmark at ``path``, JSON or ``.artcb``.  A file
    that is missing or that the loader refuses raises
    :class:`_Unreadable`; nothing else is caught."""
    try:
        return CompiledBenchmark.load(path)
    except (BenchmarkError, ArtifactError, OSError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise _Unreadable("%s: %s" % (path, reason)) from exc


def _load_trace(path):
    with open(path) as handle:
        return read_trace(format_of(path), handle.read())


def _save_trace(trace, path):
    with open(path, "w") as handle:
        handle.write(format_of(path).dumps(trace))


def _load_snapshot(path):
    """The snapshot at ``path``; an empty one when no path was given."""
    return Snapshot.load(path) if path else Snapshot()


def cmd_compile(args):
    snapshot = _load_snapshot(args.snapshot)
    if args.stream:
        return _compile_stream(args, snapshot)
    trace = _load_trace(args.trace)
    bench = compile_trace(
        trace, snapshot, ruleset=request.ruleset(args.mode_flags),
        reduce=not args.no_reduce,
    )
    bench.save(args.output)
    if bench.graph.reduced_preds is not None:
        edges = "%d edges (%d after reduction)" % (
            bench.graph.n_edges,
            bench.stats.get("n_edges_reduced", bench.graph.n_edges),
        )
    else:
        edges = "%d edges (reduction skipped)" % bench.graph.n_edges
    print(
        "compiled %s: %d actions, %s, %d model misses, %.3f s -> %s"
        % (
            bench.label or args.trace,
            len(bench),
            edges,
            bench.stats.get("model_misses", 0),
            bench.stats.get("compile_seconds", 0.0),
            args.output,
        )
    )
    if args.dump_ir:
        from repro.artc import planir

        print(planir.default_plan(bench).render(bench, verbose=True))
    return 0


def _compile_stream(args, snapshot):
    """``artc compile --stream``: tail the (possibly still growing)
    trace and compile it incrementally; identical output to the batch
    path (docs/STREAMING.md)."""
    from repro.errors import TraceError
    from repro.stream.follow import ingest_trace

    try:
        result = ingest_trace(
            args.trace, reduce=not args.no_reduce,
            **_stream_options(args, snapshot)
        )
    except TraceError as exc:
        print("compile --stream: %s" % exc, file=sys.stderr)
        return 3
    bench = result.benchmark
    status = result.status
    bench.save(args.output)
    print(
        "streamed %s: %d records -> %d actions, %d torn-tail resyncs"
        " -> %s" % (
            bench.label or args.trace,
            status.records,
            status.fed,
            status.resyncs,
            args.output,
        )
    )
    print("stream-digest: %s" % status.digest)
    _print_stream_warnings(status, args)
    return 0


def _stream_options(args, snapshot):
    """What the streaming flags say, as the keywords ``ingest_trace``
    and ``follow_replay`` share."""
    return {
        "ruleset": request.ruleset(args.mode_flags),
        "snapshot": snapshot,
        "checkpoint_path": args.checkpoint,
        "checkpoint_every": args.checkpoint_every,
        "resume": args.resume,
        "poll": args.poll,
        "idle_timeout": args.idle_timeout or None,
    }


def _print_stream_warnings(status, args):
    """Shared stderr tail for the streaming commands: skipped-line
    summary and checkpoint count."""
    skipped = {
        kind: entry.get("count", 0)
        for kind, entry in status.warnings.items()
    }
    if skipped:
        print(
            "skipped %d unparseable line(s): %r"
            % (sum(skipped.values()), skipped),
            file=sys.stderr,
        )
    if status.checkpoints_written:
        print(
            "checkpoints:   %d -> %s%s"
            % (
                status.checkpoints_written,
                args.checkpoint,
                " (resume verified)" if status.resume_verified else "",
            ),
            file=sys.stderr,
        )


def cmd_pack(args):
    import os

    from repro.artc import artifact

    bench = _load_benchmark(args.benchmark)
    output = args.output
    if not output:
        stem = args.benchmark
        if stem.endswith(".json"):
            stem = stem[: -len(".json")]
        elif stem.endswith(".artcb"):
            stem = stem[: -len(".artcb")]
        output = stem + (".json" if args.unpack else ".artcb")
    bench.save(output)
    if output.endswith(".artcb"):
        print(
            "packed %s: %d actions -> %s (%d bytes, sha256 %s)"
            % (
                bench.label or args.benchmark,
                len(bench),
                output,
                os.path.getsize(output),
                artifact.content_hash(output)[:16],
            )
        )
    else:
        print(
            "unpacked %s: %d actions -> %s (%d bytes)"
            % (
                bench.label or args.benchmark,
                len(bench),
                output,
                os.path.getsize(output),
            )
        )
    return 0


def _export_obs(obs, args):
    """Write ``--metrics-out`` / ``--spans-out`` files, if requested."""
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as handle:
            json.dump(obs.metrics.to_dict(), handle, indent=1)
        print("metrics -> %s" % args.metrics_out, file=sys.stderr)
    if getattr(args, "spans_out", None):
        if args.spans_out.endswith(".jsonl"):
            obs.spans.save_jsonl(args.spans_out)
        else:
            obs.spans.save_chrome(args.spans_out)
        print(
            "%d spans -> %s (open in chrome://tracing or ui.perfetto.dev)"
            % (len(obs.spans), args.spans_out),
            file=sys.stderr,
        )


def _fault_plan_from_args(args):
    """Build a FaultPlan from ``--fault-plan`` and/or ``--fault``
    flags; None when neither was given."""
    plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        plan = FaultPlan.load(args.fault_plan)
    if args.fault:
        from repro.faults import FaultPlan, parse_rule

        if plan is None:
            plan = FaultPlan()
        for text in args.fault:
            plan.add(parse_rule(text))
    if plan is not None and args.fault_seed is not None:
        plan.seed = args.fault_seed
    return plan


def _refuse(core, feature, jobs=1):
    """Pre-check one cell of the replayer's capability table: when
    ``core`` does not take ``feature`` from the command line, print
    the cell's message and return True (the caller exits 2)."""
    cell = CAPABILITIES[core][feature]
    if cell.cli is None or (cell.jobs_only and jobs <= 1):
        return False
    print(cell.cli % {"core": core, "jobs": jobs}, file=sys.stderr)
    return True


def cmd_replay(args):
    from repro.errors import ReplayAborted, TraceError

    core = args.core
    jobs = args.jobs
    if jobs > 1 and core == "auto":
        core = "shard"
    if jobs > 1 and _refuse(core, "jobs", jobs):
        return 2
    faulted = bool(args.fault or args.fault_plan or args.crash_at is not None)
    if args.follow:
        if faulted:
            print("--follow does not combine with fault injection or "
                  "--crash-at; replay the finished trace instead",
                  file=sys.stderr)
            return 2
        if _refuse(core, "follow"):
            return 2
        snapshot, play = _follow(args)
    else:
        if faulted and _refuse(core, "faults", jobs):
            return 2
        bench = _load_benchmark(args.benchmark)
        snapshot = bench.snapshot

        def play(fs, config):
            return replay(bench, fs, config), None

    fields = dict(vars(args), core=core)
    obs = None
    if args.metrics_out or args.spans_out:
        from repro.obs import Observability

        obs = Observability()
    result = state_digest = stream = None
    try:
        if faulted:
            from repro.faults import replay_with_faults

            result = replay_with_faults(
                bench, request.target(fields),
                config=request.replay_config(fields, jobs),
                plan=_fault_plan_from_args(args),
                crash_at=args.crash_at, recover=args.recover,
                seed=args.seed, obs=obs,
            )
            report = result.report
        else:
            (report, stream), state_digest = request.replay_once(
                fields, snapshot, play, obs=obs, jobs=jobs,
                digest=args.state_digest,
            )
    except TraceError as exc:
        print("replay --follow: %s" % exc, file=sys.stderr)
        return 3
    except ReplayAborted as exc:
        if obs is not None:
            _export_obs(obs, args)
        print("replay aborted: %s" % exc, file=sys.stderr)
        for key, value in sorted(getattr(exc, "context", {}).items()):
            print("  %s: %r" % (key, value), file=sys.stderr)
        return 3
    if obs is not None:
        _export_obs(obs, args)
    if result is not None and args.state_digest:
        print("--state-digest ignores fault/crash replays", file=sys.stderr)
    if result is not None and args.fault_log_out:
        with open(args.fault_log_out, "w") as handle:
            json.dump(result.fault_events, handle, indent=1)
        print(
            "%d fault events -> %s" % (len(result.fault_events),
                                       args.fault_log_out),
            file=sys.stderr,
        )
    if args.json:
        summary = report.summary() if result is None else result.summary()
        if stream is not None:
            summary["stream"] = stream.to_dict()
        if state_digest is not None:
            summary["state_digest"] = state_digest
        print(json.dumps(summary, indent=1))
    else:
        _print_report(report, args, state_digest, stream)
        if result is not None:
            if result.fault_counts:
                print("faults:        %d injected %r" % (
                    len(result.fault_events), result.fault_counts))
            if result.crashed:
                print("crashed:       t=%.6f (%d/%d actions completed)" % (
                    result.crashed_at, report.n_actions, len(bench)))
                if result.recovered is not None:
                    print("recovered:     %d entries, %d violation(s)" % (
                        len(result.recovered.entries), len(result.violations)))
                for violation in result.violations:
                    print("violation:     [%s] %s: %s" % (
                        violation.kind, violation.path, violation.message))
                if result.resume_report is not None:
                    resumed = result.resume_report
                    print("resumed:       %d actions, %d failures, "
                          "%.6f s" % (resumed.n_actions, resumed.failures,
                                      resumed.elapsed))
    if result is not None and result.violations:
        return 1  # consistency violations: surviving state broke a promise
    return 0


def _print_report(report, args, state_digest, stream=None):
    """The one text rendering of a replay report.  ``stream`` is the
    status of a ``--follow`` run, which adds its lines to it."""
    if state_digest is not None:
        print("state-digest:  %s" % state_digest)
    print("mode:          %s%s" % (
        report.mode, "" if stream is None else " (%s follow)" % stream.mode))
    print("elapsed:       %.6f simulated seconds" % report.elapsed)
    print("actions:       %d" % report.n_actions)
    print("failures:      %d" % report.failures)
    if report.failures:
        print("  by errno:    %r" % (report.failures_by_errno(),))
    print("thread-time:   %.6f s" % report.thread_time())
    print("concurrency:   %.2f outstanding calls" % report.mean_outstanding())
    if stream is not None:
        print(
            "stream:        %d records, %d resyncs; window high-water "
            "%d (cap %d), %d retired, %d backpressure pauses, "
            "%d cap overrides, %d producer waits"
            % (
                stream.records,
                stream.resyncs,
                stream.window_high_water,
                stream.window_cap,
                stream.retired,
                stream.backpressure_pauses,
                stream.cap_overrides,
                stream.producer_waits,
            )
        )
        print("stream-digest: %s" % stream.digest)
        _print_stream_warnings(stream, args)
    if args.categories:
        for category, seconds in sorted(
            report.thread_time_by_category().items(), key=lambda kv: -kv[1]
        ):
            if seconds:
                print("  %-8s %.6f s" % (category, seconds))
    if args.timeline:
        print(report.render_timeline())
    if args.warnings:
        for warning in report.warnings:
            print("warning: #%d %s: %s" % (warning.idx, warning.kind,
                                           warning.message))


def _follow(args):
    """``artc replay --follow``: the positional is a growing *trace*
    (file or watch-folder); compile and replay it live
    (docs/STREAMING.md).  Returns the snapshot to initialize the target
    with and the ``play(fs, config)`` step for
    :func:`repro.bench.request.replay_once`."""
    from repro.stream.follow import follow_replay

    snapshot = Snapshot.load(args.snapshot) if args.snapshot else None
    options = _stream_options(args, snapshot)

    def play(fs, config):
        return follow_replay(
            args.benchmark, fs, config, window=args.window, **options
        )

    return snapshot, play


def cmd_profile(args):
    """Replay under full instrumentation; explain where the time went."""
    bench = _load_benchmark(args.benchmark)
    platform = request.target(vars(args))
    report, obs, critpath = request.profile_once(vars(args), bench)
    _export_obs(obs, args)
    if args.json:
        print(
            json.dumps(
                {
                    "summary": report.summary(),
                    "critical_path": critpath.to_dict(),
                    "metrics": obs.metrics.to_dict(),
                },
                indent=1,
            )
        )
        return 0
    print("benchmark:       %s" % (bench.label or args.benchmark))
    print("platform:        %s   mode: %s   timing: %s"
          % (platform.name, report.mode, args.timing))
    print("elapsed:         %.6f simulated seconds" % report.elapsed)
    print("thread-time:     %.6f s (%.2f outstanding calls)"
          % (report.thread_time(), report.mean_outstanding()))
    if report.failures:
        print("failures:        %d" % report.failures)
    print()
    print(critpath.render(makespan=report.elapsed))
    print()
    print(obs.metrics.render())
    return 0


def cmd_lint(args):
    from repro.lint import EXIT_INTERNAL, lint_benchmark, lint_trace

    ruleset = request.ruleset(args.mode_flags)
    try:
        bench = _maybe_load_benchmark(args.trace)
        if bench is not None and not args.mode_flags:
            report = lint_benchmark(
                bench, modes=not args.no_modes,
                max_findings=args.max_findings,
            )
        else:
            if bench is not None:
                trace = bench.to_trace()
                snapshot = bench.snapshot
            else:
                trace = _load_trace(args.trace)
                snapshot = _load_snapshot(args.snapshot)
            report = lint_trace(
                trace,
                snapshot,
                ruleset=ruleset,
                modes=not args.no_modes,
                max_findings=args.max_findings,
                reduce=not args.no_reduce,
            )
    except Exception as exc:  # internal error: distinct exit code for CI
        if args.debug:
            raise
        print("lint: internal error: %s" % (exc,), file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render(max_findings=args.max_findings))
    return report.exit_code


def cmd_verify(args):
    from repro.lint import EXIT_INTERNAL
    from repro.verify import CORES, verify_benchmark

    platform = request.platform(args.platform) if args.dynamic else None
    try:
        bench = _maybe_load_benchmark(args.input)
        if bench is None:
            trace = _load_trace(args.input)
            bench = compile_trace(trace, _load_snapshot(args.snapshot))
        if args.core == "all":
            cores = list(CORES)
        else:
            cores = [c.strip() for c in args.core.split(",") if c.strip()]
        modes = None
        if args.modes != "all":
            modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        result = verify_benchmark(
            bench, cores=cores, modes=modes, dynamic=args.dynamic,
            platform=platform, seed=args.seed,
            max_findings=args.max_findings,
            jobs=args.jobs or None,
        )
        if args.embed:
            if not args.input.endswith(".artcb"):
                print("--embed needs an .artcb input; skipping",
                      file=sys.stderr)
            else:
                from repro.artc import artifact

                bench.certificates = result.certificates
                artifact.save(bench, args.input)
                print(
                    "embedded %d certificates -> %s"
                    % (len(result.certificates), args.input),
                    file=sys.stderr,
                )
    except Exception as exc:  # internal error: distinct exit code for CI
        if args.debug:
            raise
        print("verify: internal error: %s" % (exc,), file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps(result.to_dict(), indent=1))
    else:
        print(result.report.render(max_findings=args.max_findings))
        for cert in result.certificates:
            print(
                "certificate %-10s %-8s %d obligations, %d violations"
                % (cert.core, "ok" if cert.ok else "REJECTED",
                   cert.n_obligations, len(cert.findings))
            )
        for pred in result.predictions:
            if pred.status == "exact":
                print(
                    "prediction  %-20s exact    digest %s.."
                    % (pred.mode, (pred.digest or "")[:16])
                )
            else:
                print(
                    "prediction  %-20s UNKNOWN  %s"
                    % (pred.mode, pred.reason)
                )
    return result.exit_code


def cmd_convert(args):
    trace = _load_trace(args.input)
    _save_trace(trace, args.output)
    print("converted %d records -> %s" % (len(trace), args.output))
    return 0


def _maybe_load_benchmark(path):
    """A compiled benchmark if ``path`` holds one, else None.  (Both
    benchmarks and JSON-lines traces are JSON; the format header on
    the first line tells them apart.)"""
    if format_of(path) is not JSON_LINES:
        return None
    if not path.endswith(".artcb"):
        try:
            with open(path) as handle:
                first = handle.readline()
        except ValueError:  # not text, so not a benchmark
            return None
        except OSError:
            return _load_benchmark(path)  # refuses it in one line
        if '"%s' % FORMAT_FAMILY not in first:
            return None
    # Load loudly, so a missing, corrupt or old-format benchmark
    # surfaces its refusal instead of being read as a trace.
    return _load_benchmark(path)


def cmd_stats(args):
    from repro.tracing.stats import format_statistics, trace_statistics

    bench = _maybe_load_benchmark(args.trace)
    if bench is not None:
        stats = bench.stats
        n_edges = stats.get("n_edges", bench.graph.n_edges)
        reduced = stats.get("n_edges_reduced", bench.graph.n_reduced_edges)
        removed = stats.get("edges_removed", n_edges - reduced)
        print("benchmark %s: %d actions, %d threads" % (
            bench.label or "?", len(bench), len(bench.threads)))
        print("edges:           %d materialized" % n_edges)
        print("reduced edges:   %d waited on at replay (%d removed, %.1f%%)" % (
            reduced, removed, (100.0 * removed / n_edges) if n_edges else 0.0))
        print("model misses:    %d" % stats.get("model_misses", 0))
        if "compile_seconds" in stats:
            print("compile time:    %.3f s" % stats["compile_seconds"])
        if args.jobs:
            from repro.artc.shardplan import plan_for

            plan = plan_for(bench, args.jobs)
            print("shard plan:      %d shards for --jobs %d" % (
                plan.stats["shards"], args.jobs))
            print("  cross edges:   %d (cut fraction %.1f%%)" % (
                plan.stats["cross_edges"],
                100.0 * plan.stats["cut_fraction"]))
            print("  shard loads:   %s" % (
                ", ".join(str(c) for c in plan.stats["actions_per_shard"])))
            if plan.stats.get("components") is not None:
                print("  components:    %d (largest %d)" % (
                    plan.stats["components"],
                    plan.stats.get("largest_component", 0)))
            if plan.stats.get("fallback"):
                print("  fallback:      %s" % plan.stats["fallback"])
        if args.ir:
            from repro.artc import planir

            print(planir.default_plan(bench).render(bench))
        from repro.obs import trace_critical_path

        print(trace_critical_path(bench).render())
        print()
        print(format_statistics(trace_statistics(bench.to_trace())))
        return 0
    if args.ir:
        print("--ir needs a compiled benchmark (got a raw trace); "
              "run 'artc compile' first", file=sys.stderr)
        return 1
    trace = _load_trace(args.trace)
    print(format_statistics(trace_statistics(trace)))
    return 0


def cmd_trace(args):
    from repro.bench.harness import trace_application

    app = request.app(args.workload, threads=args.threads)
    platform = request.platform(args.platform)
    result = trace_application(app, platform, seed=args.seed)
    _save_trace(result.trace, args.output)
    snapshot_path = args.snapshot or (args.output + ".snapshot.json")
    result.snapshot.save(snapshot_path)
    print(
        "traced %s on %s: %d events over %.4f s -> %s (+ %s)"
        % (
            app.name,
            platform.name,
            len(result.trace),
            result.elapsed,
            args.output,
            snapshot_path,
        )
    )
    return 0


def cmd_magritte(args):
    from repro.bench.harness import trace_application
    from repro.bench.platforms import PLATFORMS
    from repro.workloads.magritte import build_suite, suite_names

    if args.list:
        for name in suite_names():
            print(name)
        return 0
    if not args.app:
        print("choose --app <name> or --list", file=sys.stderr)
        return 2
    suite = build_suite([args.app])
    result = trace_application(
        suite[args.app], PLATFORMS["mac-ssd"], seed=args.seed, warm_cache=True
    )
    out = args.output or (args.app + ".strace")
    _save_trace(result.trace, out)
    snapshot_path = args.snapshot or (out + ".snapshot.json")
    result.snapshot.save(snapshot_path)
    print(
        "%s: %d events, %d threads -> %s (+ %s)"
        % (args.app, len(result.trace), len(result.trace.threads), out, snapshot_path)
    )
    return 0


def cmd_serve(args):
    """Run the replay-as-a-service daemon until SIGINT/SIGTERM."""
    from repro.serve import QuotaPolicy, ServeConfig, run_server

    if not args.socket and args.port is None:
        print("serve needs --socket PATH and/or --port N", file=sys.stderr)
        return 2
    config = ServeConfig(
        unix_path=args.socket or None,
        host=args.host,
        port=args.port,
        workers=args.workers or None,
        artifact_dir=args.artifact_dir or None,
        default_timeout=args.timeout or None,
        quota=QuotaPolicy(
            max_inflight=args.max_inflight,
            actions_per_sec=args.actions_per_sec,
            burst_actions=args.burst_actions,
        ),
        allow_debug=args.allow_debug,
    )
    return run_server(config)


def _submit_params(args):
    """A request's params: the field flags given (a submit flag declared
    in :data:`_FLAGS`), overlaid on ``--params``; an unset flag sends
    nothing."""
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    params.update(
        (dest, value) for dest, value in vars(args).items()
        if dest in _FLAGS and value is not None
    )
    return params


def cmd_submit(args):
    from repro.serve.client import submit_many

    if not args.socket and args.port is None:
        print("submit needs --socket PATH or --port N", file=sys.stderr)
        return 2
    client_kwargs = (
        {"unix_path": args.socket} if args.socket
        else {"host": args.host, "port": args.port}
    )
    try:
        params = _submit_params(args)
    except ValueError as exc:
        print("submit: %s" % exc, file=sys.stderr)
        return 2
    requests = [(args.kind, params, args.job_timeout)] * args.count
    envelopes = submit_many(
        client_kwargs, requests,
        concurrency=args.concurrency, tenant=args.tenant,
    )
    failed = sum(1 for env in envelopes if not env.get("ok"))
    if args.count == 1 and not args.summary:
        print(json.dumps(envelopes[0], indent=1, sort_keys=True))
    else:
        statuses = {}
        coalesced = cached = 0
        for env in envelopes:
            statuses[env.get("status")] = statuses.get(env.get("status"), 0) + 1
            coalesced += 1 if env.get("coalesced") else 0
            cached += 1 if env.get("cached") else 0
        print(json.dumps({
            "requests": len(envelopes),
            "ok": len(envelopes) - failed,
            "failed": failed,
            "statuses": statuses,
            "coalesced": coalesced,
            "cached": cached,
        }, indent=1, sort_keys=True))
        if args.verbose:
            for env in envelopes:
                print(json.dumps(env, sort_keys=True))
    return 1 if failed else 0


def _declared(*options, **keywords):
    """One :data:`_FLAGS` entry; the flag's default is its field's."""
    dest = options[-1][2:].replace("-", "_")
    if dest in request.DEFAULTS:
        keywords["default"] = request.DEFAULTS[dest]
    return dest, (options, keywords)


#: Every request-field flag and every other flag more than one command
#: takes, declared once with its help text: ``dest`` -> (option
#: strings, ``add_argument`` keywords).  A ``dest`` is the field's name
#: on the wire, and ``artc submit`` takes its request-field flags from
#: here and nowhere else.
_FLAGS = dict([
    # the cell a daemon request names
    _declared("--app", help="cell: Magritte trace or workload name"),
    _declared("--app-args", metavar="JSON", type=json.loads,
              help="workload constructor keywords, e.g. "
              "'{\"nthreads\": 4}'"),
    _declared("--source", help="cell: traced-on platform"),
    _declared("--ruleset", help="compile ruleset flags, "
              "e.g. 'no-file-seq,file-size'"),
    _declared("--warm-cache", action="store_true"),
    _declared("--replay-seed", type=int,
              help="target-platform seed (defaults to the cell seed)"),
    _declared("--benchmark", metavar="PATH",
              help="replay an already-compiled benchmark file "
              "instead of a cell"),
    _declared("--trace", metavar="PATH",
              help="stream: trace file or watch-folder to ingest "
              "(server-side path)"),
    # the replay target
    _declared("-p", "--platform",
              help="simulated platform to run on (the replay target; "
              "for 'verify', of --dynamic)"),
    _declared("-m", "--mode", choices=list(ReplayMode.ALL)),
    _declared("-t", "--timing",
              help="'afap', 'natural', or a predelay scale factor"),
    _declared("--seed", type=int,
              help="the simulated machine's seed ('submit': the cell's "
              "trace seed)"),
    _declared("--jitter", type=float),
    _declared(
        "--core", choices=REPLAY_CORES,
        help="dependency-enforcement core: 'auto' picks the scoreboard "
        "whenever supported and falls back to the per-action event "
        "machinery; 'shard' partitions the benchmark across --jobs "
        "forked worker processes (default: auto)",
    ),
    _declared("--cache-mb", type=int, help="override cache size"),
    _declared("--fsync-mode", choices=["durable", "flush"]),
    # the hardened replayer
    _declared("--retry-max", type=int, metavar="N",
              help="hardened replayer: retry transient EIO up to N "
              "times with capped exponential backoff"),
    _declared("--retry-base", type=float,
              help="base backoff delay in simulated seconds "
              "(default 0.005)"),
    _declared("--watchdog", type=float, metavar="S",
              help="hardened replayer: abort (exit 3) with a cycle "
              "diagnosis if no progress for S simulated seconds"),
    _declared("--degrade", action="store_true",
              help="hardened replayer: record-and-skip actions "
              "whose dependencies failed instead of cascading"),
    # compiling and linting
    _declared("--mode-flags",
              help="comma list of RuleSet flags to compile with, e.g. "
              "'no-file-seq,file-size' ('lint' certifies them instead of "
              "the ARTC default or the benchmark's compiled rule set)"),
    _declared("--no-reduce", action="store_true",
              help="skip the edge-reduction pass: replay waits on (and "
              "'profile' bounds over) every edge, and the 'lint' graph "
              "pass has no reduction to verify"),
    _declared("--no-modes", action="store_true",
              help="skip the per-mode safety matrix"),
    _declared("--max-findings", type=int,
              help="detailed findings shown per pass (default 25)"),
    _declared("--debug", action="store_true",
              help="let internal errors raise instead of exiting 2"),
    # streaming ingestion
    _declared("--checkpoint", metavar="PATH",
              help="write crash-resumable ingestion checkpoints (atomic "
              "rename; 'submit stream' resumes from it on re-submit)"),
    _declared("--checkpoint-every", type=int, metavar="N",
              help="checkpoint every N compiled actions (default 256)"),
    _declared("--resume", action="store_true",
              help="validate against an existing --checkpoint "
              "and continue from the durable prefix"),
    _declared("--poll", type=float, default=0.05, metavar="S",
              help="producer poll interval in wall seconds (default 0.05)"),
    _declared("--idle-timeout", type=float, default=0.0, metavar="S",
              help="abort (exit 3, 'awaiting producer') if the "
              "producer makes no progress for S wall seconds "
              "(0 = wait forever)"),
    # observability exports
    _declared("--metrics-out",
              help="write the metrics registry as JSON (on 'replay' "
              "this enables instrumentation)"),
    _declared("--spans-out",
              help="write spans as Chrome trace_event JSON (.jsonl for "
              "JSON-lines; on 'replay' this enables instrumentation)"),
])

_HARDEN = ("retry_max", "retry_base", "watchdog", "degrade")
_STREAM = ("checkpoint", "checkpoint_every", "resume", "poll", "idle_timeout")
_OBS_OUT = ("metrics_out", "spans_out")


def _flags(parser, *dests, **override):
    """Add the :data:`_FLAGS` named by ``dests`` to ``parser`` (or an
    argument group); ``override`` replaces keywords on each of them --
    ``default=None`` is ``artc submit``'s unset-means-absent."""
    for dest in dests:
        options, keywords = _FLAGS[dest]
        parser.add_argument(*options, **dict(keywords, **override))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="artc", description="ROOT/ARTC trace compiler and replayer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a trace into a benchmark")
    p.add_argument("trace", help="trace file (.strace, .ibench or JSON-lines)")
    p.add_argument("-s", "--snapshot", help="initial file-tree snapshot (JSON)")
    p.add_argument("-o", "--output", default="benchmark.json")
    p.add_argument("--dump-ir", action="store_true",
                   help="print the per-action execution-plan IR after "
                   "compiling (debugging codegen divergences)")
    _flags(p, "mode_flags", "no_reduce")
    stream = p.add_argument_group(
        "streaming ingestion (docs/STREAMING.md)"
    )
    stream.add_argument(
        "--stream", action="store_true",
        help="tail the trace while it is being written (single growing "
        "file or watch-folder of segments; '<trace>.done' or '.done' "
        "marks the end) and compile incrementally -- byte-identical "
        "output to the batch path",
    )
    _flags(stream, *_STREAM)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "pack",
        help="pack a benchmark into a versioned .artcb artifact "
        "(or back to JSON with --unpack)",
    )
    p.add_argument("benchmark", help="benchmark file (.json or .artcb)")
    p.add_argument(
        "-o", "--output",
        help="output path (default: input with the extension swapped); "
        "the extension selects the format",
    )
    p.add_argument(
        "--unpack", action="store_true",
        help="default the output to .json instead of .artcb",
    )
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("replay", help="replay a compiled benchmark")
    p.add_argument("benchmark")
    _flags(p, "platform", "mode", "timing", "seed", "jitter", "core")
    p.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the shard core; --jobs N with "
        "--core auto selects the shard core (default: 1)",
    )
    _flags(p, "cache_mb", "fsync_mode")
    p.add_argument("--categories", action="store_true",
                   help="print the per-category thread-time breakdown")
    p.add_argument("--timeline", action="store_true",
                   help="print an ASCII per-thread concurrency timeline")
    p.add_argument("--warnings", action="store_true",
                   help="print nonconformance warnings")
    _flags(p, *_OBS_OUT)
    p.add_argument("--state-digest", action="store_true",
                   help="print (or add to --json) the canonical digest "
                   "of the final replayed FS state; 'artc serve' replay "
                   "responses carry the same digest, so the two can be "
                   "compared byte for byte")
    p.add_argument("--json", action="store_true")
    fault = p.add_argument_group(
        "fault injection & crash/recovery (repro.faults)"
    )
    fault.add_argument(
        "--fault", action="append", default=[], metavar="RULE",
        help="inject a fault rule: 'kind@time' or 'kind:key=val:...' "
        "(kinds: eio, latency, stall, torn_write); repeatable",
    )
    fault.add_argument("--fault-plan", metavar="PATH",
                       help="load a repro-faultplan-v1 JSON plan")
    fault.add_argument("--fault-seed", type=int, default=None,
                       help="override the plan's RNG seed")
    fault.add_argument("--fault-log-out", metavar="PATH",
                       help="write the injected fault event log as JSON")
    fault.add_argument("--crash-at", type=float, default=None, metavar="T",
                       help="kill the simulated machine at time T; report "
                       "what survived (exit 1 on consistency violations)")
    fault.add_argument("--recover", action="store_true",
                       help="after --crash-at, resume the remaining actions "
                       "on the recovered file system")
    _flags(fault, *_HARDEN)
    follow = p.add_argument_group("live follow (docs/STREAMING.md)")
    follow.add_argument(
        "--follow", action="store_true",
        help="treat the positional as a growing *trace* (file or "
        "watch-folder), compile it incrementally, and replay it live "
        "as it is written -- byte-identical to batch compile+replay",
    )
    follow.add_argument("-s", "--snapshot",
                        help="initial file-tree snapshot (--follow only; "
                        "batch replays embed theirs in the benchmark)")
    _flags(follow, "mode_flags")
    follow.add_argument("--window", type=int, default=4096, metavar="N",
                        help="bounded ingestion window in actions: a "
                        "replay thread that runs dry compiles records up "
                        "to this many ahead of the replay, then ingestion "
                        "pauses; only a thread whose next record lies "
                        "further ahead is fed past it (default 4096)")
    _flags(follow, *_STREAM)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "profile",
        help="replay a compiled benchmark under full instrumentation "
        "and report the critical path + where the time went",
    )
    p.add_argument("benchmark")
    _flags(p, "platform", "mode", "timing", "seed", "cache_mb", "no_reduce",
           *_OBS_OUT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "lint", help="static race & divergence analysis over a trace "
        "or compiled benchmark (exit 0 clean, 1 findings, 2 internal error)"
    )
    p.add_argument("trace", help="trace file or compiled benchmark JSON")
    p.add_argument("-s", "--snapshot", help="initial file-tree snapshot (JSON)")
    _flags(p, "mode_flags", "no_modes", "no_reduce", "max_findings")
    p.add_argument("--json", action="store_true")
    _flags(p, "debug")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "verify", help="static verification: translation-validate the "
        "replay cores and predict replay outcomes without running them "
        "(exit 0 verified, 1 rejected, 2 internal error)"
    )
    p.add_argument("input",
                   help="trace file, benchmark JSON, or .artcb artifact")
    p.add_argument("-s", "--snapshot",
                   help="initial file-tree snapshot (raw traces only)")
    p.add_argument(
        "--core", default="all",
        help="comma list of replay cores to certify: "
        "events,scoreboard,jit (default: all)",
    )
    p.add_argument(
        "--modes", default="all",
        help="comma list of replay modes for abstract prediction "
        "(default: all)",
    )
    p.add_argument("--dynamic", action="store_true",
                   help="cross-check every exact prediction against a "
                   "real replay (any contradiction is an error finding)")
    p.add_argument("-j", "--jobs", type=int, default=0, metavar="N",
                   help="additionally certify the shard core's "
                   "partition plan for N worker processes (every "
                   "cross-shard edge covered by exactly one completion "
                   "flag, shards an exact partition)")
    _flags(p, "platform", "seed", "max_findings")
    p.add_argument("--embed", action="store_true",
                   help="write the certificates back into the input .artcb")
    p.add_argument("--json", action="store_true")
    _flags(p, "debug")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert between trace formats")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "stats", help="summarize a trace's contents (or a compiled "
        "benchmark's graph + compile stats)"
    )
    p.add_argument("trace", help="trace file or compiled benchmark JSON")
    p.add_argument("--ir", action="store_true",
                   help="include the execution-plan IR summary "
                   "(per-thread per-kind counts)")
    p.add_argument("-j", "--jobs", type=int, default=0, metavar="N",
                   help="include the shard-core partition plan for N "
                   "worker processes (shards, cross edges, cut "
                   "fraction)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trace", help="trace a built-in workload")
    p.add_argument("workload")
    _flags(p, "platform")
    p.add_argument("-o", "--output", default="trace.strace")
    p.add_argument("-s", "--snapshot")
    p.add_argument("--threads", type=int, default=8)
    _flags(p, "seed")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("magritte", help="generate Magritte suite traces")
    p.add_argument("--list", action="store_true", help="list the 34 trace names")
    p.add_argument("--app")
    p.add_argument("-o", "--output")
    p.add_argument("-s", "--snapshot")
    _flags(p, "seed")
    p.set_defaults(func=cmd_magritte)

    p = sub.add_parser(
        "serve",
        help="run the replay-as-a-service daemon: sharded worker "
        "processes, request coalescing, per-tenant quotas, warm "
        "serving from the artifact cache (docs/SERVICE.md)",
    )
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket to listen on (JSON-lines + HTTP)")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port to listen on (0 picks a free one)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes / shards (default: cores/2, "
                   "clamped to [2, 8])")
    p.add_argument("--artifact-dir", metavar="DIR",
                   help="content-addressed .artcb cache root (default: "
                   "$ARTC_ARTIFACT_DIR or the user cache dir)")
    p.add_argument("--timeout", type=float, default=0.0, metavar="S",
                   help="default per-request timeout in wall seconds "
                   "(0 = none; a timed-out worker is killed and "
                   "re-spawned)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="per-tenant concurrent-request cap (default 64; "
                   "0 disables)")
    p.add_argument("--actions-per-sec", type=float, default=0.0,
                   help="per-tenant replayed-actions/sec budget "
                   "(default 0: unlimited)")
    p.add_argument("--burst-actions", type=float, default=None,
                   help="token-bucket capacity in actions (default: "
                   "4 x actions-per-sec)")
    p.add_argument("--allow-debug", action="store_true",
                   help="enable 'debug' requests (crash/sleep/echo) "
                   "for tests and drills")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="send requests to a running 'artc serve' daemon",
    )
    p.add_argument("kind", choices=request.KINDS)
    p.add_argument("--socket", metavar="PATH", help="daemon unix socket")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None, help="daemon TCP port")
    fields = p.add_argument_group(
        "request fields",
        "sent as the request's params (paths are the daemon's); an "
        "unset flag sends nothing",
    )
    _flags(fields, "app", "app_args", "source", "ruleset", "warm_cache",
           "platform", "mode", "timing", default=None)
    _flags(fields, "core", default=None, choices=SINGLE_PROCESS_CORES,
           help="dependency-enforcement core (the daemon's workers "
           "replay in-process, so no 'shard')")
    _flags(fields, "seed", "replay_seed", "jitter", "cache_mb", "fsync_mode",
           *_HARDEN, "no_modes", "max_findings", "no_reduce", "benchmark",
           "trace", "checkpoint", "checkpoint_every", default=None)
    p.add_argument("--params", metavar="JSON",
                   help="raw params object (flags above overlay it)")
    p.add_argument("--count", type=int, default=1,
                   help="submit the request N times (load generation)")
    p.add_argument("--concurrency", type=int, default=8,
                   help="client threads/connections for --count (default 8)")
    p.add_argument("--tenant", default="cli")
    p.add_argument("--job-timeout", type=float, default=None, metavar="S",
                   help="server-enforced timeout for each request")
    p.add_argument("--summary", action="store_true",
                   help="print the aggregate summary even for --count 1")
    p.add_argument("--verbose", action="store_true",
                   help="with --count > 1, also print every envelope")
    p.set_defaults(func=cmd_submit)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except request.RequestError as exc:
        print(exc, file=sys.stderr)
        return 2
    except _Unreadable as exc:
        print("%s: %s" % (args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
