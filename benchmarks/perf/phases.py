"""The measured phases: timed calls into the layers' public functions.

Every phase takes the :class:`Run` and a :class:`~harness.Deadline`
(its share of the measuring time), files durations in the run's
recorder, and checks each output against the reference the set-up
pinned (``tracegen.generate``).  Nothing here reaches inside a layer:
the cost of a layer is the time spent in calls to its public functions,
and -- inside ``replay`` -- a ``cProfile`` run bucketed by module.

An operation of the program under test that raises is a *failed*
operation (``Run.attempt``): it is counted, reported and skipped, never
timed and never fatal.
"""

import contextlib
import cProfile
import os
import pstats
import statistics
import sys
import threading
import time
import traceback

import layers
import tracegen
from harness import Recorder, gc_quiet, percentile

from repro.artc import artifact, codegen, planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.artc.report import timing_error
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.core.deps import build_dependencies
from repro.core.model import TraceModel
from repro.core.modes import ReplayMode, RuleSet
from repro.core.reduce import reduce_graph
from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.jobs import build_app as build_cell_app
from repro.stream.digest import stream_digest_of
from repro.stream.follow import follow_replay, ingest_trace
from repro.syscalls.emulation import DEFAULT_OPTIONS
from repro.tracing import strace
from repro.tracing.snapshot import Snapshot
from repro.verify.abstract import fs_digest

#: Live-follow settings: a window well under every trace but the serve
#: cell's, fed by an unthrottled producer in mid-line chunks.
FOLLOW_WINDOW = 2048
FOLLOW_CHUNKS = 256
FOLLOW_POLL = 0.001

SOCKET = "serve.sock"


class Run(object):
    """One measuring process: a workload, a seed, the generated files
    and the instruments."""

    def __init__(self, workload, seed, workdir, reference, checks,
                 tracing=False, quick=False):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.checks = checks
        self.tracing = tracing
        self.quick = quick
        self.rec = Recorder(tracing)
        self.trace_path = os.path.join(workdir, tracegen.TRACE)
        self.snapshot_path = os.path.join(workdir, tracegen.SNAPSHOT)
        self.artcb_path = os.path.join(workdir, "bench.artcb")
        self.snapshot = Snapshot.load(self.snapshot_path)
        self.bench = None  # the last artifact a pipeline pass loaded
        self.follow_status = None
        self.serve = {}

    def passes(self, normal):
        """A pass count: ``normal``, or one in a ``--quick`` run."""
        return 1 if self.quick else normal

    def fresh_target(self):
        return tracegen.fresh_target(self.workload, self.seed, self.snapshot)

    @contextlib.contextmanager
    def attempt(self, what):
        """The boundary around the program under test: an exception is
        a failed operation, reported with its traceback."""
        try:
            yield
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.checks.check(
                False, "%s raised %s: %s" % (what, type(exc).__name__, exc)
            )

    def check_replay(self, what, report, fs):
        """A timed replay must reproduce the oracle exactly."""
        seen = tracegen.observed(report, fs)
        wrong = sorted(
            key for key, value in seen.items() if self.reference[key] != value
        )
        self.checks.check(not wrong, "%s differs from the oracle in %s"
                          % (what, ", ".join(wrong)))


# -- batch pipeline ------------------------------------------------------


def pipeline_pass(run, rec, quiet=True):
    """trace file -> report, call by call; the pass is filed under
    ``pipeline`` and its load + compile + save under ``compile_side``.
    Returns what the checks need."""
    rec.pass_id += 1
    call = rec.call
    with gc_quiet() if quiet else contextlib.nullcontext():
        with rec.group("pipeline"):
            with rec.group("compile_side"):
                trace = call("tracing.parse", strace.load, run.trace_path)
                snapshot = call(
                    "tracing.snapshot", Snapshot.load, run.snapshot_path
                )
                bench = call(
                    "artc.compiler.compile", compile_trace, trace, snapshot
                )
                if rec.tracing:
                    # Traced runs split the plan build out of the pack:
                    # pack_s + planir.build_s is what save costs untraced.
                    call("artc.planir.build", planir.default_plan, bench)
                call("artc.artifact.pack", artifact.save, bench,
                     run.artcb_path)
            loaded = call("artc.artifact.unpack", artifact.load,
                          run.artcb_path)
            fs = call("bench.make_fs", PLATFORMS[run.workload.TARGET].make_fs,
                      seed=tracegen.target_seed(run.seed))
            call("artc.init.initialize", initialize, fs, loaded.snapshot)
            call("storage.drop_caches", fs.stack.drop_caches)
            report = call(
                "artc.replayer.replay", replay, loaded, fs, ReplayConfig()
            )
            call("artc.report.summary", report.summary)
    return trace, snapshot, bench, loaded, report, fs


def staged_compile(run, trace, snapshot):
    """The compiler's three stages, timed one by one (traced runs,
    once: the split matters, not its spread)."""
    rec = run.rec
    with gc_quiet():
        model = rec.call("core.model", TraceModel, trace, snapshot)
        graph = rec.call(
            "core.deps", build_dependencies, model.actions,
            RuleSet.artc_default(),
        )
        tid_of = [action.record.tid for action in model.actions]
        rec.call("core.reduce", reduce_graph, graph, tid_of)


def batch_phase(run, deadline):
    rec = run.rec
    done = 0
    while deadline.more(done, run.passes(2)):
        with run.attempt("pipeline pass"):
            trace, snapshot, bench, loaded, report, fs = pipeline_pass(run, rec)
            run.check_replay("pipeline replay", report, fs)
            if run.bench is None:
                want = run.reference["stream_digest"]
                run.checks.check(
                    stream_digest_of(bench) == want,
                    "compiled stream digest differs from set-up's",
                )
                run.checks.check(
                    stream_digest_of(loaded) == want,
                    "reloaded artifact's stream digest differs",
                )
                rec.count("artc.artifact.bytes",
                          os.path.getsize(run.artcb_path))
                rec.count("core.edges", bench.stats["n_edges"])
                rec.count("core.edges_reduced", bench.stats["n_edges_reduced"])
                rec.count("core.model_misses", bench.stats["model_misses"])
                if run.tracing:
                    staged_compile(run, trace, snapshot)
            run.bench = loaded
        done += 1


def gc_phase(run):
    """GC-on pipeline passes, for ``host.gc_overhead_share``."""
    scratch = Recorder()
    with run.attempt("GC-on pipeline pass"):
        for _ in range(run.passes(2)):
            pipeline_pass(run, scratch, quiet=False)
        run.rec.durations["pipeline_gc"] = scratch.durations["pipeline"]
        run.rec.raw["pipeline_gc"] = scratch.raw["pipeline"]


# -- replay cores --------------------------------------------------------


def timed_replay(run, rec, name, config):
    """One replay on a fresh cold target, GC quiet."""
    fs = run.fresh_target()
    with gc_quiet():
        report = rec.call(name, replay, run.bench, fs, config)
    return report, fs


def cores_phase(run, deadline):
    """Interleaved tuples (auto, events, jit, auto, ...) after one
    discarded warm-up tuple."""
    rec = run.rec
    cores = run.workload.CORES
    if "jit" in cores:
        with run.attempt("jit codegen"), gc_quiet():
            # The plan and key the replayer itself will ask for.
            plan = planir.plans_for(
                run.bench, run.bench.platform,
                PLATFORMS[run.workload.TARGET].os_flavor, True,
                DEFAULT_OPTIONS,
            )
            rec.call("artc.codegen.cold", codegen.program_for,
                     run.bench, plan, "artc", True)
    with run.attempt("warm-up tuple"):  # timed nowhere
        for core in cores:
            timed_replay(run, Recorder(), "warmup", ReplayConfig(core=core))
    done = 0
    while deadline.more(done, run.passes(3)):
        rec.pass_id += 1
        for core in cores:
            with run.attempt("replay core=%s" % core):
                report, fs = timed_replay(
                    run, rec, "replay." + core, ReplayConfig(core=core)
                )
                run.check_replay("replay core=%s" % core, report, fs)
        done += 1


# -- streaming -----------------------------------------------------------


def _produce(data, path, chunks):
    """Producer thread: append ``data`` in mid-line chunks, unthrottled,
    then drop the done marker."""
    step = max(1, len(data) // chunks)
    pos = 0
    while pos < len(data):
        nxt = min(len(data), pos + step + (pos % 13))
        with open(path, "ab") as handle:
            handle.write(data[pos:nxt])
        pos = nxt
    with open(path + ".done", "w"):
        pass


def follow_pass(run, data):
    """``follow_replay`` of a file a producer thread is still writing,
    timed from producer start to report."""
    growing = os.path.join(run.workdir, "growing.strace")
    for stale in (growing, growing + ".done"):
        if os.path.exists(stale):
            os.remove(stale)
    with open(growing, "wb"):
        pass
    fs = run.fresh_target()
    producer = threading.Thread(
        target=_produce, args=(data, growing, FOLLOW_CHUNKS)
    )
    with gc_quiet(), run.rec.span("stream.follow"):
        producer.start()
        try:
            report, status = follow_replay(
                growing, fs, ReplayConfig(), snapshot=run.snapshot,
                window=FOLLOW_WINDOW, poll=FOLLOW_POLL,
            )
        finally:
            producer.join()
    run.check_replay("follow replay", report, fs)
    run.checks.check(status.mode == "live",
                     "follow fell back to a %s start" % status.mode)
    run.follow_status = status


def stream_phase(run, deadline):
    rec = run.rec
    with open(run.trace_path, "rb") as handle:
        data = handle.read()
    done = 0
    while deadline.more(done, run.passes(2)):
        rec.pass_id += 1
        with run.attempt("streamed ingest"):
            with gc_quiet():
                result = rec.call("stream.ingest", ingest_trace,
                                  run.trace_path, snapshot=run.snapshot)
            run.checks.check(
                result.finished
                and result.digest == run.reference["stream_digest"],
                "streamed ingest digest differs from the batch compile",
            )
        with run.attempt("follow replay"):
            follow_pass(run, data)
        done += 1


# -- serve ---------------------------------------------------------------


def direct_cell(run, params):
    """The serve cell replayed in-process through the batch functions:
    what the envelope must equal, and the floor of a warm request."""
    traced = trace_application(
        build_cell_app(params), PLATFORMS[params["source"]],
        seed=params["seed"],
    )
    bench = compile_trace(traced.trace, traced.snapshot)
    with run.rec.span("serve.direct_replay"):
        fs = PLATFORMS[params["platform"]].make_fs(seed=params["seed"])
        initialize(fs, bench.snapshot)
        report = replay(bench, fs, ReplayConfig())
        expected = {"summary": report.summary(), "state_digest": fs_digest(fs)}
    return expected


def _check_envelope(run, envelope, expected):
    result = envelope.get("result") or {}
    run.checks.check(
        bool(envelope.get("ok"))
        and result.get("summary") == expected["summary"]
        and result.get("state_digest") == expected["state_digest"],
        "serve envelope differs from the in-process replay (status %s)"
        % envelope.get("status"),
    )


def _request(client, params):
    """One closed-loop request: (started, ended, envelope).  A request
    the client cannot complete is a failed envelope, not a crash."""
    started = time.perf_counter()
    try:
        envelope = client.request("replay", params, check=False)
    except (OSError, ValueError) as exc:
        envelope = {"ok": False, "status": "client: %s" % exc}
    return started, time.perf_counter(), envelope


def serve_phase(run, deadline):
    """Closed loop: cold requests from one connection, then the warm
    cells round-robin from ``CONNECTIONS`` connections until the
    deadline."""
    workload = run.workload
    rec = run.rec
    connect = {
        "unix_path": os.path.relpath(os.path.join(run.workdir, SOCKET)),
        "tenant": "perf",
    }
    cold = [workload.SERVE(run.seed, 100 + index, run.quick)
            for index in range(run.passes(workload.COLD_REQUESTS))]
    warm = [workload.SERVE(run.seed, index, run.quick)
            for index in range(workload.WARM_CELLS)]
    with ServeClient(**connect) as client:
        cold_rows = [_request(client, params) for params in cold]
        for params in warm:  # fill the artifact cache and the worker memos
            _request(client, params)
    for params, (started, ended, envelope) in zip(cold, cold_rows):
        rec.record("serve.cold", started, ended)
        _check_envelope(run, envelope, direct_cell(run, params))
    expected = [direct_cell(run, params) for params in warm]

    # The checks above ate into the share, so the warm loop has a floor.
    ends = time.perf_counter() + max(deadline.left(), 0.3 if run.quick else 2.0)
    lanes = [[] for _ in range(workload.CONNECTIONS)]

    def loop(lane):
        index = lane
        with ServeClient(**connect) as client:
            while time.perf_counter() < ends:
                cell = index % len(warm)
                lanes[lane].append((cell,) + _request(client, warm[cell]))
                index += workload.CONNECTIONS

    threads = [threading.Thread(target=loop, args=(lane,))
               for lane in range(workload.CONNECTIONS)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    rows = [row for lane in lanes for row in lane]
    for cell, started, ended, envelope in rows:
        rec.record("serve.warm", started, ended)
        _check_envelope(run, envelope, expected[cell])
    with ServeClient(**connect) as client:
        metrics = client.metrics()

    def metric(name, field="value"):
        return metrics.get(name, {}).get(field, 0)

    latencies = sorted(1000.0 * s for s in rec.durations.get("serve.warm", ()))
    server = sorted(row[3].get("elapsed_ms", 0.0) for row in rows)
    # Raw like the latencies it is compared with: requests cross
    # processes and cannot be calibrated.
    direct = 1000.0 * statistics.median(rec.raw["serve.direct_replay"])
    p50 = percentile(latencies, 0.50)
    run.serve = {
        "serve_rps": len(rows) / wall,
        "serve_p50_ms": p50,
        "serve_p95_ms": percentile(latencies, 0.95),
        "serve_cold_ms": 1000.0 * rec.median("serve.cold"),
        "serve.warm_requests": len(rows),
        "serve.p99_ms": percentile(latencies, 0.99),
        "serve.server_elapsed_p50_ms": percentile(server, 0.50),
        "serve.client_overhead_ms": p50 - percentile(server, 0.50),
        "serve.direct_replay_ms": direct,
        "serve.overhead_ratio": p50 / direct if direct else 0.0,
        "serve.requests_total": metric("serve.requests_total"),
        "serve.cache.compiles": metric("serve.cache.compiles"),
        "serve.cache.warm_hits": metric("serve.cache.warm_hits"),
        "serve.coalesced_total": metric("serve.coalesced_total"),
        "serve.queue_depth_max": metric("serve.queue_depth_observed", "max"),
        "serve.workers.respawns": metric("serve.workers.respawns"),
        "serve.quota.rejected": metric("serve.quota.rejected"),
    }


# -- the traced run's extras ---------------------------------------------


def profile_phase(run):
    """One ``cProfile``d replay (auto core), bucketed by module, plus
    the simulated counters of that same replay.  Returns ``{metric:
    value}`` (empty if the replay failed)."""
    out = {}
    with run.attempt("profiled replay"):
        fs = run.fresh_target()
        profile = cProfile.Profile()
        with gc_quiet(), run.rec.span("replay.profiled", sample=False):
            profile.enable()
            try:
                report = replay(run.bench, fs, ReplayConfig())
            finally:
                profile.disable()
        run.check_replay("profiled replay", report, fs)
        self_s, calls, events = layers.bucket_profile(pstats.Stats(profile))
        total = sum(self_s.values())
        for layer in layers.REPLAY_LAYERS:
            out[layer + ".self_s"] = self_s[layer]
            out[layer + ".self_share"] = self_s[layer] / total
            out[layer + ".calls"] = calls[layer]
        stats = fs.stack.stats
        cache = fs.stack.cache
        lookups = cache.hits + cache.misses
        out.update({
            "storage.cache.hits": cache.hits,
            "storage.cache.misses": cache.misses,
            "storage.cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
            "storage.stack.reads_submitted": stats.reads_submitted,
            "storage.stack.writes_submitted": stats.writes_submitted,
            "storage.stack.blocks_read": stats.blocks_read,
            "storage.stack.blocks_written": stats.blocks_written,
            "storage.stack.fsyncs": stats.fsyncs,
            "storage.stack.journal_commits": stats.journal_commits,
            "sim.events": events,
        })
    return out


def modes_phase(run):
    """The paper's baseline modes, each on the fastest core that runs
    it.  A mode that refuses the trace (temporal replay deadlocks on
    most seeds of ``meta_churn`` at the parent commit) is counted in
    ``mode_refusals`` and reads 0 -- like the shard core, a refusal
    here is a finding about a mode, not a failed benchmark operation."""
    truth = run.reference["truth_elapsed"]
    out = {"artc.replayer.mode_refusals": 0}
    for key, mode, core in (
        ("single", ReplayMode.SINGLE, "auto"),
        ("unconstrained", ReplayMode.UNCONSTRAINED, "auto"),
        ("temporal", ReplayMode.TEMPORAL, "events"),
    ):
        try:
            for _ in range(run.passes(3)):
                report, _fs = timed_replay(
                    run, run.rec, "mode." + key,
                    ReplayConfig(mode=mode, core=core),
                )
        except ReproError as exc:
            print("%s replay refused: %s" % (mode, str(exc)[:120]))
            out["artc.replayer.mode_refusals"] += 1
            continue
        if key == "unconstrained":
            out["artc.replayer.uc_failures"] = report.failures
        else:
            out["artc.replayer.%s_error_pct" % key] = (
                100.0 * timing_error(report.elapsed, truth)
            )
    return out


def shard_phase(run):
    """The shard core at ``jobs = nproc``.  Its workers run on
    partitioned clocks, so it is compared semantically -- and counted,
    not failed: at the parent commit it is not deterministic."""
    out = {}
    with run.attempt("shard-core replay"):
        replays = run.passes(3)
        mismatches = 0
        for _ in range(replays):
            report, fs = timed_replay(
                run, run.rec, "replay.shard",
                ReplayConfig(core="shard", jobs=os.cpu_count() or 1),
            )
            mismatches += (
                report.failures != run.reference["failures"]
                or len(report.warnings) != run.reference["warnings"]
                or fs_digest(fs) != run.reference["fs_digest"]
            )
        stats = getattr(report, "shard_stats", None) or {}
        out = {
            "artc.shardcore.shards": stats.get("shards", 1),
            "artc.shardcore.cut_fraction": stats.get("cut_fraction", 0.0),
            "artc.shardcore.replays": replays,
            "artc.shardcore.mismatch_share": mismatches / float(replays),
        }
    return out
