"""The measuring process: one workload, one seed, one mode.

``run.py`` starts this module's :func:`measure` in a fresh child
process after the set-up wrote the inputs.  It runs the workload's
phases inside their shares of ``--seconds``, turns the recorder's
samples into named metrics and writes ``result.json`` (and, traced,
``trace-<workload>.json`` with every span).

Every reported time is the median over the passes of its phase, in
calibrated seconds (``harness``), and every rate is actions over that
median; quartiles, the raw median and the sample count are in the
result's ``samples`` rows.
"""

import os
import platform
import statistics

import metrics
import phases
import tracegen
from harness import Checks, Deadline, dump_json, load_json


def measure(workload, seed, seconds, tracing, quick, workdir):
    inputs = os.path.join(workdir, "inputs")
    reference = load_json(os.path.join(inputs, tracegen.REFERENCE))
    checks = Checks()
    run = phases.Run(workload, seed, inputs, reference, checks,
                     tracing=tracing, quick=quick)
    shares = workload.SHARES[tracing]

    phases.batch_phase(run, Deadline(seconds * shares["batch"]))
    values = {}
    if run.bench is not None:  # nothing replays without a compiled trace
        phases.cores_phase(run, Deadline(seconds * shares["cores"]))
        phases.stream_phase(run, Deadline(seconds * shares["stream"]))
        if workload.SERVE is not None:
            with run.attempt("serve phase"):
                phases.serve_phase(run, Deadline(seconds * shares["serve"]))
        if tracing:
            values.update(phases.profile_phase(run))
            if workload.MODES:
                values.update(phases.modes_phase(run))
            if workload.SHARD:
                values.update(phases.shard_phase(run))
            phases.gc_phase(run)
    values.update(end_to_end(run))
    if tracing:
        values.update(per_layer(run, values))

    result = {
        "workload": workload.NAME,
        "seed": seed,
        "trace": int(tracing),
        "seconds": seconds,
        "quick": quick,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes,
        "values": values,
        "samples": run.rec.sample_rows(),
        "simulated": reference,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
    }
    dump_json(os.path.join(workdir, "result.json"), result)
    if tracing:
        dump_json(
            os.path.join(workdir, "trace-%s.json" % workload.NAME),
            {"workload": workload.NAME, "seed": seed, "spans": run.rec.spans,
             "self_times": run.rec.self_times()},
        )


def _rate(count, seconds):
    return count / seconds if seconds else 0.0


def end_to_end(run):
    """The end-to-end and path metrics this process can see (the
    set-up time and the peak RSS are the parent's to add)."""
    rec = run.rec
    reference = run.reference
    actions = reference["actions"]
    out = {
        "pipeline_s": rec.median("pipeline"),
        "compile_aps": _rate(actions, rec.median("compile_side")),
        "replay_aps": _rate(actions, rec.median("replay.auto")),
        "replay_events_aps": _rate(actions, rec.median("replay.events")),
        "replay_jit_aps": _rate(actions, rec.median("replay.jit")),
        "ingest_aps": _rate(actions, rec.median("stream.ingest")),
        "follow_aps": _rate(actions, rec.median("stream.follow")),
        "timing_error_pct": reference["timing_error_pct"],
        "failed_share": _rate(run.checks.failed, run.checks.attempted),
    }
    out.update(run.serve)
    return out


def per_layer(run, values):
    """Per-layer metrics from the recorder, the counters and the
    profile already in ``values``."""
    rec = run.rec
    reference = run.reference
    actions = reference["actions"]
    median = rec.median
    auto = median("replay.auto")
    saving = auto - median("replay.jit")
    batch = (median("tracing.parse") + median("artc.compiler.compile")
             + median("artc.replayer.replay"))
    gc_on = median("pipeline_gc")
    out = {
        "tracing.parse_s": median("tracing.parse"),
        "core.model_s": median("core.model"),
        "core.deps_s": median("core.deps"),
        "core.reduce_s": median("core.reduce"),
        "artc.compiler.compile_s": median("artc.compiler.compile"),
        "artc.artifact.pack_s": median("artc.artifact.pack"),
        "artc.artifact.unpack_s": median("artc.artifact.unpack"),
        "artc.planir.build_s": median("artc.planir.build"),
        "artc.init.initialize_s": median("artc.init.initialize"),
        "artc.report.summary_s": median("artc.report.summary"),
        "artc.codegen.cold_s": median("artc.codegen.cold"),
        # 0 = the JIT saves nothing per replay here: it never breaks even.
        "artc.codegen.breakeven_replays":
            median("artc.codegen.cold") / saving if saving > 0 else 0.0,
        "sim.events_per_s": _rate(values.get("sim.events", 0), auto),
        "artc.replayer.actions": actions,
        "artc.replayer.failures": reference["failures"],
        "artc.replayer.warnings": reference["warnings"],
        "artc.replayer.sim_elapsed_s": reference["sim_elapsed"],
        "artc.replayer.single_aps": _rate(actions, median("mode.single")),
        "artc.replayer.unconstrained_aps":
            _rate(actions, median("mode.unconstrained")),
        "artc.replayer.temporal_aps": _rate(actions, median("mode.temporal")),
        "artc.shardcore.aps": _rate(actions, median("replay.shard")),
        "stream.ingest_s": median("stream.ingest"),
        "stream.follow_s": median("stream.follow"),
        "stream.follow_over_batch": _rate(median("stream.follow"), batch),
        "host.gc_overhead_share":
            (gc_on - median("pipeline")) / gc_on if gc_on else 0.0,
        "trace.overhead_ratio": _rate(median("replay.profiled"), auto),
        "host.calibration_ms": 1000.0 * statistics.median(rec.loops),
        "verify.expected_drift": expected_drift(run),
    }
    out.update(rec.counters)
    status = run.follow_status
    if status is not None:
        for field in ("window_high_water", "retired", "live_vectors",
                      "backpressure_pauses", "producer_waits",
                      "cap_overrides", "resyncs"):
            out["stream." + field] = getattr(status, field)
    return out


EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
PINNED = ("actions", "sim_elapsed", "failures", "warnings", "fs_digest",
          "timing_error_pct")


def expected_drift(run):
    """Fields of this run's simulated results that differ from the
    pinned ones (``expected.json`` pins seed 0 at full size).  A drift
    fails nothing -- every core still agrees with the oracle -- but it
    shows a model change that moved all cores together."""
    if run.quick:
        return 0
    pinned = load_json(EXPECTED).get(run.workload.NAME, {})
    if pinned.get("seed") != run.seed:
        return 0
    drift = [field for field in PINNED
             if pinned.get(field) != run.reference[field]]
    for field in drift:
        print("expected drift: %s %s: pinned %r, now %r" % (
            run.workload.NAME, field, pinned.get(field),
            run.reference[field]))
    return len(drift)


def contract_metrics(values, tracing):
    """The ``metrics`` object of the contract's result line: every
    end-to-end metric untraced, every per-layer metric traced (0 where
    the workload bypasses the layer)."""
    if tracing:
        names = [row[0] for row in metrics.PATH_METRICS]
        names += [name for name, _unit in metrics.PER_LAYER]
    else:
        names = [row[0] for row in metrics.END_TO_END]
    return {name: {"value": values.get(name, 0), "unit": metrics.UNITS[name]}
            for name in names}
