"""The trace writer: every input a workload reads, made from a seed.

``generate`` is the benchmark's set-up.  It traces the workload's
application on the source platform, writes the strace text and the
snapshot next to it, runs the application on the target for the ground
truth, and replays the written file once on the events core -- the
oracle -- to pin what every timed replay must reproduce.  The measured
program afterwards reads only these files:

- ``trace.strace`` (+ ``.done``, the end-of-stream marker the tailer
  waits for) and ``trace.strace.snapshot.json``;
- ``reference.json``: the oracle's simulated results and the ground
  truth.

Seeds: the application is planned from ``seed``; the traced machine
boots with ``seed``, the ground-truth machine with ``seed + 101`` and
every replay target with ``seed + 202`` (separate boots do not share
device phase -- the convention of ``repro.bench.harness``).
"""

import hashlib
import json
import os

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.artc.report import timing_error
from repro.bench import PLATFORMS
from repro.bench.harness import ground_truth_run, trace_application
from repro.stream.digest import stream_digest_of
from repro.tracing import strace
from repro.tracing.snapshot import Snapshot
from repro.verify.abstract import fs_digest

TRACE = "trace.strace"
SNAPSHOT = TRACE + ".snapshot.json"
REFERENCE = "reference.json"


def truth_seed(seed):
    return seed + 101


def target_seed(seed):
    return seed + 202


def results_digest(report):
    """Digest of the per-action ``(idx, ret, err)`` rows of a report."""
    rows = [(r.idx, r.ret, r.err) for r in report.results]
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def fresh_target(workload, seed, snapshot):
    """A target machine as every timed replay finds it: initialized
    from the snapshot, page cache cold."""
    fs = PLATFORMS[workload.TARGET].make_fs(seed=target_seed(seed))
    initialize(fs, snapshot)
    fs.stack.drop_caches()
    return fs


def observed(report, fs):
    """The simulated statistics a replay is checked on."""
    return {
        "actions": report.n_actions,
        "sim_elapsed": report.elapsed,
        "failures": report.failures,
        "warnings": len(report.warnings),
        "results": results_digest(report),
        "fs_digest": fs_digest(fs),
    }


def generate(workload, seed, workdir, rec, quick=False):
    """Write the workload's inputs for ``seed`` into ``workdir`` and
    return the reference (also written to ``reference.json``).  Each
    step is timed through ``rec``; the caller groups them."""
    call = rec.call
    trace_path = os.path.join(workdir, TRACE)
    app = workload.build_app(seed, quick)
    traced = call("setup.trace_app", trace_application, app,
                  PLATFORMS[workload.SOURCE], seed=seed)
    # The roster in the header is what lets --follow replay go live.
    call("setup.write", strace.save, traced.trace.with_roster(), trace_path)
    call("setup.write", traced.snapshot.save, os.path.join(workdir, SNAPSHOT))
    with open(trace_path + ".done", "w"):
        pass
    truth = call("setup.ground_truth", ground_truth_run, app,
                 PLATFORMS[workload.TARGET], seed=truth_seed(seed))

    # The oracle reads the written file, as the measured program will:
    # strace text rounds timestamps, so the in-memory trace differs.
    snapshot = Snapshot.load(os.path.join(workdir, SNAPSHOT))
    bench = call("setup.oracle", compile_trace, strace.load(trace_path),
                 snapshot)
    fs = call("setup.oracle", fresh_target, workload, seed, snapshot)
    report = call("setup.oracle", replay, bench, fs,
                  ReplayConfig(core="events"))
    reference = call("setup.oracle", observed, report, fs)
    reference.update({
        "workload": workload.NAME,
        "seed": seed,
        "threads": len(bench.threads),
        "trace_bytes": os.path.getsize(trace_path),
        "stream_digest": call("setup.oracle", stream_digest_of, bench),
        "truth_elapsed": truth,
        "timing_error_pct": 100.0 * timing_error(report.elapsed, truth),
    })
    with open(os.path.join(workdir, REFERENCE), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
    return reference
