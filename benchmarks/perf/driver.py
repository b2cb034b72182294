"""The benchmark's driver: set-up, processes, printing.

``run.py`` imports this once it has checked that there is a program to
measure.  One workload run (the ``BENCHMARK.json`` contract) sets up in
this process -- several times, for a steady ``setup_s`` -- then measures
in a fresh child (``run.py --child``) that reads only the generated
files, then merges what only the parent can see (set-up time, the peak
RSS of its children).  The all-workloads mode runs such pairs one at a
time and collects their results in one file for ``compare.py``.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import metrics
import tracegen
from harness import Recorder, dump_json, load_json
from measure import EXPECTED, PINNED, contract_metrics, measure
from phases import SOCKET
from workloads import WORKLOADS

from repro.serve.client import ServeClient

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
RUN = os.path.join(HERE, "run.py")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py",
        description="End-to-end and per-layer benchmark of the ARTC "
        "reproduction (benchmarks/perf/README.md).",
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this workload only (the BENCHMARK.json "
                        "contract); default: every workload, one at a time")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload, on "
                        "consecutive seeds from --seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: the traced, per-layer run; 0: the untraced "
                        "run (all-workloads mode does both by default)")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"),
                        help="all-workloads mode: where the runs are "
                        "collected")
    parser.add_argument("--quick", action="store_true",
                        help="harness self-test: inputs an eighth the "
                        "size, one pass of everything")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from seed 0's set-up")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workdir_of(name, seed, trace):
    return os.path.join(OUT, "%s-seed%d-trace%d" % (name, seed, int(trace)))


def run_seconds():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


# -- one workload (the contract) -----------------------------------------


class Daemon(object):
    """``artc serve`` as a subprocess of the set-up."""

    def __init__(self, inputs, workers):
        self.socket = os.path.relpath(os.path.join(inputs, SOCKET))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket, "--workers", str(workers),
             "--artifact-dir", os.path.join(inputs, "artifacts")],
            env=env, stdout=subprocess.DEVNULL,
        )

    def wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while True:
            try:
                with ServeClient(unix_path=self.socket) as client:
                    client.ping()
                return
            except OSError:
                if self.process.poll() is not None:
                    raise RuntimeError("artc serve exited with %s"
                                       % self.process.returncode)
                if time.monotonic() > deadline:
                    raise RuntimeError("artc serve did not come up")
                time.sleep(0.01)

    def stop(self):
        if self.process.poll() is None:
            try:
                with ServeClient(unix_path=self.socket) as client:
                    client.shutdown()
                self.process.wait(timeout=20.0)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()


def set_up(workload, seed, inputs, quick, rec):
    """One set-up, filed under ``setup`` in ``rec``: the generated
    files and, for a serve workload, a freshly started daemon (which is
    returned)."""
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    daemon = None
    with rec.group("setup"):
        tracegen.generate(workload, seed, inputs, rec, quick)
        if workload.SERVE is not None:
            with rec.span("setup.daemon"):
                daemon = Daemon(inputs, workload.WORKERS)
                try:
                    daemon.wait_ready()
                except BaseException:
                    daemon.stop()
                    raise
    return daemon


def run_workload(workload, seed, seconds, tracing, quick):
    """Set up, measure in a child process, merge what only the parent
    can see.  Returns the result dict (also in ``result.json``)."""
    workdir = workdir_of(workload.NAME, seed, tracing)
    inputs = os.path.join(workdir, "inputs")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rec = Recorder()
    daemon = None
    try:
        for _ in range(1 if quick else SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon = set_up(workload, seed, inputs, quick, rec)
        child = [sys.executable, RUN, "--child",
                 "--workload", workload.NAME, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", str(int(tracing))]
        if quick:
            child.append("--quick")
        status = subprocess.call(child)
    finally:
        if daemon is not None:
            daemon.stop()
    if status != 0:
        raise RuntimeError("the measuring process exited with %s" % status)
    result_path = os.path.join(workdir, "result.json")
    result = load_json(result_path)
    result["values"]["setup_s"] = rec.median("setup")
    # The largest process of the workload: the measuring child, or the
    # daemon and its workers.
    result["values"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    result["samples"].update(rec.sample_rows())
    dump_json(result_path, result)
    shutil.rmtree(inputs, ignore_errors=True)
    return result


def print_result(result):
    print("workload %(workload)s  seed %(seed)d  trace %(trace)d  "
          "measured %(seconds)gs" % result)
    for name, value in sorted(result["values"].items()):
        print("  %-34s %16.6g %s" % (name, value, metrics.UNITS[name]))
    print("  timed samples, calibrated seconds: median [q1, q3] n; "
          "raw median")
    for name, row in sorted(result["samples"].items()):
        print("    %-28s %10.5f [%9.5f, %9.5f] %5d; %10.5f" % (
            name, row["median"], row["q1"], row["q3"], row["n"],
            row["raw_median"]))
    print("  checked operations: %(attempted)d attempted, %(failed)d failed"
          % result)
    for note in result["notes"]:
        print("    failed: %s" % note)


def contract_line(result):
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result["values"], bool(result["trace"])),
    })


# -- every workload -------------------------------------------------------


def run_all(args, seconds):
    """Each workload in its own fresh process, one at a time."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in WORKLOADS:
            for trace in traces:
                command = [sys.executable, RUN,
                           "--workload", name, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", str(trace)]
                if args.quick:
                    command.append("--quick")
                output = subprocess.run(
                    command, stdout=subprocess.PIPE, universal_newlines=True
                )
                # The result line is for the driver; the rest reads well.
                sys.stdout.write(
                    "\n".join(output.stdout.splitlines()[:-1]) + "\n\n"
                )
                sys.stdout.flush()
                if output.returncode != 0:
                    raise RuntimeError("%s exited with %s" % (
                        " ".join(command), output.returncode))
                runs.append(load_json(os.path.join(
                    workdir_of(name, seed, trace), "result.json")))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    dump_json(args.out, {"runs": runs})
    failed = sum(run["failed"] for run in runs)
    print("%d runs in %s; %d failed operations"
          % (len(runs), os.path.relpath(args.out), failed))


def pin():
    """Rewrite ``expected.json`` from seed 0's set-up (after a model
    change that is meant to move the simulated results)."""
    inputs = os.path.join(OUT, "pin")
    pinned = {}
    for name, workload in WORKLOADS.items():
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        reference = tracegen.generate(workload, 0, inputs, Recorder())
        pinned[name] = {field: reference[field] for field in PINNED}
        pinned[name]["seed"] = 0
    shutil.rmtree(inputs, ignore_errors=True)
    dump_json(EXPECTED, pinned)


def main(argv):
    args = parse_args(argv)
    seconds = args.seconds if args.seconds is not None else run_seconds()
    if args.quick and args.seconds is None:
        seconds = 0.3
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        run_all(args, seconds)
        return 0
    workload = WORKLOADS[args.workload]
    tracing = bool(args.trace)
    if args.child:
        measure(workload, args.seed, seconds, tracing, args.quick,
                workdir_of(workload.NAME, args.seed, tracing))
        return 0
    result = run_workload(workload, args.seed, seconds, tracing, args.quick)
    print_result(result)
    print(contract_line(result))
    return 0
