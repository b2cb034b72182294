#!/usr/bin/env python
"""Concurrent multi-trace replay via overlaid initialization.

The paper (section 4.3.2): "ARTC also includes options that make it
easy to initialize overlaid file-system trees based on the snapshots
for multiple traces, so that multiple traces can be replayed
concurrently.  For example, one could ... run a workload similar to a
user browsing photos in iPhoto while listening to music in iTunes."

Run with:  python examples/overlay_concurrent.py
"""

from repro.artc.compiler import compile_trace
from repro.artc.init import overlay
from repro.artc.replayer import _ReplayRun, ReplayConfig
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.core.modes import ReplayMode
from repro.sim.events import wait_all
from repro.workloads.magritte import build_suite


def main():
    source = PLATFORMS["mac-hdd"]
    apps = build_suite(["iphoto_view400", "itunes_album1"])
    benches = []
    for name, app in apps.items():
        traced = trace_application(app, source)
        benches.append(compile_trace(traced.trace, traced.snapshot))
        print("traced %-20s %5d events" % (name, len(traced.trace)))

    # One target file system holding both initial trees (the two suites
    # use disjoint /data/<app> subtrees).
    target = PLATFORMS["hdd-ext4"].make_fs(seed=7)
    overlay(target, [bench.snapshot for bench in benches])

    # Solo replays first, for comparison.
    solo = []
    for bench in benches:
        fs = PLATFORMS["hdd-ext4"].make_fs(seed=8)
        overlay(fs, [bench.snapshot])
        runner = _ReplayRun(bench, fs, ReplayConfig(mode=ReplayMode.ARTC))
        solo.append(runner.run().elapsed)

    # Now both at once on the shared target: start the two replay runs
    # in the same simulation and wait for both.
    runs = [
        _ReplayRun(bench, target, ReplayConfig(mode=ReplayMode.ARTC))
        for bench in benches
    ]
    engine = target.engine
    start = engine.now

    # _ReplayRun.run() drives the engine itself; to overlap the two
    # replays, spawn each run's threads without driving and join them.
    all_processes = []
    for runner in runs:
        all_processes.extend(runner.spawn_threads())

    def waiter():
        yield from wait_all([p.done for p in all_processes])

    engine.run_process(waiter(), name="join")
    reports = []
    for runner in runs:
        runner.report.finished = max(r.done for r in runner.report.results)
        reports.append(runner.report)

    print("\n%-20s %10s %12s %s" % ("trace", "solo", "concurrent", "failures"))
    for bench, solo_elapsed, report in zip(benches, solo, reports):
        print("%-20s %9.3fs %11.3fs %8d"
              % (bench.label, solo_elapsed,
                 report.finished - start, report.failures))
    print("\nBoth replays share one disk: each slows down relative to its "
          "solo run, while still replaying correctly — the paper's "
          "photo-browsing-while-listening-to-music scenario.")


if __name__ == "__main__":
    main()
