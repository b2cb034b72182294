"""Ablation: the file-size dependency refinement (paper section 8).

Workload: a producer appends records to a log while consumer threads
repeatedly read the regions the producer has published (a log-follower
pattern).  Under plain ``file_seq`` every consumer read is chained
behind every other access to the log -- heavy overconstraint.  With
stage ordering only, consumers can replay before the data they read
existed (short reads: value mismatches).  The ``file_size`` mode orders
each read behind exactly the append that produced its bytes: correct
*and* flexible -- "somewhere between stage and sequential ordering in
strength".
"""

from conftest import once

from repro.artc.compiler import compile_trace
from repro.bench import PLATFORMS
from repro.bench.harness import replay_benchmark, trace_application
from repro.bench.tables import format_table
from repro.core.modes import ReplayMode, RuleSet
from repro.workloads.microbench import LogFollower

VARIANTS = [
    ("file_seq (ARTC default)", RuleSet()),
    ("file_size (refinement)", RuleSet.with_file_size()),
    ("file_stage only", RuleSet(file_seq=False, file_stage=True)),
]


def test_ablation_file_size_dependencies(benchmark, emit):
    platform = PLATFORMS["hdd-ext4"]
    app = LogFollower()

    def run():
        traced = trace_application(app, platform)
        out = {}
        for label, ruleset in VARIANTS:
            bench = compile_trace(traced.trace, traced.snapshot, ruleset=ruleset)
            worst = 0
            for seed in range(3):
                report = replay_benchmark(
                    bench, platform, ReplayMode.ARTC, seed=700 + seed,
                    jitter=1e-5,
                )
                worst = max(worst, report.failures)
            out[label] = {
                "edges": bench.graph.n_edges,
                "failures": worst,
                "elapsed": report.elapsed,
                "outstanding": report.mean_outstanding(),
            }
        return out

    results = once(benchmark, run)
    rows = [
        [label, r["edges"], r["failures"], "%.3fs" % r["elapsed"],
         "%.2f" % r["outstanding"]]
        for label, r in results.items()
    ]
    emit(
        "ablation_filesize",
        format_table(
            ["File rule", "Edges", "Max failures", "Replay time", "Outstanding"],
            rows,
            title="Ablation: file-size dependencies on a log-follower workload",
        ),
    )
    seq = results["file_seq (ARTC default)"]
    size = results["file_size (refinement)"]
    stage = results["file_stage only"]
    # Correct like file_seq...
    assert size["failures"] == 0
    # ...with fewer constraints...
    assert size["edges"] < seq["edges"]
    # ...while stage-only ordering lets short reads through.
    assert stage["failures"] > 0
