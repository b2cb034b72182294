"""Self-test of the benchmark harness (not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Checks the harness, not the program's speed: the layer map against the
tree, ``BENCHMARK.json`` against the metric tables, the result schema
and determinism of a ``--quick`` pass over every workload, the
comparer's verdicts, and the refusal to run without a program.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
from harness import Recorder, load_json  # noqa: E402
from measure import contract_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_source_file_has_exactly_one_layer():
    assert layers.check_map(os.path.join(REPO, "src", "repro")) == []
    for layer in layers.REPLAY_LAYERS[:-1]:
        assert any(layer == mapped for _prefix, mapped in layers.LAYERS), layer


def test_manifest_is_the_metric_tables_and_within_limits():
    manifest = load_json(os.path.join(REPO, "BENCHMARK.json"))
    assert manifest == metrics.manifest(WORKLOADS, manifest["run_seconds"])
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in manifest[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher"), row
    for row in manifest["end_to_end"]:
        assert 0 < row["bound"] <= 0.25, row
    for row in manifest["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"], row
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in manifest["end_to_end"]


def test_self_time_is_duration_minus_children():
    rec = Recorder(tracing=True)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    spans = {row["name"]: row for row in rec.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    own = rec.self_times()
    outer = spans["outer"]["end"] - spans["outer"]["start"]
    inner = spans["inner"]["end"] - spans["inner"]["start"]
    assert own["outer"] == pytest.approx(outer - inner)
    assert Recorder(tracing=False).spans == []


def test_a_call_that_raises_is_not_a_sample():
    rec = Recorder()
    with rec.group("pass"):
        rec.call("fine", len, "ab")
        with pytest.raises(ZeroDivisionError):
            rec.call("broken", lambda: 1 / 0)
    assert "broken" not in rec.durations
    assert len(rec.durations["fine"]) == len(rec.durations["pass"]) == 1


def _run_set(values_by_seed, workload="meta_churn", trace=0):
    return {(workload, trace): dict(enumerate(values_by_seed))}


def test_compare_verdicts():
    steady = [{"pipeline_s": 1.0 + 0.001 * i} for i in range(10)]
    slower = [{"pipeline_s": 1.3 + 0.001 * i} for i in range(10)]
    noisy = [{"pipeline_s": 1.0 + 0.1 * i} for i in range(10)]

    def verdict(a, b):
        row = compare.compare_metric(
            "pipeline_s", "lower", 0.15,
            _run_set(a)[("meta_churn", 0)], _run_set(b)[("meta_churn", 0)],
        )
        return row["verdict"]

    assert verdict(steady, steady) == "ok"
    assert verdict(steady, slower) == "regressed"
    assert verdict(slower, steady) == "ok"
    assert verdict(noisy, noisy) == "unresolved"
    exact = compare.compare_metric(
        "timing_error_pct", "lower", 0.0,
        {0: {"timing_error_pct": 2.5}}, {0: {"timing_error_pct": 2.6}},
    )
    assert exact["verdict"] == "differs"
    assert compare.exact_differences(
        {0: {"sim.events": 10}}, {0: {"sim.events": 11}}
    ) == [(0, "sim.events", 10, 11)]


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """One ``--quick`` pass over every workload, both modes, plus a
    second traced pass for the determinism check."""
    out = tmp_path_factory.mktemp("perf")
    first, second = str(out / "first.json"), str(out / "second.json")
    subprocess.check_call([sys.executable, RUN, "--quick", "--out", first],
                          stdout=subprocess.DEVNULL)
    subprocess.check_call(
        [sys.executable, RUN, "--quick", "--trace", "1", "--out", second],
        stdout=subprocess.DEVNULL,
    )
    return load_json(first)["runs"], load_json(second)["runs"]


def test_quick_pass_schema_and_checks(quick_runs):
    runs, _again = quick_runs
    assert {(run["workload"], run["trace"]) for run in runs} == {
        (name, trace) for name in WORKLOADS for trace in (0, 1)
    }
    for run in runs:
        where = (run["workload"], run["trace"])
        values = run["values"]
        assert run["failed"] == 0 and run["attempted"] >= 1, (where, run["notes"])
        assert values["failed_share"] == 0, where
        for name in values:
            assert NAME.match(name) and name in metrics.UNITS, name
        reported = contract_metrics(values, bool(run["trace"]))
        if not run["trace"]:
            assert set(reported) == {row[0] for row in metrics.END_TO_END}
            for name, cell in reported.items():
                assert cell["value"] > 0, (where, name)
        else:
            assert len(reported) == len(metrics.PATH_METRICS) + len(
                metrics.PER_LAYER)
            shares = sum(values[layer + ".self_share"]
                         for layer in layers.REPLAY_LAYERS)
            assert shares == pytest.approx(1.0, abs=0.01), where
        # Every path metric is there, and nonzero, on its workloads.
        for name, _unit, _better, bound, workloads in metrics.PATH_METRICS:
            if run["workload"] in workloads and bound > 0:
                assert values.get(name, 0) > 0, (where, name)


def test_same_seed_gives_the_same_simulated_counts(quick_runs):
    runs, again = quick_runs
    first = {run["workload"]: run for run in runs if run["trace"]}
    for run in again:
        before = first[run["workload"]]
        assert run["simulated"] == before["simulated"], run["workload"]
        for name in metrics.EXACT:
            assert run["values"].get(name) == before["values"].get(name), (
                run["workload"], name)


def test_contract_result_line():
    output = subprocess.check_output(
        [sys.executable, RUN, "--workload", "ldb_fillsync", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--quick"],
        universal_newlines=True,
    )
    line = json.loads(output.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {row[0] for row in metrics.END_TO_END}
    for name, cell in line["metrics"].items():
        assert sorted(cell) == ["unit", "value"] and cell["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(
        HERE, str(tmp_path / "benchmarks" / "perf"),
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "meta_churn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
