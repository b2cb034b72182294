"""Tests for the artc command-line interface."""

import json
import os

import pytest

from repro.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def traced(tmp_path):
    trace_path = str(tmp_path / "t.strace")
    assert run_cli(
        "trace", "randreads", "--threads", "2", "-o", trace_path, "--seed", "3"
    ) == 0
    return trace_path, trace_path + ".snapshot.json"


class TestTraceCommand(object):
    def test_writes_trace_and_snapshot(self, traced):
        trace_path, snapshot_path = traced
        assert os.path.exists(trace_path)
        assert os.path.exists(snapshot_path)

    def test_unknown_workload_errors(self, tmp_path):
        assert run_cli("trace", "nonsense", "-o", str(tmp_path / "x")) == 2


class TestCompileReplay(object):
    def test_compile_then_replay(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        assert run_cli(
            "compile", trace_path, "-s", snapshot_path, "-o", bench_path
        ) == 0
        assert os.path.exists(bench_path)
        capsys.readouterr()  # drain compile output
        assert run_cli("replay", bench_path, "-p", "ssd", "--json") == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["failures"] == 0
        assert payload["mode"] == "artc"

    def test_replay_modes_and_text_output(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", bench_path)
        assert run_cli(
            "replay", bench_path, "-m", "single-threaded", "--categories"
        ) == 0
        out = capsys.readouterr().out
        assert "elapsed:" in out
        assert "failures:      0" in out

    def test_mode_flags_parse(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "b.json")
        assert run_cli(
            "compile", trace_path, "-s", snapshot_path, "-o", bench_path,
            "--mode-flags", "no-file-seq,file-size",
        ) == 0
        from repro.artc.benchmark import CompiledBenchmark

        bench = CompiledBenchmark.load(bench_path)
        assert bench.ruleset.file_size
        assert not bench.ruleset.file_seq

    def test_timeline_and_warnings_output(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", bench_path)
        capsys.readouterr()
        assert run_cli(
            "replay", bench_path, "--timeline", "--warnings"
        ) == 0
        out = capsys.readouterr().out
        assert "|" in out  # timeline rows
        assert "T1" in out

    def test_unknown_platform_errors(self, traced, tmp_path):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", bench_path)
        assert run_cli("replay", bench_path, "-p", "floppy") == 2


class TestPack(object):
    @pytest.fixture
    def bench_path(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", path)
        capsys.readouterr()
        return path

    def test_pack_then_replay_artcb(self, bench_path, capsys):
        packed = bench_path[: -len(".json")] + ".artcb"
        assert run_cli("pack", bench_path) == 0
        out = capsys.readouterr().out
        assert "packed" in out and packed in out
        assert run_cli("replay", packed, "-p", "ssd", "--json") == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["mode"] == "artc"

    def test_unpack_round_trips(self, bench_path, capsys):
        packed = bench_path[: -len(".json")] + ".artcb"
        back = bench_path[: -len(".json")] + ".back.json"
        assert run_cli("pack", bench_path) == 0
        assert run_cli("pack", packed, "--unpack", "-o", back) == 0
        with open(bench_path) as a, open(back) as b:
            assert json.load(a) == json.load(b)

    def test_repack_reproduces_content_hash(self, bench_path, capsys):
        """The hash is a content address: pack -> unpack -> pack lands
        on the same bytes."""
        from repro.artc import artifact

        packed = bench_path[: -len(".json")] + ".artcb"
        back = bench_path[: -len(".json")] + ".back.json"
        repacked = bench_path[: -len(".json")] + ".back.artcb"
        assert run_cli("pack", bench_path) == 0
        assert run_cli("pack", packed, "--unpack", "-o", back) == 0
        assert run_cli("pack", back, "-o", repacked) == 0
        assert artifact.content_hash(repacked) == artifact.content_hash(packed)

    def test_replay_core_flag(self, bench_path, capsys):
        assert run_cli(
            "replay", bench_path, "-p", "ssd", "--core", "scoreboard", "--json"
        ) == 0
        sb = capsys.readouterr().out
        assert run_cli(
            "replay", bench_path, "-p", "ssd", "--core", "events", "--json"
        ) == 0
        ev = capsys.readouterr().out
        assert json.loads(sb[sb.index("{"):]) == json.loads(ev[ev.index("{"):])

    def test_replay_jit_core_flag(self, bench_path, capsys):
        assert run_cli(
            "replay", bench_path, "-p", "ssd", "--core", "jit", "--json"
        ) == 0
        jit = capsys.readouterr().out
        assert run_cli(
            "replay", bench_path, "-p", "ssd", "--core", "events", "--json"
        ) == 0
        ev = capsys.readouterr().out
        assert json.loads(jit[jit.index("{"):]) == json.loads(ev[ev.index("{"):])


class TestProfile(object):
    @pytest.fixture
    def bench_path(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", path)
        capsys.readouterr()
        return path

    def test_human_report(self, bench_path, capsys):
        assert run_cli("profile", bench_path) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "inherent parallelism" in out
        assert "replay.actions" in out
        assert "path covers" in out

    def test_json_report(self, bench_path, capsys):
        assert run_cli("profile", bench_path, "--json") == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["critical_path"]["length"] <= (
            payload["summary"]["elapsed"] + 1e-9
        )
        assert payload["metrics"]["replay.actions"]["value"] == (
            payload["summary"]["actions"]
        )

    def test_exports_chrome_trace_and_metrics(self, bench_path, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        spans_path = str(tmp_path / "spans.json")
        assert run_cli(
            "profile", bench_path,
            "--metrics-out", metrics_path, "--spans-out", spans_path,
        ) == 0
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        assert metrics["replay.actions"]["type"] == "counter"
        with open(spans_path) as handle:
            trace = json.load(handle)
        assert {e["ph"] for e in trace["traceEvents"]} >= {"M", "X"}

    def test_modes_accepted(self, bench_path, capsys):
        assert run_cli("profile", bench_path, "-m", "single-threaded") == 0
        out = capsys.readouterr().out
        assert "single-threaded" in out

    def test_unknown_platform_errors(self, bench_path):
        assert run_cli("profile", bench_path, "-p", "floppy") == 2


class TestReplayObservability(object):
    def test_replay_export_flags(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", bench_path)
        metrics_path = str(tmp_path / "m.json")
        spans_path = str(tmp_path / "s.jsonl")
        assert run_cli(
            "replay", bench_path,
            "--metrics-out", metrics_path, "--spans-out", spans_path,
        ) == 0
        with open(metrics_path) as handle:
            assert "replay.actions" in json.load(handle)
        with open(spans_path) as handle:
            entries = [json.loads(line) for line in handle]
        assert any(entry["cat"] == "syscall" for entry in entries)


class TestStats(object):
    def test_stats_on_benchmark_reports_reduction(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", bench_path)
        capsys.readouterr()
        assert run_cli("stats", bench_path) == 0
        out = capsys.readouterr().out
        assert "materialized" in out
        assert "waited on at replay" in out
        # The wall-clock compile time is not saved, so not reported.
        assert "compile time:" not in out
        assert "critical path:" in out  # trace-weighted chain prediction
        assert "trace weights" in out

    def test_old_format_benchmark_is_refused_not_read_as_a_trace(
            self, tmp_path, capsys):
        path = str(tmp_path / "old.json")
        with open(path, "w") as handle:
            handle.write('{"format": "artc-benchmark-v1", "actions": []}')
        assert run_cli("stats", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("stats: %s: " % path)
        assert "re-compile it from its source" in err

    def test_compile_no_reduce_skips_pass(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        assert run_cli(
            "compile", trace_path, "-s", snapshot_path, "-o", bench_path,
            "--no-reduce",
        ) == 0
        out = capsys.readouterr().out
        assert "after reduction" not in out
        with open(bench_path) as handle:
            payload = json.load(handle)
        assert payload.get("reduced_preds") is None


class TestExecutionPlanIR(object):
    @pytest.fixture
    def bench_path(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", path)
        capsys.readouterr()
        return path

    def test_compile_dump_ir(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        assert run_cli(
            "compile", trace_path, "-s", snapshot_path, "-o", bench_path,
            "--dump-ir",
        ) == 0
        out = capsys.readouterr().out
        assert "execution-plan IR" in out
        assert "kinds:" in out
        # --dump-ir is the verbose per-action listing.
        assert "#0" in out

    def test_stats_ir_summary(self, bench_path, capsys):
        assert run_cli("stats", bench_path, "--ir") == 0
        out = capsys.readouterr().out
        assert "execution-plan IR" in out
        assert "kinds:" in out

    def test_stats_ir_on_artifact(self, bench_path, capsys):
        packed = bench_path[: -len(".json")] + ".artcb"
        assert run_cli("pack", bench_path) == 0
        capsys.readouterr()
        assert run_cli("stats", packed, "--ir") == 0
        out = capsys.readouterr().out
        assert "execution-plan IR" in out

    def test_stats_ir_rejects_raw_trace(self, traced, capsys):
        trace_path, _snapshot_path = traced
        assert run_cli("stats", trace_path, "--ir") == 1
        err = capsys.readouterr().err
        assert "compiled benchmark" in err


class TestConvert(object):
    def test_strace_to_json_and_back(self, traced, tmp_path):
        trace_path, _snap = traced
        json_path = str(tmp_path / "t.jsonl")
        assert run_cli("convert", trace_path, json_path) == 0
        back_path = str(tmp_path / "t2.strace")
        assert run_cli("convert", json_path, back_path) == 0
        from repro.tracing import strace

        original = strace.load(trace_path)
        round_tripped = strace.load(back_path)
        assert len(original) == len(round_tripped)

    def test_ibench_compiles_the_same_batch_and_streamed(self, traced, tmp_path):
        """One rule reads a file's format from its name: ``--stream``
        reads a ``.ibench`` trace as iBench, as a batch compile does."""
        trace_path, snapshot_path = traced
        ibench_path = str(tmp_path / "t.ibench")
        assert run_cli("convert", trace_path, ibench_path) == 0
        open(ibench_path + ".done", "w").close()
        out = {}
        for how in ("batch", "stream"):
            out[how] = str(tmp_path / ("%s.bench.json" % how))
            flags = ["--stream"] if how == "stream" else []
            assert run_cli(
                "compile", ibench_path, "-s", snapshot_path, "-o", out[how], *flags
            ) == 0
        with open(out["batch"], "rb") as batch, open(out["stream"], "rb") as stream:
            assert batch.read() == stream.read()


class TestMagritte(object):
    def test_list_names(self, capsys):
        assert run_cli("magritte", "--list") == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 34
        assert "iphoto_start400" in out

    def test_generate_one_trace(self, tmp_path, capsys):
        out_path = str(tmp_path / "itunes.strace")
        assert run_cli(
            "magritte", "--app", "itunes_startsmall1", "-o", out_path
        ) == 0
        assert os.path.exists(out_path)
        assert os.path.exists(out_path + ".snapshot.json")

    def test_requires_app_or_list(self):
        assert run_cli("magritte") == 2


class TestShardCLI(object):
    @pytest.fixture
    def bench_path(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", path)
        capsys.readouterr()
        return path

    def test_replay_jobs_matches_single_process_digest(self, bench_path,
                                                       capsys):
        assert run_cli(
            "replay", bench_path, "-p", "ssd", "--jobs", "2",
            "--state-digest", "--json",
        ) == 0
        sharded = capsys.readouterr().out
        assert run_cli(
            "replay", bench_path, "-p", "ssd", "--core", "events",
            "--state-digest", "--json",
        ) == 0
        events = capsys.readouterr().out
        sharded = json.loads(sharded[sharded.index("{"):])
        events = json.loads(events[events.index("{"):])
        assert sharded["state_digest"] == events["state_digest"]
        assert sharded["failures"] == events["failures"] == 0

    def test_jobs_requires_shard_core(self, bench_path, capsys):
        assert run_cli(
            "replay", bench_path, "--core", "jit", "--jobs", "2"
        ) == 2
        assert "--core shard" in capsys.readouterr().err

    def test_jobs_refuses_fault_injection(self, bench_path, capsys):
        assert run_cli(
            "replay", bench_path, "--jobs", "2", "--fault", "eio@0.5"
        ) == 2
        err = capsys.readouterr().err
        assert "fault" in err and "--jobs 1" in err

    def test_jobs_refuses_crash_at(self, bench_path, capsys):
        assert run_cli(
            "replay", bench_path, "--jobs", "2", "--crash-at", "0.5"
        ) == 2
        assert "process-global" in capsys.readouterr().err

    def test_follow_refuses_jobs(self, traced, capsys):
        trace_path, _snap = traced
        assert run_cli(
            "replay", trace_path, "--follow", "--jobs", "2"
        ) == 2
        assert "single-process" in capsys.readouterr().err

    def test_follow_refuses_shard_core(self, traced, capsys):
        trace_path, _snap = traced
        assert run_cli(
            "replay", trace_path, "--follow", "--core", "shard"
        ) == 2
        assert "--follow" in capsys.readouterr().err

    def test_stats_jobs_prints_partition(self, bench_path, capsys):
        assert run_cli("stats", bench_path, "--jobs", "4") == 0
        out = capsys.readouterr().out
        assert "shard plan:" in out
        assert "cross edges:" in out
        assert "shard loads:" in out

    def test_verify_jobs_certifies_plan(self, bench_path, capsys):
        assert run_cli("verify", bench_path, "--jobs", "2") == 0
        out = capsys.readouterr().out
        assert "shardplan:jobs=2" in out


class TestBadNames(object):
    """A name the request vocabulary does not have exits 2 with one
    stderr line naming the valid choices -- never a traceback."""

    @pytest.fixture
    def bench_path(self, traced, tmp_path, capsys):
        trace_path, snapshot_path = traced
        path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", path)
        capsys.readouterr()
        return path

    CASES = [
        (["trace", "randreads", "-p", "bogus"], "hdd-ext4"),
        (["compile", "{trace}", "--mode-flags", "bogus"], "file-seq"),
        (["compile", "{trace}", "--mode-flags", "file-seq,"], "file-seq"),
        (["replay", "{bench}", "-t", "fast"], "'afap', 'natural'"),
    ]

    @pytest.mark.parametrize(
        "argv,choice", CASES,
        ids=["platform", "ruleset-flag", "ruleset-empty-flag", "timing"],
    )
    def test_exits_two_naming_the_choices(self, traced, bench_path, capsys,
                                          argv, choice):
        argv = [arg.format(trace=traced[0], bench=bench_path) for arg in argv]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "choose" in captured.err and choice in captured.err

    def test_submit_flags_overlay_params(self):
        """``--params`` help: "flags above overlay it"."""
        from repro.cli import _submit_params, build_parser

        args = build_parser().parse_args(
            ["submit", "replay", "--params", '{"mode": "artc", "seed": 3}',
             "-m", "unconstrained"]
        )
        assert _submit_params(args) == {"mode": "unconstrained", "seed": 3}


class TestUnreadableBenchmark(object):
    """A benchmark file the loader refuses, or that is not there, exits
    2 with one stderr line ``<command>: <path>: <message>`` -- never a
    traceback."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("unreadable")
        trace_path = str(root / "t.strace")
        bench_path = str(root / "bench.json")
        assert run_cli("trace", "randreads", "--threads", "2",
                       "-o", trace_path) == 0
        assert run_cli("compile", trace_path, "-s",
                       trace_path + ".snapshot.json", "-o", bench_path) == 0
        with open(bench_path) as handle:
            payload = json.load(handle)
        payload["reduced_preds"][-1].append(10 ** 6)
        bad_column = str(root / "bad_column.json")
        with open(bad_column, "w") as handle:
            json.dump(payload, handle)
        artcb = str(root / "bench.artcb")
        assert run_cli("pack", bench_path, "-o", artcb) == 0
        with open(artcb, "rb") as handle:
            data = handle.read()
        truncated = str(root / "truncated.artcb")
        with open(truncated, "wb") as handle:
            handle.write(data[: len(data) // 2])
        return {
            "bad-column": (bad_column, "column 'reduced_preds' points outside"),
            "truncated": (truncated, "truncated artifact"),
            "missing": (str(root / "missing.json"), "No such file or directory"),
        }

    @pytest.mark.parametrize("command", ["replay", "pack", "profile", "stats"])
    @pytest.mark.parametrize("case", ["bad-column", "truncated", "missing"])
    def test_exits_two_with_one_line(self, inputs, capsys, command, case):
        path, message = inputs[case]
        capsys.readouterr()
        assert run_cli(command, path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("%s: %s: " % (command, path))
        assert message in captured.err


class TestFollowReport(object):
    def test_follow_prints_what_batch_prints(self, traced, tmp_path, capsys):
        """``--follow`` goes through the one report renderer, so
        ``--categories`` / ``--timeline`` / ``--warnings`` print what
        the batch replay of the same finished trace prints."""
        trace_path, snapshot_path = traced
        bench_path = str(tmp_path / "bench.json")
        run_cli("compile", trace_path, "-s", snapshot_path, "-o", bench_path)
        capsys.readouterr()
        extras = ["-p", "ssd", "--categories", "--timeline", "--warnings"]
        assert run_cli("replay", bench_path, *extras) == 0
        batch = capsys.readouterr().out
        assert "  read " in batch and "|" in batch
        open(trace_path + ".done", "w").close()
        assert run_cli(
            "replay", "--follow", trace_path, "-s", snapshot_path, *extras
        ) == 0
        follow = capsys.readouterr().out
        assert "stream-digest: " in follow
        kept = [
            line.replace(" (live follow)", "")
            for line in follow.splitlines()
            if not line.startswith(("stream:", "stream-digest:"))
        ]
        assert kept == batch.splitlines()
