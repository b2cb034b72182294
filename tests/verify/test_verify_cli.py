"""The ``artc verify`` command end to end: clean artifacts certify
with exit 0 on the plan this build derives from them (an artifact
carries none to go stale -- the in-memory stale-plan cases are
tests/verify/test_transval.py), and ``--embed`` persists the
certificates."""

import json

import pytest

from repro import cli
from repro.artc import artifact, planir
from repro.artc.compiler import compile_trace
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.cli import main
from repro.core.modes import ReplayMode

SAMPLE = "itunes_startsmall1"

_traced = []


def run_cli(*argv):
    return main(list(argv))


def fresh_benchmark():
    if not _traced:
        from repro.workloads.magritte import build_suite

        app = build_suite([SAMPLE])[SAMPLE]
        _traced.append(trace_application(app, PLATFORMS["mac-hdd"], seed=0))
    traced = _traced[0]
    return compile_trace(traced.trace, traced.snapshot)


@pytest.fixture()
def clean_artcb(tmp_path):
    path = str(tmp_path / "clean.artcb")
    artifact.save(fresh_benchmark(), path)
    return path


def payload_of(capsys):
    out, _ = capsys.readouterr()
    return json.loads(out[out.index("{"):])


def finding_checks(payload):
    return [
        finding["check"]
        for pass_dict in payload["passes"]
        for finding in pass_dict["findings"]
    ]


class TestVerifyCommand(object):
    def test_clean_artifact_verifies(self, clean_artcb, capsys):
        rc = run_cli("verify", clean_artcb, "--json")
        payload = payload_of(capsys)
        assert rc == 0
        assert payload["clean"] is True
        certs = payload["certificates"]
        assert sorted(c["core"] for c in certs) == ["events", "jit",
                                                    "scoreboard"]
        assert all(c["ok"] for c in certs)
        assert all(c["violations"] == [] for c in certs)
        preds = payload["predictions"]
        assert set(p["mode"] for p in preds) == set(ReplayMode.ALL)
        for pred in preds:
            if pred["status"] == "exact":
                assert pred["digest"] and pred["unknown"] == 0
            else:
                assert pred["digest"] is None

    def test_human_output_lists_certificates_and_predictions(
            self, clean_artcb, capsys):
        rc = run_cli("verify", clean_artcb)
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "certificate events" in out
        assert "certificate jit" in out
        assert "prediction" in out

    def test_corrupted_plan_rejected(self, clean_artcb, capsys, monkeypatch):
        """The stale-bound-constant hazard, in memory (an artifact
        carries no plan to corrupt on disk): the plan cached on the
        loaded benchmark no longer matches its actions."""
        bench = artifact.load(clean_artcb)
        plan = planir.default_plan(bench)
        for idx, entry in enumerate(plan.entries):
            if entry[0] == planir.STATIC:
                call, args, name, kind = entry[1]
                stale = (call, dict(args, path="/corrupted-by-test"), name, kind)
                plan.entries[idx] = (planir.STATIC, stale) + entry[2:]
                break
        else:
            raise AssertionError("sample has no STATIC plan entry")
        monkeypatch.setattr(cli, "_maybe_load_benchmark", lambda path: bench)
        rc = run_cli("verify", clean_artcb, "--json")
        payload = payload_of(capsys)
        assert rc == 1
        assert payload["clean"] is False
        assert "stale-plan-entry" in finding_checks(payload)

    def test_certifies_the_plan_it_derives(self, clean_artcb, capsys):
        """Nothing derived is stored, so there is no embedded plan for
        ``artc lint`` to diff (its ``ir`` pass is gone) and ``artc
        verify`` checks every entry of the plan built here."""
        run_cli("lint", clean_artcb, "--json", "--no-modes")
        assert [p["pass"] for p in payload_of(capsys)["passes"]] == [
            "races", "graph", "fsmodel",
        ]
        run_cli("verify", clean_artcb, "--json")
        n = len(artifact.load(clean_artcb).actions)
        for cert in payload_of(capsys)["certificates"]:
            assert cert["obligations"]["plan_entries"] == n
            assert set(cert["key"]) == {
                "source", "target", "o_excl_fix", "fsync_mode",
            }

    def test_embed_persists_certificates(self, clean_artcb, capsys):
        rc = run_cli("verify", clean_artcb, "--embed")
        capsys.readouterr()
        assert rc == 0
        loaded = artifact.load(clean_artcb)
        certs = getattr(loaded, "certificates", None)
        assert certs and len(certs) == 3
        assert all(cert.ok for cert in certs)

    def test_dynamic_cross_check_passes(self, clean_artcb, capsys):
        rc = run_cli("verify", clean_artcb, "--dynamic", "-p", "ssd",
                     "--modes", "artc", "--core", "scoreboard", "--json")
        payload = payload_of(capsys)
        assert rc == 0
        abstract = [p for p in payload["passes"]
                    if p["pass"] == "abstract"][0]
        assert abstract["stats"]["cross_checked"] == 1
        assert "abstract-errno-contradiction" not in finding_checks(payload)
        assert "abstract-digest-contradiction" not in finding_checks(payload)
