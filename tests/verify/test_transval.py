"""Translation validation: clean Magritte compiles certify on every
core, and hand-corrupted program claims are each rejected with an
actionable finding (the adversarial fixtures from ISSUE 7)."""

import pytest

from repro.artc import codegen, planir
from repro.artc.compiler import compile_trace
from repro.bench import PLATFORMS
from repro.bench.harness import trace_application
from repro.lint.graphcheck import check_graph
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify.transval import CORES, Certificate, certify

SAMPLES = ("itunes_startsmall1", "pages_pdf15")

_traced = {}


def traced_for(sample):
    if sample not in _traced:
        from repro.workloads.magritte import build_suite

        app = build_suite([sample])[sample]
        _traced[sample] = trace_application(app, PLATFORMS["mac-hdd"], seed=0)
    return _traced[sample]


def fresh_benchmark(sample="itunes_startsmall1"):
    """A private compile: corruption tests mutate cached programs."""
    traced = traced_for(sample)
    return compile_trace(traced.trace, traced.snapshot)


#: Corruptions of one action's release claim (a tuple of at least two
#: successors in ascending order), each of which must be rejected.
RELEASE_MUTANTS = {
    "dropped": lambda succs: succs[:-1],
    "extra": lambda succs: succs + (succs[-1] + 1,),
    "swapped": lambda succs: (succs[1], succs[0]) + succs[2:],
}


def checks_of(cert):
    return sorted(finding.check for finding in cert.findings)


class TestCleanCertification(object):
    def test_every_magritte_sample_certifies_on_every_core(self):
        for sample in SAMPLES:
            bench = fresh_benchmark(sample)
            for core in CORES:
                cert = certify(bench, core)
                assert cert.ok, (sample, core, cert.findings[:3])
                assert cert.findings == []
                assert cert.n_obligations > 0

    def test_jit_certificate_covers_program_obligations(self):
        cert = certify(fresh_benchmark(), "jit")
        for category in ("plan_entries", "graph_nodes", "gates",
                         "releases", "bindings", "conformance"):
            assert cert.obligations.get(category, 0) > 0, category

    def test_certificate_roundtrip(self):
        cert = certify(fresh_benchmark(), "jit")
        clone = Certificate.from_dict(cert.to_dict())
        assert clone.core == cert.core
        assert clone.ok == cert.ok
        assert clone.obligations == cert.obligations
        assert clone.key == cert.key


class TestAdversarialPrograms(object):
    """Each fixture corrupts the (artc, reduced) program's claims table
    the way a buggy emitter would, then asserts certification rejects
    it with the specific actionable finding."""

    def _certify_corrupted(self, mutate):
        bench = fresh_benchmark()
        plan = planir.default_plan(bench)
        program = codegen.program_for(bench, plan, "artc", True)
        mutate(program.facts)
        return certify(bench, "jit")

    def test_wrongly_elided_gate_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["gate"]:
                    fact["gate"] = False
                    return
            raise AssertionError("sample has no gated action")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "elided-gate" in checks_of(cert)
        finding = [f for f in cert.findings if f.check == "elided-gate"][0]
        assert finding.actions, "finding must name the unguarded action"
        assert "predecessor" in finding.message

    def test_stale_expected_ret_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["conformance"] == "ok_ret":
                    fact["expected_ret"] = (fact["expected_ret"] or 0) + 17
                    return
            raise AssertionError("sample has no ok_ret conformance check")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "stale-expected-ret" in checks_of(cert)

    def test_missing_conformance_check_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["conformance"] is not None:
                    fact["conformance"] = None
                    return
            raise AssertionError("no conformance check to drop")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "missing-conformance-check" in checks_of(cert)

    @pytest.mark.parametrize("mutant", sorted(RELEASE_MUTANTS))
    def test_corrupted_release_rejected(self, mutant):
        """The claim is the successors decremented, in order: the order
        is the wake order, so a swap is as wrong as a drop."""
        edit = RELEASE_MUTANTS[mutant]

        def mutate(facts):
            for fact in facts.values():
                if len(fact["releases"]) >= 2:
                    fact["releases"] = edit(fact["releases"])
                    return
            raise AssertionError("no action releases two successors")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "release-mismatch" in checks_of(cert)
        finding = [f for f in cert.findings if f.check == "release-mismatch"][0]
        assert finding.detail["claimed"] != finding.detail["serial"]

    def test_stale_bound_constant_rejected(self):
        def mutate(facts):
            for fact in facts.values():
                if fact["args"]:
                    corrupted = [dict(args) for args in fact["args"]]
                    corrupted[0]["__stale__"] = 1
                    fact["args"] = tuple(corrupted)
                    return
            raise AssertionError("no bound argument constants")

        cert = self._certify_corrupted(mutate)
        assert not cert.ok
        assert "stale-binding" in checks_of(cert)


class TestStalePlan(object):
    def test_corrupted_plan_entry_rejected_on_every_core(self):
        bench = fresh_benchmark()
        plan = planir.default_plan(bench)
        for idx, entry in enumerate(plan.entries):
            if entry[0] == planir.STATIC:
                # An entry shares its arguments with the record unless
                # it rewrote them; a stale one holds a dict of its own.
                call, args, name, kind = entry[1]
                stale = (call, dict(args, path="/corrupted-by-test"), name, kind)
                plan.entries[idx] = (planir.STATIC, stale) + entry[2:]
                break
        else:
            raise AssertionError("sample has no STATIC plan entry")
        for core in CORES:
            cert = certify(bench, core, plan=plan)
            assert not cert.ok, core
            assert "stale-plan-entry" in checks_of(cert)


# -- graph mutants -------------------------------------------------------


def _tiny_benchmark():
    """Five actions on three threads with cross-thread reduced waits."""

    def rec(idx, tid, name, args, ret=0):
        return TraceRecord(idx, tid, name, args, ret, None, float(idx), idx + 0.2)

    snap = Snapshot()
    snap.add("/d", "dir")
    return compile_trace(Trace([
        rec(0, "T1", "open", {"path": "/d/f", "flags": "O_RDWR|O_CREAT"}, ret=3),
        rec(1, "T2", "write", {"fd": 3, "nbytes": 4096}, ret=4096),
        rec(2, "T3", "close", {"fd": 3}),
        rec(3, "T2", "stat", {"path": "/d/f"}),
        rec(4, "T1", "stat", {"path": "/d/f"}),
    ]), snap)


def _first_wait(graph):
    return next(dst for dst, wait in enumerate(graph.reduced_preds) if wait)


def _out_of_range(graph, tid_of):
    graph.reduced_preds[_first_wait(graph)].append(graph.n_actions + 3)


def _duplicate(graph, tid_of):
    dst = _first_wait(graph)
    graph.reduced_preds[dst].append(graph.reduced_preds[dst][0])


def _cycle(graph, tid_of):
    """An edge back from the last action of action 0's thread to 0:
    a cycle only with thread sequencing."""
    last = max(i for i, tid in enumerate(tid_of) if tid == tid_of[0])
    graph.preds[0].append(last)
    graph.reduced_preds[0].append(last)
    graph.edge_kinds[(last, 0)] = "fake"


def _weaker_closure(graph, tid_of):
    for dst, wait in enumerate(graph.reduced_preds):
        for src in wait:
            if tid_of[src] != tid_of[dst]:
                wait.remove(src)
                return
    raise AssertionError("no cross-thread reduced wait to drop")


#: Each corrupt graph, and the check both the lint graph pass and every
#: certificate report it under.
GRAPH_MUTANTS = {
    "out-of-range": (_out_of_range, "pred-out-of-range"),
    "duplicate": (_duplicate, "duplicate-pred"),
    "cycle": (_cycle, "cycle"),
    "weaker-closure": (_weaker_closure, "closure-mismatch"),
}


class TestGraphMutants(object):
    """The certificates' graph obligations are the graph pass's own
    checks: a corrupt graph is reported by both, on every core."""

    def _mutant(self, name):
        bench = _tiny_benchmark()
        mutate, check = GRAPH_MUTANTS[name]
        mutate(bench.graph, [action.record.tid for action in bench.actions])
        return bench, check

    @pytest.mark.parametrize("name", sorted(GRAPH_MUTANTS))
    def test_graph_pass_reports_it(self, name):
        bench, check = self._mutant(name)
        findings, _stats = check_graph(
            bench.graph, bench.touched_actions(), bench.ruleset
        )
        assert check in [finding.check for finding in findings]

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("name", sorted(GRAPH_MUTANTS))
    def test_certificate_reports_it(self, name, core):
        bench, check = self._mutant(name)
        cert = certify(bench, core)
        assert not cert.ok
        assert check in checks_of(cert)

    def test_clean_graph_counts_one_obligation_per_list(self):
        bench = _tiny_benchmark()
        cert = certify(bench, "events")
        assert cert.ok
        assert cert.obligations["graph_nodes"] == 2 * len(bench)
