"""Property: under the ARTC default rules, compiled traces are
race-free -- the dependency builder orders every conflicting pair the
lint's detector can enumerate.  This is the static companion to the
replay-reproduces-everything property in tests/property."""

from hypothesis import given, settings, strategies as st

from repro.artc import compile_trace
from repro.lint import check_graph, find_races, lint_compiled
from tests.property.test_deps_property import generate_trace, thread_scripts


class TestDefaultRulesAreRaceFree(object):
    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_zero_races_under_artc_defaults(self, scripts, seed):
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot)
        if not bench.actions:
            return
        scan = find_races(bench.touched_actions(), bench.graph)
        assert scan.n_races == 0, scan.races

    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_compiled_graph_passes_sanity(self, scripts, seed):
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot)
        findings, stats = check_graph(
            bench.graph, bench.touched_actions(), bench.ruleset
        )
        assert findings == []
        assert stats["acyclic"]
        assert stats["primary_checked"]

    @given(thread_scripts(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_full_lint_races_and_graph_clean(self, scripts, seed):
        trace, snapshot = generate_trace(scripts, seed)
        bench = compile_trace(trace, snapshot)
        report = lint_compiled(
            bench.touched_actions(), bench.graph, bench.ruleset,
            snapshot=snapshot, modes=False,
        )
        by_name = {p.name: p for p in report.passes}
        assert by_name["races"].clean, by_name["races"].findings
        assert by_name["graph"].clean, by_name["graph"].findings
