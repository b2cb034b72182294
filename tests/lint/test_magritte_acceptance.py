"""Acceptance: `artc lint` on Magritte traces.

The default ARTC compile lints clean, and the static mode-safety
matrix over-approximates dynamic replay errors: every mode that fails
beyond the ARTC baseline (the planted missing-xattr residuals Table 3
attributes to incomplete initialization info, not ordering) is marked
statically UNSAFE.
"""

import pytest

from repro.artc import compile_trace, replay, ReplayConfig
from repro.artc.init import initialize
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode, named_rulesets
from repro.lint import lint_trace
from repro.workloads.magritte import build_suite


def magritte(app):
    suite = build_suite([app])
    result = trace_application(
        suite[app], PLATFORMS["mac-ssd"], seed=0, warm_cache=True
    )
    return result.trace, result.snapshot


@pytest.fixture(scope="module")
def pages():
    return magritte("pages_create15")


@pytest.fixture(scope="module")
def pages_report(pages):
    trace, snapshot = pages
    return lint_trace(trace, snapshot)


class TestDefaultCompileLintsClean(object):
    def test_exit_zero(self, pages_report):
        assert pages_report.exit_code == 0

    def test_no_warnings_or_errors(self, pages_report):
        counts = pages_report.counts_by_severity()
        assert counts["error"] == 0 and counts["warning"] == 0

    def test_matrix_verdicts(self, pages_report):
        rows = {row["mode"]: row for row in pages_report.mode_matrix}
        assert rows["artc-default"]["safe"]
        assert not rows["unconstrained"]["safe"]
        assert rows["unconstrained"]["races"] > 100

    def test_numbers_start5_also_clean(self):
        trace, snapshot = magritte("numbers_start5")
        report = lint_trace(trace, snapshot, modes=False)
        assert report.exit_code == 0


@pytest.mark.tier2
class TestStaticPredictionCoversDynamicErrors(object):
    def _worst_failures(self, trace, snapshot, ruleset, seeds=3):
        bench = compile_trace(trace, snapshot, ruleset=ruleset)
        worst = 0
        for seed in range(seeds):
            fs = PLATFORMS["mac-ssd"].make_fs(seed=seed)
            initialize(fs, snapshot)
            report = replay(
                bench, fs, ReplayConfig(mode=ReplayMode.ARTC, jitter=5e-4)
            )
            worst = max(worst, report.failures)
        return worst

    def test_unsafe_modes_superset_of_erroring_modes(self, pages,
                                                     pages_report):
        trace, snapshot = pages
        statically_unsafe = {
            row["mode"] for row in pages_report.mode_matrix if not row["safe"]
        }
        rulesets = named_rulesets()
        baseline = self._worst_failures(
            trace, snapshot, rulesets["artc-default"]
        )
        erroring = set()
        for name, ruleset in rulesets.items():
            if name == "artc-default":
                continue
            if self._worst_failures(trace, snapshot, ruleset) > baseline:
                erroring.add(name)
        assert erroring, "expected some mode to error dynamically"
        assert erroring <= statically_unsafe, (
            "dynamically erroring modes %s not statically predicted (%s)"
            % (sorted(erroring), sorted(statically_unsafe))
        )

    def test_artc_default_residuals_are_not_ordering_failures(self, pages):
        trace, snapshot = pages
        rulesets = named_rulesets()
        baseline = self._worst_failures(
            trace, snapshot, rulesets["artc-default"], seeds=5
        )
        single = compile_trace(trace, snapshot,
                               ruleset=rulesets["artc-default"])
        fs = PLATFORMS["mac-ssd"].make_fs(seed=0)
        initialize(fs, snapshot)
        report = replay(single, fs, ReplayConfig(mode=ReplayMode.SINGLE))
        # the same residuals appear under a total order: they are data
        # (snapshot) artifacts, not divergences lint should flag
        assert report.failures == baseline
