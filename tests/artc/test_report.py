"""Tests for replay reports."""

import pytest

from repro.artc.report import ActionResult, ReplayReport, timing_error


def result(idx, tid, name, issue, done, matched=True, err=None):
    return ActionResult(idx, tid, name, issue, done, 0, err, matched)


@pytest.fixture
def report():
    r = ReplayReport("artc", label="demo")
    r.started = 0.0
    r.add(result(0, 1, "open", 0.0, 0.1))
    r.add(result(1, 1, "read", 0.1, 0.5))
    r.add(result(2, 2, "write", 0.0, 0.3))
    r.add(result(3, 2, "fsync", 0.3, 1.0))
    r.add(result(4, 1, "getxattr", 0.6, 0.7, matched=False, err="ENODATA"))
    r.finished = 1.0
    return r


class TestAccounting(object):
    def test_elapsed(self, report):
        assert report.elapsed == 1.0

    def test_failures(self, report):
        assert report.failures == 1
        assert report.failures_by_errno() == {"ENODATA": 1}

    def test_thread_time_sums_latencies(self, report):
        assert report.thread_time() == pytest.approx(0.1 + 0.4 + 0.3 + 0.7 + 0.1)

    def test_category_breakdown(self, report):
        by_cat = report.thread_time_by_category()
        assert by_cat["open"] == pytest.approx(0.1)
        assert by_cat["read"] == pytest.approx(0.4)
        assert by_cat["write"] == pytest.approx(0.3)
        assert by_cat["fsync"] == pytest.approx(0.7)
        assert by_cat["meta"] == pytest.approx(0.1)  # getxattr

    def test_mean_outstanding(self, report):
        assert report.mean_outstanding() == pytest.approx(1.6)

    def test_summary_fields(self, report):
        summary = report.summary()
        assert summary["mode"] == "artc"
        assert summary["actions"] == 5
        assert summary["failures"] == 1


class TestTimingError(object):
    def test_overestimate(self):
        assert timing_error(13.0, 10.0) == pytest.approx(0.3)

    def test_underestimate_is_positive(self):
        assert timing_error(7.0, 10.0) == pytest.approx(0.3)

    def test_zero_original(self):
        assert timing_error(5.0, 0.0) == 0.0
