"""Fault plans: parsing, validation, serialization, determinism."""

import pytest

from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    FaultRule,
    parse_rule,
)


class TestParseRule(object):
    def test_trigger_shorthand(self):
        rule = parse_rule("eio@1.5")
        assert rule.kind == "eio"
        assert rule.at == 1.5
        assert rule.count == 1  # triggered rules fire once by default

    def test_rate_with_fields(self):
        rule = parse_rule("latency:rate=0.05:factor=20:op=write")
        assert rule.rate == 0.05
        assert rule.factor == 20.0
        assert rule.op == "write"
        assert rule.count is None  # rate rules are unlimited

    def test_trigger_with_duration(self):
        rule = parse_rule("stall@2:duration=0.25")
        assert rule.at == 2.0
        assert rule.duration == 0.25

    def test_device_scoping(self):
        rule = parse_rule("eio:rate=1.0:device=hdd:spindle=1")
        assert rule.device == "hdd"
        assert rule.spindle == 1

    @pytest.mark.parametrize("bad", [
        "meteor@1",                # unknown kind
        "eio",                     # neither rate nor at
        "eio@1:rate=0.5",          # both rate and at
        "eio:rate=2.0",            # rate out of range
        "eio:rate=0.1:op=think",   # bad op
        "eio:rate=x",              # unparseable value
        "eio:wat=1",               # unknown field
        "eio@soon",                # bad trigger time
        "eio:rate",                # missing '='
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FaultPlanError):
            parse_rule(bad)


class TestPlanSerialization(object):
    def test_round_trip(self):
        rules = ["eio@1.5", "latency:rate=0.05:factor=20", "torn_write:rate=0.1:blocks=2"]
        plan = FaultPlan([parse_rule(text) for text in rules], seed=7)
        clone = FaultPlan.loads(plan.dumps())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 7

    def test_format_header_checked(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.loads('{"format": "not-a-plan", "rules": []}')

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule.from_dict({"kind": "eio", "rate": 0.5, "zap": 1})

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([FaultRule("eio", rate=0.5)])


class TestDeterminism(object):
    def test_rng_is_plan_local_and_seeded(self):
        plan = FaultPlan([FaultRule("eio", rate=0.5)], seed=42)
        a = [plan.rng().random() for _ in range(5)]
        b = [plan.rng().random() for _ in range(5)]
        assert a == b  # fresh RNG per call, same seed -> same draws

    def test_matches_windows(self):
        class Req(object):
            is_write = False

        rule = FaultRule("eio", rate=1.0, after=1.0, until=2.0)
        assert not rule.matches("hdd", 0, Req(), 0.5)
        assert rule.matches("hdd", 0, Req(), 1.5)
        assert not rule.matches("hdd", 0, Req(), 2.5)
