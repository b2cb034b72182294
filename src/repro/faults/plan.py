"""Fault plans: what goes wrong, where, and when.

A plan is a list of :class:`FaultRule` plus a seed.  Rules come in two
shapes:

- **probabilistic**: ``rate`` is a per-request firing probability,
  drawn from the plan's own ``random.Random(seed)`` -- *not* the
  engine's RNG, so attaching an empty or never-matching plan perturbs
  nothing and the same seed replays the same fault sequence for the
  same request stream.
- **triggered**: ``at`` names a simulated time; the rule fires on the
  first ``count`` matching dispatches at or after that instant.

Both shapes can be scoped by device name (substring of
``device.describe()``), spindle index, and request direction (``op`` =
``read``/``write``), and windowed with ``after``/``until``.

Serialized form (``repro-faultplan-v1``)::

    {"format": "repro-faultplan-v1", "seed": 7,
     "rules": [{"kind": "eio", "rate": 0.01, "op": "write"},
               {"kind": "stall", "at": 1.5, "duration": 0.25}]}

CLI shorthand (``--fault``): ``kind@time`` with optional ``:key=value``
suffixes -- ``eio@1.5``, ``eio:rate=0.01:op=write``,
``latency:rate=0.05:factor=20``, ``stall@2:duration=0.25``.
"""

import json
import random

from repro.errors import ReproError

FORMAT = "repro-faultplan-v1"

#: Recognized fault kinds.
KINDS = ("eio", "latency", "stall", "torn_write")


class FaultPlanError(ReproError):
    """A fault spec could not be parsed or is inconsistent."""


class FaultRule(object):
    """One injection rule; see the module docstring for semantics."""

    __slots__ = (
        "kind", "rate", "at", "count", "device", "spindle", "op",
        "after", "until", "factor", "duration", "blocks",
    )

    def __init__(self, kind, rate=None, at=None, count=None, device=None,
                 spindle=None, op=None, after=None, until=None,
                 factor=1.0, duration=None, blocks=None):
        if kind not in KINDS:
            raise FaultPlanError(
                "unknown fault kind %r (choose from %s)" % (kind, ", ".join(KINDS))
            )
        if (rate is None) == (at is None):
            raise FaultPlanError(
                "rule %r needs exactly one of 'rate' or 'at'" % (kind,)
            )
        if rate is not None and not (0.0 <= rate <= 1.0):
            raise FaultPlanError("rate must be in [0, 1], got %r" % (rate,))
        if op not in (None, "read", "write"):
            raise FaultPlanError("op must be 'read' or 'write', got %r" % (op,))
        self.kind = kind
        self.rate = rate
        self.at = at
        # Triggered rules default to firing once; rate rules are
        # unlimited unless capped.
        self.count = count if count is not None else (1 if at is not None else None)
        self.device = device
        self.spindle = spindle
        self.op = op
        self.after = after
        self.until = until
        self.factor = float(factor)
        self.duration = duration
        self.blocks = blocks

    def matches(self, device_name, spindle_index, request, now):
        if self.device is not None and self.device not in device_name:
            return False
        if self.spindle is not None and self.spindle != spindle_index:
            return False
        if self.op == "read" and request.is_write:
            return False
        if self.op == "write" and not request.is_write:
            return False
        if self.kind == "torn_write" and not request.is_write:
            return False
        if self.after is not None and now < self.after:
            return False
        if self.until is not None and now > self.until:
            return False
        if self.at is not None and now < self.at:
            return False
        return True

    def to_dict(self):
        out = {"kind": self.kind}
        for field in ("rate", "at", "device", "spindle", "op", "after",
                      "until", "duration", "blocks"):
            value = getattr(self, field)
            if value is not None:
                out[field] = value
        if self.factor != 1.0:
            out["factor"] = self.factor
        if self.count is not None and not (self.at is not None and self.count == 1):
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise FaultPlanError("fault rule lacks a 'kind'")
        allowed = set(cls.__slots__) - {"kind"}
        unknown = set(data) - allowed
        if unknown:
            raise FaultPlanError(
                "unknown fault rule field(s): %s" % ", ".join(sorted(unknown))
            )
        return cls(kind, **data)

    def __repr__(self):
        return "<FaultRule %s>" % (self.to_dict(),)


_VALUE_FIELDS = {
    "rate": float, "at": float, "count": int, "spindle": int,
    "after": float, "until": float, "factor": float, "duration": float,
    "blocks": int, "device": str, "op": str,
}


def parse_rule(text):
    """Parse one CLI rule string (``eio@1.5``, ``eio:rate=0.01:op=write``)."""
    parts = text.strip().split(":")
    head = parts[0]
    fields = {}
    if "@" in head:
        head, when = head.split("@", 1)
        try:
            fields["at"] = float(when)
        except ValueError:
            raise FaultPlanError("bad trigger time in %r" % (text,))
    for part in parts[1:]:
        if "=" not in part:
            raise FaultPlanError("expected key=value in %r (rule %r)" % (part, text))
        key, value = part.split("=", 1)
        key = key.strip()
        caster = _VALUE_FIELDS.get(key)
        if caster is None:
            raise FaultPlanError("unknown rule field %r in %r" % (key, text))
        try:
            fields[key] = caster(value)
        except ValueError:
            raise FaultPlanError("bad value %r for %r in %r" % (value, key, text))
    return FaultRule(head.strip(), **fields)


class FaultPlan(object):
    """An ordered rule list plus the seed for probabilistic draws."""

    def __init__(self, rules=None, seed=0):
        self.rules = list(rules or [])
        self.seed = seed

    def __len__(self):
        return len(self.rules)

    def __bool__(self):
        return bool(self.rules)

    def add(self, rule):
        self.rules.append(rule)
        return self

    def rng(self):
        """A fresh, plan-local RNG -- injection never consumes the
        engine's randomness, so an empty plan is behavior-identical to
        no plan at all."""
        return random.Random(self.seed)

    # -- serialization -------------------------------------------------

    def to_dict(self):
        return {
            "format": FORMAT,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def dumps(self):
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_dict(cls, data):
        if data.get("format") != FORMAT:
            raise FaultPlanError("not a fault plan (expected format %r)" % FORMAT)
        return cls(
            [FaultRule.from_dict(r) for r in data.get("rules", [])],
            seed=data.get("seed", 0),
        )

    @classmethod
    def loads(cls, text):
        return cls.from_dict(json.loads(text))

    def save(self, path):
        with open(path, "w") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.loads(handle.read())

    def __repr__(self):
        return "<FaultPlan seed=%d rules=%d>" % (self.seed, len(self.rules))
