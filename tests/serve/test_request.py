"""The request vocabulary is stated once: one walk over every field.

``repro.bench.request`` owns the kinds, the defaults and the resolvers;
``artc replay`` / ``artc submit`` / the serve worker are transports.
These tests walk the field table of docs/SERVICE.md and hold four
things to it: the fields the worker's source actually reads, the
``artc submit`` flags, the defaults, and -- for every field that shapes
a replay -- that the CLI flag and the serve param build the same
``ReplayConfig``.
"""

import inspect
import json
import os
import re

import pytest

from repro import cli
from repro.bench import request
from repro.serve import jobs, protocol

SERVICE_MD = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "SERVICE.md"
)


def doc_table(heading):
    """Rows (lists of cells, back-ticks stripped from the first) of the
    first markdown table under ``heading`` in docs/SERVICE.md."""
    with open(SERVICE_MD) as handle:
        text = handle.read()
    section = text[text.index(heading):]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # header and rule


#: field -> (flag or None for "--params only", default cell, read-by
#: cell), from the documentation.
FIELDS = {
    row[0].strip("`"): (
        None if row[1] == "`--params` only" else row[1].strip("`"),
        row[2], row[3],
    )
    for row in doc_table("### Request fields")
}

#: One non-default value per field that has a flag.
SAMPLES = {
    "app": "randreads", "app_args": {"nthreads": 3}, "source": "mac-hdd",
    "seed": 9, "ruleset": "no-file-seq,file-size", "warm_cache": True,
    "benchmark": "/tmp/b.artcb", "platform": "ssd", "cache_mb": 64,
    "replay_seed": 5, "mode": "unconstrained", "core": "events",
    "timing": "natural", "jitter": 0.002, "fsync_mode": "flush",
    "retry_max": 3, "retry_base": 0.01, "watchdog": 2.5, "degrade": True,
    "no_modes": True, "max_findings": 7, "trace": "/tmp/t.strace",
    "checkpoint": "/tmp/ck.json", "checkpoint_every": 32, "no_reduce": True,
}


def flag_argv(field):
    """``[flag, value]`` (``[flag]`` for a switch) sending the sample."""
    value = SAMPLES[field]
    if value is True:
        return [FIELDS[field][0]]
    if isinstance(value, dict):
        return [FIELDS[field][0], json.dumps(value)]
    return [FIELDS[field][0], str(value)]


def flat(value):
    """``vars(config)`` with the nested option objects (``__dict__`` or
    ``__slots__``) opened up, so two configs compare by content."""
    names = getattr(value, "__slots__", None) or getattr(value, "__dict__", None)
    if names is None or isinstance(value, type):
        return value
    return {name: flat(getattr(value, name)) for name in names}


def parse(*argv):
    return cli.build_parser().parse_args(list(argv))


class TestKinds(object):
    def test_every_kind_is_accepted_bound_and_offered(self):
        for kind in request.KINDS:
            assert protocol.normalize_request({"kind": kind})["kind"] == kind
            assert parse("submit", kind).kind == kind
        for kind in request.WORKER_KINDS:
            assert jobs._HANDLERS[kind] is getattr(jobs, "_job_" + kind)
        assert set(jobs._HANDLERS) == set(request.WORKER_KINDS)
        assert "stream" in request.WORKER_KINDS

    def test_every_kind_is_documented(self):
        documented = " ".join(row[0] for row in doc_table("### Request kinds"))
        for kind in request.KINDS:
            assert "`%s`" % kind in documented


class TestFields(object):
    def test_table_lists_exactly_the_fields_the_worker_reads(self):
        source = inspect.getsource(jobs) + inspect.getsource(request)
        read = set(re.findall(r'(?:params|fields)(?:\.get\(|\[)"(\w+)"', source))
        read |= set(re.findall(r'field\((?:params|fields), "(\w+)"\)', source))
        assert read == set(FIELDS)

    def test_samples_cover_every_flag(self):
        flagged = {f for f, (flag, _d, _k) in FIELDS.items() if flag is not None}
        assert flagged == set(SAMPLES)
        for field in flagged:
            assert FIELDS[field][0] == "--" + field.replace("_", "-")

    def test_readers_are_kinds(self):
        for _flag, _default, readers in FIELDS.values():
            named = re.findall(r"`(\w+)`", readers)
            assert named or "cell kinds" in readers
            assert set(named) <= set(request.WORKER_KINDS)

    @pytest.mark.parametrize("field", sorted(SAMPLES))
    def test_submit_flag_sends_the_field(self, field):
        args = parse("submit", "replay", *flag_argv(field))
        assert cli._submit_params(args) == {field: SAMPLES[field]}

    def test_unset_submit_flags_send_nothing(self):
        assert cli._submit_params(parse("submit", "replay")) == {}

    def test_params_only_fields_have_no_flag(self):
        options = set(parse_submit_options())
        for field, (flag, _default, _kinds) in FIELDS.items():
            spelled = "--" + field.replace("_", "-")
            assert (spelled in options) == (flag is not None), field

    @pytest.mark.parametrize("field", sorted(request.DEFAULTS))
    def test_default_is_stated_once(self, field):
        default = request.DEFAULTS[field]
        assert "`%s`" % (default,) in FIELDS[field][1]
        flag = "--" + field.replace("_", "-")
        found = 0
        for name, sub in subparsers().items():
            if (name, field) == ("verify", "core"):
                continue  # another flag: the comma list of cores to certify
            for action in sub._actions:
                if flag in action.option_strings:
                    found += 1
                    assert action.default == (None if name == "submit" else default)
        assert found >= 1


def subparsers():
    parser = cli.build_parser()
    return next(
        action for action in parser._actions if hasattr(action, "choices")
        and isinstance(action.choices, dict)
    ).choices


def parse_submit_options():
    for action in subparsers()["submit"]._actions:
        for option in action.option_strings:
            yield option


#: The fields ``artc replay`` and the worker both turn into a ReplayConfig.
CONFIG_FIELDS = ("mode", "core", "timing", "jitter", "fsync_mode",
                 "retry_max", "retry_base", "watchdog", "degrade")


class TestOneReplayConfig(object):
    def test_defaults_are_the_same_from_every_door(self):
        from_cli = request.replay_config(vars(parse("replay", "b.json")), jobs=1)
        from_submit = request.replay_config(
            cli._submit_params(parse("submit", "replay"))
        )
        assert flat(from_cli) == flat(from_submit) == flat(request.replay_config({}))

    @pytest.mark.parametrize("field", CONFIG_FIELDS)
    def test_flag_and_param_build_the_same_config(self, field):
        argv = flag_argv(field)
        if field == "retry_base":  # only read once retries are on
            argv += flag_argv("retry_max")
        from_cli = request.replay_config(
            vars(parse("replay", "b.json", *argv)), jobs=1
        )
        params = cli._submit_params(parse("submit", "replay", *argv))
        assert params[field] == SAMPLES[field]
        from_param = request.replay_config(params)
        assert flat(from_cli) == flat(from_param)
        assert flat(from_cli) != flat(request.replay_config({}))

    def test_target_and_seed_resolve_the_same(self):
        argv = flag_argv("platform") + flag_argv("cache_mb") + flag_argv("seed")
        from_cli = vars(parse("replay", "b.json", *argv))
        from_submit = cli._submit_params(parse("submit", "replay", *argv))
        for fields in (from_cli, from_submit):
            target = request.target(fields)
            assert (target.name, target.cache_bytes) == ("ssd", 64 << 20)
            assert request.replay_seed(fields) == 9
        assert request.replay_seed({"seed": 9, "replay_seed": 5}) == 5
        # The one default that differs on purpose (docs/SERVICE.md).
        assert request.target({"source": "mac-hdd"}).name == "mac-hdd"
        assert request.target({}).name == parse("replay", "b").platform

    def test_worker_refuses_the_multi_process_core(self):
        with pytest.raises(request.RequestError, match="choose from: auto"):
            request.replay_config({"core": "shard"})
        assert request.replay_config({"core": "shard"}, jobs=2).jobs == 2
