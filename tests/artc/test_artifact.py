"""Tests for the ``.artcb`` persistent artifact format."""

import hashlib
import json
import struct
import zlib

import pytest

from repro.artc import artifact, planir
from repro.artc import benchmark as benchmark_module
from repro.artc.benchmark import ACTION_COLUMNS, FORMAT, CompiledBenchmark
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench.artifacts import ArtifactCache
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.model import TraceModel
from repro.stream.digest import stream_digest_of
from repro.stream.follow import ingest_trace
from repro.syscalls.emulation import DEFAULT_OPTIONS
from repro.tracing.snapshot import Snapshot
from repro.tracing.tracer import TracedOS
from repro.verify.transval import certify
from repro.workloads.magritte import build_suite
from tests.conftest import make_fs


@pytest.fixture(scope="module")
def bench():
    fs = make_fs(seed=3)
    fs.makedirs_now("/w")
    fs.create_file_now("/w/a", size=8192)
    snapshot = Snapshot.capture(fs, roots=("/w",), label="artifact-test")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="artifact-test", platform="linux")

    def body(tid):
        fd, err = yield from osapi.call(tid, "open", path="/w/a", flags="O_RDWR")
        yield from osapi.call(tid, "read", fd=fd, nbytes=4096)
        yield from osapi.call(tid, "write", fd=fd, nbytes=1024)
        yield from osapi.call(tid, "fsync", fd=fd)
        yield from osapi.call(tid, "close", fd=fd)

    for tid in (1, 2):
        fs.engine.spawn(body(tid))
    fs.engine.run()
    return compile_trace(trace, snapshot)


class TestRoundTrip(object):
    def test_pack_unpack_equal_benchmark(self, bench):
        data = artifact.pack_bytes(bench)
        loaded = artifact.unpack_bytes(data)
        # dumps() covers actions, graph, ruleset, snapshot, stats --
        # equality of the canonical serialization is equality of the
        # benchmark.
        assert loaded.dumps() == bench.dumps()

    def test_save_load_file(self, bench, tmp_path):
        path = str(tmp_path / "b.artcb")
        artifact.save(bench, path)
        assert artifact.load(path).dumps() == bench.dumps()

    def test_benchmark_save_dispatches_on_extension(self, bench, tmp_path):
        binary = str(tmp_path / "b.artcb")
        plain = str(tmp_path / "b.json")
        bench.save(binary)
        bench.save(plain)
        with open(binary, "rb") as handle:
            assert handle.read(len(artifact.MAGIC)) == artifact.MAGIC
        with open(plain) as handle:
            assert handle.read(1) == "{"
        assert CompiledBenchmark.load(binary).dumps() == bench.dumps()
        assert CompiledBenchmark.load(plain).dumps() == bench.dumps()

    def test_content_hash_matches_payload(self, bench, tmp_path):
        path = str(tmp_path / "b.artcb")
        artifact.save(bench, path)
        with open(path, "rb") as handle:
            data = handle.read()
        payload = data[artifact._HEADER.size:]
        assert artifact.content_hash(path) == hashlib.sha256(payload).hexdigest()

    def test_packing_skips_only_the_cycle_check(self, magritte):
        """``pack_bytes`` encodes without ``json``'s cycle check (its
        payload is built fresh): the bytes and the content key are the
        ones the encoder writes with the check on."""
        for name in ("pages_create15", "numbers_start5"):
            bench = magritte[name]
            assert not getattr(bench, "certificates", None)
            data = artifact.pack_bytes(bench)
            wrapper = {"format": artifact._WRAPPER_FORMAT,
                       "benchmark": bench.to_payload()}
            text = json.dumps(wrapper, separators=(",", ":"))  # check on
            payload = zlib.compress(text.encode("utf-8"), artifact._ZLIB_LEVEL)
            assert data[artifact._HEADER.size:] == payload, name
            assert bench.content_key == hashlib.sha256(payload).hexdigest()

    def test_save_is_atomic(self, bench, tmp_path):
        path = str(tmp_path / "b.artcb")
        artifact.save(bench, path)
        artifact.save(bench, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["b.artcb"]


class TestRejection(object):
    def test_rejects_wrong_format_version(self, bench):
        data = bytearray(artifact.pack_bytes(bench))
        struct.pack_into(">I", data, len(artifact.MAGIC), artifact.FORMAT_VERSION + 1)
        with pytest.raises(artifact.ArtifactError, match="format version"):
            artifact.unpack_bytes(bytes(data))

    def test_rejects_corrupted_payload(self, bench):
        data = bytearray(artifact.pack_bytes(bench))
        data[-1] ^= 0xFF
        with pytest.raises(artifact.ArtifactError, match="hash mismatch"):
            artifact.unpack_bytes(bytes(data))

    def test_rejects_corrupted_header_hash(self, bench):
        data = bytearray(artifact.pack_bytes(bench))
        data[len(artifact.MAGIC) + 4] ^= 0xFF  # first digest byte
        with pytest.raises(artifact.ArtifactError, match="hash mismatch"):
            artifact.unpack_bytes(bytes(data))

    def test_rejects_truncated_header(self, bench):
        data = artifact.pack_bytes(bench)
        with pytest.raises(artifact.ArtifactError, match="truncated"):
            artifact.unpack_bytes(data[: artifact._HEADER.size - 1])

    def test_rejects_truncated_payload(self, bench):
        data = artifact.pack_bytes(bench)
        with pytest.raises(artifact.ArtifactError, match="truncated"):
            artifact.unpack_bytes(data[:-1])

    def test_rejects_bad_magic(self, bench):
        data = bytearray(artifact.pack_bytes(bench))
        data[0] = 0x58
        with pytest.raises(artifact.ArtifactError, match="magic"):
            artifact.unpack_bytes(bytes(data))

    def test_rejects_non_artifact_file(self, tmp_path):
        path = str(tmp_path / "b.artcb")
        with open(path, "w") as handle:
            handle.write('{"format": "%s"}' % FORMAT)
        with pytest.raises(artifact.ArtifactError):
            artifact.load(path)

    def test_plain_json_v1_benchmark_refused(self, tmp_path):
        path = str(tmp_path / "old.json")
        with open(path, "w") as handle:
            handle.write('{"format": "artc-benchmark-v1", "actions": []}')
        with pytest.raises(ValueError, match="re-compile it from its source"):
            CompiledBenchmark.load(path)


def _artifact_bytes(wrapper, version=artifact.FORMAT_VERSION):
    """A well-formed container around an arbitrary wrapper dict."""
    payload = zlib.compress(json.dumps(wrapper).encode("utf-8"))
    digest = hashlib.sha256(payload).digest()
    return artifact._HEADER.pack(
        artifact.MAGIC, version, digest, len(payload)
    ) + payload


def _wrapper(bench):
    """What ``pack_bytes`` wraps, as a dict a test can damage."""
    data = artifact.pack_bytes(bench)
    return json.loads(zlib.decompress(data[artifact._HEADER.size:]))


class TestV2Plans(object):
    """The versioned wrapper (the class is named for format v2, which
    introduced it): what it carries, and which versions are refused."""

    def test_wrapper_carries_nothing_derived(self, bench):
        planir.default_plan(bench)  # a cached plan must not leak into it
        assert set(_wrapper(bench)) == {"format", "benchmark"}
        assert artifact.unpack_bytes(artifact.pack_bytes(bench)).derived == {}

    def test_pack_leaves_the_plan_cache_as_it_found_it(self, bench):
        fresh = compile_trace(bench.to_trace(), bench.snapshot)
        artifact.pack_bytes(fresh)
        assert fresh.derived == {}
        plan = planir.default_plan(fresh)
        artifact.pack_bytes(fresh)
        assert list(fresh.derived.values()) == [plan]

    def test_content_key_stamped(self, bench, tmp_path):
        path = str(tmp_path / "b.artcb")
        artifact.save(bench, path)
        loaded = artifact.load(path)
        assert loaded.content_key == artifact.content_hash(path)
        # Packing stamps the source benchmark too, so an in-process
        # pack-then-replay already shares the JIT program cache.
        assert bench.content_key == loaded.content_key

    def test_rejects_version1(self, bench):
        """A literal v1 artifact (bare benchmark JSON payload) is
        rejected loudly, pointing at a re-pack."""
        payload = zlib.compress(bench.dumps().encode("utf-8"), 6)
        digest = hashlib.sha256(payload).digest()
        data = (
            artifact._HEADER.pack(artifact.MAGIC, 1, digest, len(payload))
            + payload
        )
        with pytest.raises(artifact.ArtifactError, match="format version"):
            artifact.unpack_bytes(data)
        with pytest.raises(artifact.ArtifactError, match="re-pack"):
            artifact.unpack_bytes(data)

    def test_rejects_version2(self, bench):
        """A v2 header is refused before its row-shaped payload is
        parsed, with the same re-pack message."""
        data = _artifact_bytes({"format": "artcb-v2"}, version=2)
        with pytest.raises(artifact.ArtifactError, match="version 2 .*re-pack"):
            artifact.unpack_bytes(data)

    def test_rejects_wrong_wrapper_format(self, bench):
        wrapper = {"format": "artcb-from-the-future", "benchmark": None}
        with pytest.raises(artifact.ArtifactError, match="artcb-v4"):
            artifact.unpack_bytes(_artifact_bytes(wrapper))

    def test_rejects_version3(self, bench, tmp_path):
        """A v3 header (the format that embedded a plan) is refused by
        name before its payload is parsed, and is a cache miss."""
        data = _artifact_bytes({"format": "artcb-v3", "plans": []}, version=3)
        with pytest.raises(artifact.ArtifactError, match="version 3 .*re-pack"):
            artifact.unpack_bytes(data)
        cache = ArtifactCache(str(tmp_path))
        with open(cache.path_for("k"), "wb") as handle:
            handle.write(data)
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (0, 1)


class TestMalformedColumns(object):
    """Artifact bytes come from outside the process: a damaged column
    is an ``ArtifactError`` naming it, never an ``IndexError`` from
    inside the loader."""

    def _refused(self, wrapper, match):
        with pytest.raises(artifact.ArtifactError, match=match):
            artifact.unpack_bytes(_artifact_bytes(wrapper))

    def test_ragged_action_column(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["actions"]["t_return"].pop()
        self._refused(wrapper, "column 't_return'")

    def test_missing_action_column(self, bench):
        wrapper = _wrapper(bench)
        del wrapper["benchmark"]["actions"]["ann"]
        self._refused(wrapper, "column 'ann'")

    def test_name_index_past_intern_table(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["actions"]["name"][3] = len(
            wrapper["benchmark"]["names"]
        )
        self._refused(wrapper, "column 'name'")

    @pytest.mark.parametrize("column", ["src", "dst"])
    @pytest.mark.parametrize("end", [-1, 10 ** 6])
    def test_edge_endpoint_out_of_range(self, bench, column, end):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["edges"][column][0] = end
        self._refused(wrapper, "column 'edges.%s'" % column)

    def test_ragged_edge_column(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["edges"]["kind"].pop()
        self._refused(wrapper, "column 'kind'")

    def test_reduced_preds_out_of_range(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["reduced_preds"][1] = [len(bench.actions)]
        self._refused(wrapper, "column 'reduced_preds'")

    def test_wrong_typed_column_is_still_an_artifact_error(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["edges"]["src"][0] = "r"
        self._refused(wrapper, "malformed benchmark")

    # A row the loader lets through surfaces in the first replay, as a
    # bare TypeError, a wrong report or a deadlock: each is refused here.

    def test_args_row_that_is_not_an_object(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["actions"]["args"][3] = [1]
        self._refused(wrapper, "column 'args'")

    def test_ann_row_that_is_not_an_object(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["actions"]["ann"][3] = 5
        self._refused(wrapper, "column 'ann'")

    def test_tid_that_is_not_an_int_or_str(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["actions"]["tid"][3] = [1]
        self._refused(wrapper, "column 'tid'")

    @pytest.mark.parametrize("value", [7, True, "3", None])
    def test_idx_column_must_number_the_rows(self, bench, value):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["actions"]["idx"][3] = value
        self._refused(wrapper, "column 'idx'")

    @pytest.mark.parametrize("src,dst", [(2, 2), (3, 1)])
    def test_edge_that_does_not_point_forward(self, bench, src, dst):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["edges"]["src"][0] = src
        wrapper["benchmark"]["edges"]["dst"][0] = dst
        self._refused(wrapper, "column 'edges'")

    @pytest.mark.parametrize("pred", [3, 4])
    def test_reduced_pred_that_does_not_point_forward(self, bench, pred):
        """``reduced_preds[3] = [3]`` used to load and deadlock."""
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["reduced_preds"][3] = [pred]
        self._refused(wrapper, "column 'reduced_preds'")

    def test_reduced_preds_row_that_is_not_a_list(self, bench):
        wrapper = _wrapper(bench)
        wrapper["benchmark"]["reduced_preds"][3] = 2
        self._refused(wrapper, "malformed benchmark")


# -- columnar round trip over real traces ---------------------------------


@pytest.fixture(scope="module")
def darwin_traced():
    """``(trace, snapshot)`` of a Darwin run whose Linux plan has every
    entry kind: F_NOCACHE
    plans nothing (meta), F_RDADVISE re-spells a remapped fd (dynamic),
    exchangedata becomes three steps (multi), and fsync, dup2 and the
    O_EXCL open change the call or the arguments of a single step."""
    fs = make_fs(seed=4, platform="darwin")
    fs.makedirs_now("/d")
    fs.create_file_now("/d/doc", size=65536)
    snapshot = Snapshot.capture(fs, roots=("/d",), label="artifact-darwin")
    osapi = TracedOS(fs)
    trace = osapi.start_tracing(label="artifact-darwin", platform="darwin")

    def body(tid):
        fd, _ = yield from osapi.call(tid, "open", path="/d/doc", flags="O_RDWR")
        yield from osapi.call(tid, "fcntl", fd=fd, cmd="F_NOCACHE", arg=1)
        yield from osapi.call(tid, "fcntl", fd=fd, cmd="F_RDADVISE",
                              offset=0, arg=32768)
        yield from osapi.call(tid, "read", fd=fd, nbytes=4096)
        yield from osapi.call(tid, "dup2", fd=fd, newfd=40 + tid)
        yield from osapi.call(tid, "fsync", fd=fd)
        yield from osapi.call(tid, "close", fd=fd)
        new, _ = yield from osapi.call(
            tid, "open", path="/d/new%d" % tid, flags="O_WRONLY|O_CREAT|O_EXCL"
        )
        yield from osapi.call(tid, "write", fd=new, nbytes=8192)
        yield from osapi.call(tid, "close", fd=new)
        if tid == 1:
            yield from osapi.call(
                tid, "exchangedata", path1="/d/doc", path2="/d/new1"
            )

    for tid in (1, 2):
        fs.engine.spawn(body(tid))
    fs.engine.run()
    return trace, snapshot


@pytest.fixture(scope="module")
def darwin_bench(darwin_traced):
    return compile_trace(*darwin_traced)


def _magritte_traced(app, source="mac-ssd"):
    """``(trace, snapshot)`` of one Magritte run, as traced."""
    suite = build_suite([app])
    traced = trace_application(
        suite[app], PLATFORMS[source], seed=0, warm_cache=True
    )
    return traced.trace, traced.snapshot


def _magritte(app, source="mac-ssd"):
    return compile_trace(*_magritte_traced(app, source))


@pytest.fixture(
    scope="module", params=["numbers_start5", "pages_create15", "darwin"]
)
def traced_sample(request, darwin_traced):
    """``(benchmark, trace)``: a Darwin-sourced benchmark with a
    certificate attached, and the traced trace it was compiled from."""
    if request.param == "darwin":
        trace, snapshot = darwin_traced
    else:
        trace, snapshot = _magritte_traced(request.param)
    bench = compile_trace(trace, snapshot)
    bench.certificates = [certify(bench, "scoreboard")]
    return bench, trace


@pytest.fixture(scope="module")
def sample(traced_sample):
    return traced_sample[0]


def _same_entries(ours, theirs):
    """Plan entries compare by value; handlers are the registry's own
    objects on both sides."""
    assert len(ours) == len(theirs)
    for mine, other in zip(ours, theirs):
        assert mine[0] == other[0] and mine[2:] == other[2:]
        if mine[0] == planir.MULTI:
            assert [tuple(step) for step in mine[1]] == [
                tuple(step) for step in other[1]
            ]
        else:
            assert mine[1] == other[1]


class TestColumnarRoundTrip(object):
    def test_everything_survives(self, sample):
        loaded = artifact.unpack_bytes(artifact.pack_bytes(sample))
        assert loaded.dumps() == sample.dumps()
        assert stream_digest_of(loaded) == stream_digest_of(sample)
        assert loaded.graph.preds == sample.graph.preds
        assert loaded.graph.reduced_preds == sample.graph.reduced_preds
        assert loaded.graph.edge_kinds == sample.graph.edge_kinds
        assert list(loaded.graph.edge_kinds) == list(sample.graph.edge_kinds)
        for target in ("darwin", "linux"):
            mine, other = (
                planir.plans_for(b, b.platform, target, True, DEFAULT_OPTIONS)
                for b in (sample, loaded)
            )
            _same_entries(mine.entries, other.entries)
        assert [cert.to_dict() for cert in loaded.certificates] == [
            cert.to_dict() for cert in sample.certificates
        ]

    def test_two_packs_are_byte_equal(self, sample):
        first = artifact.pack_bytes(sample)
        assert artifact.pack_bytes(sample) == first
        # ... and so is a pack of what the first one loads as.
        assert artifact.pack_bytes(artifact.unpack_bytes(first)) == first

    def test_no_per_action_deps_are_stored(self, sample):
        payload = sample.to_payload()
        assert "deps" not in payload["actions"]
        assert set(payload["actions"]) == set(ACTION_COLUMNS)


class TestTouchedActions(object):
    """No benchmark keeps its touches or its reduction candidates: a
    compiled, a streamed and a loaded one all derive their touches the
    same way, by one re-run of the trace model over ``to_trace()``, and
    get the touches of the traced trace the benchmark was built from."""

    @pytest.fixture(params=["compiled", "streamed", "loaded"])
    def built(self, request, traced_sample, tmp_path):
        """``(benchmark, trace, snapshot)``, the benchmark made the
        ``request.param`` way from the traced ``trace``."""
        sample, trace = traced_sample
        if request.param == "compiled":
            bench = compile_trace(trace, sample.snapshot)
        elif request.param == "streamed":
            path = str(tmp_path / "trace.json")
            trace.save(path)
            (tmp_path / "trace.json.done").write_text("")
            bench = ingest_trace(path, snapshot=sample.snapshot).benchmark
        else:
            bench = artifact.unpack_bytes(artifact.pack_bytes(sample))
        return bench, trace, sample.snapshot

    def test_no_action_carries_touches(self, built):
        bench, _trace, _snapshot = built
        assert not any(hasattr(action, "touches") for action in bench.actions)
        assert not hasattr(bench.graph, "primary_preds")

    def test_touches_are_the_trace_models_derived_once(self, built, monkeypatch):
        bench, trace, snapshot = built
        derivations = []
        real = benchmark_module.TraceModel

        def counted(*args):
            derivations.append(args)
            return real(*args)

        monkeypatch.setattr(benchmark_module, "TraceModel", counted)
        touched = bench.touched_actions()
        assert len(derivations) == 1
        assert bench.touched_actions() is touched
        assert len(derivations) == 1, "a second call derives nothing"
        monkeypatch.undo()
        model = TraceModel(trace, snapshot)
        assert [(a.touches, a.ann) for a in touched] == [
            (a.touches, a.ann) for a in model.actions
        ]
        assert any(a.touches for a in touched)

    def test_reload_rederives_the_compiled_touches(self, traced_sample, monkeypatch):
        sample, trace = traced_sample
        compiled = TraceModel(trace, sample.snapshot).actions
        derivations = []
        real = benchmark_module.TraceModel

        def counted(*args):
            derivations.append(args)
            return real(*args)

        monkeypatch.setattr(benchmark_module, "TraceModel", counted)
        loaded = artifact.unpack_bytes(artifact.pack_bytes(sample))
        assert not any(hasattr(action, "touches") for action in loaded.actions)
        assert derivations == [], "loading derives nothing"
        touched = loaded.touched_actions()
        assert [(a.touches, a.ann) for a in touched] == [
            (a.touches, a.ann) for a in compiled
        ]
        assert loaded.touched_actions() is touched
        assert len(derivations) == 1, "a second call derives nothing"


def test_samples_cover_every_plan_kind(darwin_bench):
    plan = planir.plans_for(darwin_bench, "darwin", "linux", True, DEFAULT_OPTIONS)
    assert all(plan.kind_counts()), plan.kind_counts()


class TestOneBuildPerReplay(object):
    """compile -> save -> load -> replay builds each plan entry exactly
    once: none while packing or loading (the artifact carries no plan),
    one per action at the first replay that asks for a key, none after."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        real = planir.compile_entry

        def counted(*args):
            calls.append(args[0].idx)
            return real(*args)

        monkeypatch.setattr(planir, "compile_entry", counted)
        return calls

    @staticmethod
    def _replay(loaded, target):
        fs = PLATFORMS[target].make_fs(seed=202)
        initialize(fs, loaded.snapshot)
        return replay(loaded, fs, ReplayConfig())

    @pytest.mark.parametrize("target", ["hdd-ext4", "mac-hdd"])
    def test_each_entry_is_built_exactly_once(self, target, builds, tmp_path):
        bench = _magritte("numbers_start5", source="mac-hdd")
        path = str(tmp_path / "b.artcb")
        artifact.save(bench, path)
        loaded = artifact.load(path)
        assert builds == [], "save and load build no plan entry"
        first = self._replay(loaded, target)
        assert builds == list(range(len(loaded.actions)))
        second = self._replay(loaded, target)
        assert len(builds) == len(loaded.actions), "the second replay builds none"
        assert first.failures == second.failures == 0
        assert [r.ret for r in first.results] == [r.ret for r in second.results]

    def test_a_second_key_is_a_second_build(self, builds):
        loaded = artifact.unpack_bytes(
            artifact.pack_bytes(_magritte("numbers_start5", source="mac-hdd"))
        )
        for target in ("hdd-ext4", "mac-hdd", "hdd-ext4", "mac-hdd"):
            self._replay(loaded, target)
        assert len(builds) == 2 * len(loaded.actions)
