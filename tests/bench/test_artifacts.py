"""Tests for the content-addressed compiled-benchmark artifact cache."""

import os

import pytest

from repro.artc import artifact
from repro.bench import PLATFORMS
from repro.bench.artifacts import (
    ArtifactCache,
    artifact_key,
    describe_platform,
    resolve,
)
from repro.bench.harness import replay_matrix
from repro.core.modes import ReplayMode, RuleSet
from repro.workloads import ParallelRandomReaders


@pytest.fixture
def app():
    return ParallelRandomReaders(nthreads=2, reads_per_thread=40, file_bytes=4 << 20)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(root=str(tmp_path / "artifacts"))


SOURCE = PLATFORMS["hdd-ext4"]


def _bump_many(root, key, count):
    """Child-process body for the concurrency test (module-level so it
    survives both fork and spawn start methods)."""
    bumper = ArtifactCache(root=root)
    for _ in range(count):
        bumper.record_hit(key)


class TestArtifactKey(object):
    def test_deterministic(self, app):
        assert artifact_key(app, SOURCE, 3) == artifact_key(app, SOURCE, 3)

    def test_inputs_are_identifying(self, app):
        base = artifact_key(app, SOURCE, 0)
        assert artifact_key(app, SOURCE, 1) != base
        assert artifact_key(app, PLATFORMS["ssd"], 0) != base
        assert artifact_key(app, SOURCE, 0, warm_cache=True) != base
        assert (
            artifact_key(app, SOURCE, 0, ruleset=RuleSet.unconstrained()) != base
        )

    def test_default_ruleset_is_artc(self, app):
        assert artifact_key(app, SOURCE, 0) == artifact_key(
            app, SOURCE, 0, ruleset=RuleSet.artc_default()
        )

    def test_platform_variants_distinct_despite_shared_name(self, app):
        variant = SOURCE.variant(cache_bytes=SOURCE.cache_bytes // 2)
        assert variant.name == SOURCE.name
        assert describe_platform(variant) != describe_platform(SOURCE)
        assert artifact_key(app, variant, 0) != artifact_key(app, SOURCE, 0)


class TestArtifactCache(object):
    def test_miss_build_hit(self, app, cache):
        bench, info = cache.get_or_build(app, SOURCE, 0)
        assert info["cached"] is False
        again, info2 = cache.get_or_build(app, SOURCE, 0)
        assert info2["cached"] is True
        assert info2["key"] == info["key"]
        assert again.dumps() == bench.dumps()
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_build_stashes_trace_provenance(self, app, cache):
        bench, _ = cache.get_or_build(app, SOURCE, 0)
        assert bench.stats["source_elapsed"] > 0
        assert bench.stats["trace_events"] == len(bench)

    def test_corrupt_artifact_is_a_miss_then_repaired(self, app, cache):
        _, info = cache.get_or_build(app, SOURCE, 0)
        with open(info["path"], "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.seek(handle.tell() - 1)
            handle.write(b"\x00")
        bench, info2 = cache.get_or_build(app, SOURCE, 0)
        assert info2["cached"] is False  # rebuilt, overwriting the bad file
        assert artifact.load(info2["path"]).dumps() == bench.dumps()

    def test_sidecar_counts_hits_durably(self, app, cache):
        _, info = cache.get_or_build(app, SOURCE, 0)
        cache.get_or_build(app, SOURCE, 0)
        other = ArtifactCache(root=cache.root)  # fresh process, same disk
        other.get_or_build(app, SOURCE, 0)
        assert cache.durable_hits(info["key"]) == 2
        assert other.durable_hits(info["key"]) == 2

    def test_rebuild_resets_hit_journal(self, app, cache):
        _, info = cache.get_or_build(app, SOURCE, 0)
        cache.get_or_build(app, SOURCE, 0)
        assert cache.durable_hits(info["key"]) == 1
        # A corrupt artifact forces a rebuild; the old journal counted
        # reuses of an artifact that no longer exists.
        with open(info["path"], "wb") as handle:
            handle.write(b"garbage")
        cache.get_or_build(app, SOURCE, 0)
        assert cache.durable_hits(info["key"]) == 0

    def test_concurrent_hits_lose_nothing(self, cache, tmp_path):
        """The read-modify-write race the serve worker pool would hit:
        N processes bumping the same key concurrently must lose zero
        hits (the old atomic_write_text sidecar bump lost them)."""
        import multiprocessing

        os.makedirs(cache.root, exist_ok=True)
        key = "f" * 64
        procs = [
            multiprocessing.Process(
                target=_bump_many, args=(cache.root, key, 50)
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        assert cache.durable_hits(key) == 200


class TestResolve(object):
    def test_explicit_cache_passes_through(self, cache):
        assert resolve(cache) is cache

    def test_false_disables(self):
        assert resolve(False) is None

    def test_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv("ARTC_ARTIFACT_DIR", raising=False)
        assert resolve(None) is None

    def test_none_with_env_opts_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ARTC_ARTIFACT_DIR", str(tmp_path / "art"))
        resolved = resolve(None)
        assert isinstance(resolved, ArtifactCache)
        assert resolved.root == str(tmp_path / "art")
        assert resolve(True) is resolved  # same process-wide default


class TestReplayMatrixWiring(object):
    def test_hit_serves_identical_results(self, app, cache):
        kwargs = dict(
            modes=(ReplayMode.ARTC, ReplayMode.SINGLE),
            artifact_cache=cache,
        )
        cold = replay_matrix(app, SOURCE, PLATFORMS["ssd"], **kwargs)
        warm = replay_matrix(app, SOURCE, PLATFORMS["ssd"], **kwargs)
        assert cold["artifact"]["cached"] is False
        assert warm["artifact"]["cached"] is True
        assert warm["source_elapsed"] == cold["source_elapsed"]
        assert warm["trace_events"] == cold["trace_events"]
        for mode in kwargs["modes"]:
            assert warm["modes"][mode]["elapsed"] == cold["modes"][mode]["elapsed"]

    def test_cells_share_one_compile_across_targets(self, app, cache):
        replay_matrix(app, SOURCE, PLATFORMS["ssd"],
                      modes=(ReplayMode.ARTC,), artifact_cache=cache)
        replay_matrix(app, SOURCE, PLATFORMS["raid0"],
                      modes=(ReplayMode.ARTC,), artifact_cache=cache)
        replay_matrix(app, SOURCE, PLATFORMS["hdd-xfs"],
                      modes=(ReplayMode.ARTC,), artifact_cache=cache)
        assert cache.stats() == {"hits": 2, "misses": 1, "stores": 1}

    def test_disabled_by_default_without_env(self, app, monkeypatch):
        monkeypatch.delenv("ARTC_ARTIFACT_DIR", raising=False)
        result = replay_matrix(app, SOURCE, PLATFORMS["ssd"],
                               modes=(ReplayMode.ARTC,))
        assert "artifact" not in result
