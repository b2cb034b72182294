"""Content-addressed cache of compiled-benchmark artifacts.

Tracing and compiling a Magritte application is the expensive half of
every experiment cell; the replays themselves are cheap by comparison.
Yet cells that differ only in target platform, replay mode, or timing
policy all share the same (app, source, seed, ruleset) tuple -- the
same trace, the same compiled benchmark.  This cache files that
benchmark once, as an ``.artcb`` artifact (:mod:`repro.artc.artifact`)
named by a content hash of exactly those inputs, and every later cell
loads it instead of re-tracing.

The key is salted with :data:`repro.bench.parallel.BENCH_FORMAT_VERSION`
and the artifact format version, so artifacts written by an older
benchmark format can never be served to a newer one -- bump the
version when trace or compile semantics change.

``$ARTC_ARTIFACT_DIR`` names the cache directory and, when set, also
switches the cache on for :func:`repro.bench.harness.replay_matrix`
callers that did not pass one explicitly (the bench suite sets it in
``benchmarks/conftest.py``).  Without the variable the default
location is ``<default_cache_dir()>/artifacts``.

Alongside each ``<key>.artcb`` sits a ``<key>.json`` sidecar with
build provenance, mirroring the result cache's bookkeeping: the cache
directory itself records how often each compile was reused.  Hits are
journaled to a ``<key>.hits`` file with one ``O_APPEND`` byte per hit
-- a single-byte append is atomic on POSIX, so concurrent processes
(the ``artc serve`` worker pool is exactly that) never lose counts and
a crash mid-bump never corrupts the sidecar.  :meth:`ArtifactCache.
durable_hits` reads the journal.
"""

import json
import os

from repro.artc import artifact
from repro.bench.parallel import BENCH_FORMAT_VERSION, default_cache_dir
from repro.core.modes import RuleSet
from repro.tracing.atomicio import atomic_write


def default_artifact_dir():
    """``$ARTC_ARTIFACT_DIR`` or ``<default_cache_dir()>/artifacts``."""
    env = os.environ.get("ARTC_ARTIFACT_DIR")
    if env:
        return env
    return os.path.join(default_cache_dir(), "artifacts")


def describe_app(app):
    """The identity an application contributes to an artifact key."""
    return {"name": app.name, "class": type(app).__qualname__}


def describe_platform(platform):
    """Every platform field that shapes a traced run.  ``variant()``
    copies can share a name, so the name alone is not identifying."""
    factory = platform.device_factory
    return {
        "name": platform.name,
        "device": getattr(factory, "__qualname__", None) or repr(factory),
        "cache_bytes": platform.cache_bytes,
        "scheduler": platform.scheduler,
        "scheduler_kwargs": platform.scheduler_kwargs,
        "fs_profile": platform.fs_profile,
        "os_flavor": platform.os_flavor,
    }


def describe_ruleset(ruleset):
    """The effective compile ruleset (``None`` means the ARTC default)."""
    if ruleset is None:
        ruleset = RuleSet.artc_default()
    return {flag: getattr(ruleset, flag) for flag in RuleSet.__slots__}


def artifact_key(app, source, seed=0, ruleset=None, warm_cache=False):
    """Content hash identifying one trace+compile."""
    import hashlib

    payload = json.dumps(
        {
            "bench_format": BENCH_FORMAT_VERSION,
            "artifact_format": artifact.FORMAT_VERSION,
            "app": describe_app(app),
            "source": describe_platform(source),
            "seed": seed,
            "ruleset": describe_ruleset(ruleset),
            "warm_cache": bool(warm_cache),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache(object):
    """On-disk ``.artcb`` store keyed by :func:`artifact_key`.

    ``hits`` / ``misses`` / ``stores`` count this process's traffic;
    the per-artifact sidecars accumulate hits durably across runs.
    """

    def __init__(self, root=None):
        self.root = root or default_artifact_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key):
        return os.path.join(self.root, key + ".artcb")

    def _sidecar(self, key):
        return os.path.join(self.root, key + ".json")

    def _journal(self, key):
        return os.path.join(self.root, key + ".hits")

    def get(self, key):
        """The cached benchmark for ``key``, or ``None``.  A missing,
        truncated, corrupted, or version-mismatched artifact is a miss
        (the next :meth:`put` overwrites it)."""
        path = self.path_for(key)
        try:
            benchmark = artifact.load(path)
        except (OSError, artifact.ArtifactError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        self.record_hit(key)
        return benchmark

    def put(self, key, benchmark, meta=None):
        """File ``benchmark`` under ``key``; returns the artifact path."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(key)
        artifact.save(benchmark, path)
        entry = {"key": key}
        entry.update(meta or {})
        try:
            atomic_write(self._sidecar(key), json.dumps(entry))
            # A rebuild starts the hit count over: the artifact the old
            # journal counted no longer exists.
            try:
                os.unlink(self._journal(key))
            except FileNotFoundError:
                pass
        except OSError:
            pass
        self.stores += 1
        return path

    def record_hit(self, key):
        """Durably count one reuse of ``key``.

        One ``O_APPEND`` byte per hit: atomic under concurrency (no
        read-modify-write window for parallel serve workers to race)
        and crash-safe (a torn append of a single byte is impossible).
        Best-effort, like the result cache: a read-only cache still
        serves hits, it just stops counting.
        """
        try:
            fd = os.open(
                self._journal(key), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, b"+")
            finally:
                os.close(fd)
        except OSError:
            pass

    def durable_hits(self, key):
        """Total recorded reuses of ``key`` across every process that
        ever served it: the size of its hit journal."""
        try:
            return os.path.getsize(self._journal(key))
        except OSError:
            return 0

    def get_or_build(self, app, source, seed=0, ruleset=None, warm_cache=False):
        """The compiled benchmark for (app, source, seed, ruleset),
        tracing and compiling only on a miss.

        Returns ``(benchmark, info)`` where ``info`` records the key,
        whether the artifact was reused, and the file it lives in.  On
        a build, the traced run's elapsed time and event count are
        stashed into ``benchmark.stats`` (``source_elapsed``,
        ``trace_events``) so cache hits can serve them without
        re-tracing.
        """
        key = artifact_key(app, source, seed, ruleset, warm_cache)
        benchmark = self.get(key)
        if benchmark is not None:
            return benchmark, {"key": key, "cached": True, "path": self.path_for(key)}
        from repro.artc.compiler import compile_trace
        from repro.bench.harness import trace_application

        traced = trace_application(app, source, seed, warm_cache=warm_cache)
        benchmark = compile_trace(traced.trace, traced.snapshot, ruleset=ruleset)
        benchmark.stats["source_elapsed"] = traced.elapsed
        benchmark.stats["trace_events"] = len(traced.trace)
        path = self.put(key, benchmark, meta={"app": app.name, "source": source.name})
        return benchmark, {"key": key, "cached": False, "path": path}

    def stats(self):
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self):
        return "<ArtifactCache %s: %d hits, %d misses, %d stores>" % (
            self.root, self.hits, self.misses, self.stores,
        )


_default = None


def get_default_cache():
    """The process-wide cache at :func:`default_artifact_dir`."""
    global _default
    if _default is None or _default.root != default_artifact_dir():
        _default = ArtifactCache()
    return _default


def resolve(artifact_cache):
    """Resolve a caller's ``artifact_cache`` argument.

    - an :class:`ArtifactCache`: used as-is;
    - ``True``: the default cache;
    - ``False``: no caching;
    - ``None`` (the usual default): the default cache *if*
      ``$ARTC_ARTIFACT_DIR`` opts this process in, else no caching.
    """
    if artifact_cache is None:
        if os.environ.get("ARTC_ARTIFACT_DIR"):
            return get_default_cache()
        return None
    if artifact_cache is True:
        return get_default_cache()
    if artifact_cache is False:
        return None
    return artifact_cache
