"""End-to-end tests for the ``artc serve`` daemon.

One module-scoped daemon (2 worker shards, private artifact dir, debug
hooks enabled) backs most tests; the quota tests run their own
short-lived servers with deliberately tiny policies.

The replay-identity tests compare serve responses against the real
command line: ``artc replay --json --state-digest`` on the artifact the
daemon replayed, with the flags that say what the request said -- so
agreement proves the whole daemon path (protocol, sharding, coalescing,
cache) preserves byte-identical reports and final FS-state digests.
"""

import json
import shutil
import socket
import tempfile
import threading
import time

import pytest

from repro import cli
from repro.bench.artifacts import ArtifactCache
from repro.core.modes import ReplayMode
from repro.serve import ServeConfig, ServerThread, submit_many
from repro.serve.protocol import request_key
from repro.serve.quotas import QuotaPolicy
from repro.serve.workers import shard_of

# A deliberately small cell so compiles take well under a second.
APP_ARGS = {"nthreads": 2, "reads_per_thread": 30, "file_bytes": 4 << 20}


def cell(seed, **extra):
    params = {
        "app": "randreads",
        "app_args": dict(APP_ARGS),
        "source": "mac-ssd",
        "platform": "hdd-ext4",
        "seed": seed,
    }
    params.update(extra)
    return params


def target_flags(params):
    """The ``artc replay`` flags that say what ``params`` say."""
    flags = ["-p", params["platform"], "--seed", str(params["seed"])]
    for name, flag in (("mode", "-m"), ("core", "--core")):
        if name in params:
            flags += [flag, params[name]]
    return flags


def direct_replay(envelope, flags, capsys):
    """The oracle: ``artc replay`` itself, on the artifact the daemon
    replayed; returns ``(summary, state_digest)``."""
    capsys.readouterr()
    path = envelope["result"]["artifact"]["path"]
    assert cli.main(
        ["replay", path] + flags + ["--json", "--state-digest"]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    return summary, summary.pop("state_digest")


@pytest.fixture(scope="module")
def workdir():
    # mkdtemp (not tmp_path) keeps the unix socket path short enough
    # for sun_path's ~108-byte limit.
    root = tempfile.mkdtemp(prefix="artc-serve-")
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def served(workdir):
    config = ServeConfig(
        unix_path=workdir + "/artc.sock",
        workers=2,
        artifact_dir=workdir + "/artifacts",
        allow_debug=True,
    )
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture
def client(served):
    with served.client(timeout=120.0) as conn:
        yield conn


def counter(client, name):
    return client.metrics().get(name, {}).get("value", 0)


class TestRoundTrip(object):
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert result["protocol"] == "artc-serve-v1"

    def test_status_reports_pool(self, client):
        status = client.status()
        assert status["pool"]["shards"] == 2
        assert len(status["workers"]) == 2
        assert status["uptime_seconds"] >= 0

    def test_unknown_kind_is_404(self, client):
        envelope = client.request("frobnicate", check=False)
        assert envelope["ok"] is False
        assert envelope["status"] == 404

    def test_bad_json_line_is_400(self, served):
        with socket.socket(socket.AF_UNIX) as sock:
            sock.settimeout(10.0)
            sock.connect(served.config.unix_path)
            sock.sendall(b"this is not json\n")
            envelope = json.loads(sock.makefile("rb").readline())
        assert envelope["ok"] is False
        assert envelope["status"] == 400
        assert envelope["error"]["type"] == "protocol-error"

    def test_bad_cell_is_clean_error(self, client):
        envelope = client.request("replay", {"app": "no-such-app"},
                                  check=False)
        assert envelope["ok"] is False
        assert envelope["status"] == 404
        assert envelope["error"]["type"] == "unknown-app"


class TestReplayIdentity(object):
    """Serve responses must be byte-identical to direct ``artc
    replay`` -- report summary and final FS-state digest -- across
    every ordering mode and every replay core."""

    CASES = [(mode, "auto") for mode in ReplayMode.ALL] + [
        (ReplayMode.ARTC, "events"),
        (ReplayMode.ARTC, "scoreboard"),
        (ReplayMode.ARTC, "jit"),
    ]

    @pytest.mark.parametrize("mode,core", CASES)
    def test_matches_direct_replay(self, client, capsys, mode, core):
        params = cell(seed=7, mode=mode, core=core)
        envelope = client.replay(**params)
        summary, digest = direct_replay(envelope, target_flags(params), capsys)
        assert envelope["result"]["summary"] == summary
        assert envelope["result"]["state_digest"] == digest
        assert envelope["result"]["summary"]["failures"] == 0

    #: Target fields sent *by flag*: the same list goes to ``artc
    #: submit replay`` and to ``artc replay``.
    FLAG_CASES = [
        ["--jitter", "0.0005", "-t", "natural"],
        ["--fsync-mode", "flush"],
        ["--cache-mb", "1"],
        ["--retry-max", "2"],
    ]

    @pytest.mark.parametrize("flags", FLAG_CASES, ids=lambda f: f[0].strip("-"))
    def test_submit_flags_match_replay_flags(self, served, capsys, flags):
        flags = ["-p", "hdd-ext4", "--seed", "7"] + flags
        capsys.readouterr()
        assert cli.main(
            ["submit", "--socket", served.config.unix_path, "replay",
             "--app", "randreads", "--app-args", json.dumps(APP_ARGS),
             "--source", "mac-ssd"] + flags
        ) == 0
        envelope = json.loads(capsys.readouterr().out)
        summary, digest = direct_replay(envelope, flags, capsys)
        assert envelope["result"]["summary"] == summary
        assert envelope["result"]["state_digest"] == digest

    def test_profile_reports_the_replay(self, client):
        # A profile replays through the same door as a replay, so one
        # request reports one summary from both kinds: every target
        # field counts, fsync_mode included (a mac fsync replayed on
        # Linux as a plain flush finishes sooner than a durable one).
        params = cell(seed=7, app="leveldb-fillsync",
                      app_args={"nthreads": 2, "ops_per_thread": 10})
        flushed = dict(params, fsync_mode="flush")
        replayed = client.replay(**flushed)["result"]["summary"]
        assert client.profile(**flushed)["result"]["summary"] == replayed
        durable = client.replay(**params)["result"]["summary"]
        assert replayed["elapsed"] < durable["elapsed"]

    def test_concurrent_sessions_isolated(self, served, capsys):
        # 8 in-flight sessions over 4 distinct cells: every response
        # must match its own cell's oracle, unperturbed by neighbours.
        seeds = [101, 102, 103, 104]
        requests = [("replay", cell(seed)) for seed in seeds for _ in (0, 1)]
        envelopes = submit_many(
            served.client_kwargs(), requests, concurrency=8, barrier=True
        )
        assert all(envelope["ok"] for envelope in envelopes), envelopes
        for index, seed in enumerate(seeds):
            summary, digest = direct_replay(
                envelopes[2 * index], target_flags(cell(seed)), capsys
            )
            for envelope in envelopes[2 * index:2 * index + 2]:
                assert envelope["result"]["summary"] == summary
                assert envelope["result"]["state_digest"] == digest


def shard_for(kind, params, workers):
    """The worker shard the daemon routes ``(kind, params)`` to."""
    return shard_of(request_key({"kind": kind, "params": params}), workers)


class TestCoalescing(object):
    def test_identical_inflight_requests_run_once(self, served, client):
        k = 6
        params = cell(seed=777)
        workers = served.config.workers
        # A request that lands after the leader's replay finished is a
        # warm hit, not a follower.  So the cell's shard is first
        # occupied by a sleep: the leader queues behind it while all k
        # requests join the coalescer.
        shard = shard_for("replay", params, workers)
        sleep = next(
            candidate
            for candidate in (
                {"op": "sleep", "seconds": 3.0 + i / 1000.0} for i in range(64)
            )
            if shard_for("debug", candidate, workers) == shard
        )
        before_compiles = counter(client, "serve.cache.compiles")
        before_warm = counter(client, "serve.cache.warm_hits")
        blocker = threading.Thread(
            target=submit_many,
            args=(served.client_kwargs(), [("debug", sleep)]),
            kwargs={"concurrency": 1},
        )
        blocker.start()
        try:
            deadline = time.monotonic() + 30.0
            while client.status()["coalescing"]["inflight_keys"] < 1:
                assert time.monotonic() < deadline, "the sleep never started"
                time.sleep(0.01)
            envelopes = submit_many(
                served.client_kwargs(),
                [("replay", params)] * k,
                concurrency=k,
                barrier=True,
            )
        finally:
            blocker.join(timeout=60.0)
        assert not blocker.is_alive(), "the sleep never returned"
        assert all(envelope["ok"] for envelope in envelopes), envelopes
        # One execution: exactly one compile, zero warm re-serves --
        # the other K-1 responses came off the leader's envelope.
        assert counter(client, "serve.cache.compiles") - before_compiles == 1
        assert counter(client, "serve.cache.warm_hits") - before_warm == 0
        assert sum(1 for e in envelopes if e.get("coalesced")) == k - 1
        first = envelopes[0]["result"]
        for envelope in envelopes[1:]:
            assert envelope["result"]["summary"] == first["summary"]
            assert envelope["result"]["state_digest"] == first["state_digest"]

    def test_distinct_cells_do_not_coalesce(self, served, client):
        before = counter(client, "serve.cache.compiles")
        envelopes = submit_many(
            served.client_kwargs(),
            [("replay", cell(seed=881)), ("replay", cell(seed=882))],
            concurrency=2,
            barrier=True,
        )
        assert all(envelope["ok"] for envelope in envelopes)
        assert not any(envelope.get("coalesced") for envelope in envelopes)
        assert counter(client, "serve.cache.compiles") - before == 2


class TestWarmServing(object):
    def test_repeat_cell_serves_warm_with_durable_evidence(
            self, served, client):
        params = cell(seed=555)
        cold = client.replay(**params)
        assert cold["cached"] is False
        key = cold["result"]["artifact"]["key"]

        before_compiles = counter(client, "serve.cache.compiles")
        warm = client.replay(**params)
        assert warm["cached"] is True
        assert counter(client, "serve.cache.compiles") == before_compiles
        assert warm["result"]["summary"] == cold["result"]["summary"]
        assert warm["result"]["state_digest"] == cold["result"]["state_digest"]

        # The warm serve is provable after the fact: the artifact's
        # durable hit journal recorded it.
        cache = ArtifactCache(root=served.config.artifact_dir)
        assert cache.durable_hits(key) >= 1

    def test_warm_hits_metric_counts(self, client):
        params = cell(seed=556)
        client.replay(**params)
        before = counter(client, "serve.cache.warm_hits")
        client.replay(**params)
        assert counter(client, "serve.cache.warm_hits") == before + 1


class TestStream(object):
    """``stream`` over the daemon: one stateless, resumable ingestion
    step per request (docs/STREAMING.md)."""

    @pytest.fixture
    def trace(self, tmp_path):
        from repro.bench.harness import trace_application
        from repro.bench.platforms import PLATFORMS
        from repro.workloads import ParallelRandomReaders

        app = ParallelRandomReaders(nthreads=2, reads_per_thread=60,
                                    file_bytes=4 << 20)
        return trace_application(app, PLATFORMS["hdd-ext4"], seed=4).trace

    def test_finished_trace_matches_in_process_ingest(
            self, client, trace, tmp_path):
        from repro.stream.follow import ingest_trace

        path = str(tmp_path / "trace.json")
        trace.save(path)
        open(path + ".done", "w").close()
        envelope = client.request("stream", {"trace": path})
        assert envelope["ok"] is True
        result = envelope["result"]
        assert result["finished"] is True
        assert result["actions"] == len(trace)
        assert result["digest"] == ingest_trace(path).digest

    def test_unfinished_trace_resumes_from_its_checkpoint(
            self, client, trace, tmp_path):
        from repro.stream.follow import ingest_trace

        path = str(tmp_path / "trace.json")
        data = trace.dumps().encode("utf-8")
        cut = data.index(b"\n", len(data) // 2) + 1
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        params = {"trace": path, "checkpoint": str(tmp_path / "ck.json")}
        first = client.request("stream", params)["result"]
        assert first["finished"] is False
        assert 0 < first["actions"] < len(trace)
        with open(path, "ab") as handle:
            handle.write(data[cut:])
        open(path + ".done", "w").close()
        second = client.request("stream", params)["result"]
        assert second["finished"] is True
        assert second["resume_verified"] is True
        assert second["actions"] == len(trace)
        assert second["digest"] == ingest_trace(path).digest


class TestWorkerFailures(object):
    def test_crash_is_500_and_respawns(self, client):
        envelope = client.request("debug", {"op": "crash"}, check=False)
        assert envelope["ok"] is False
        assert envelope["status"] == 500
        assert envelope["error"]["type"] == "worker-crashed"
        # The shard is immediately usable again.
        echo = client.request("debug", {"op": "echo", "payload": "alive"})
        assert echo["result"]["echo"] == "alive"
        assert client.status()["pool"]["respawns"] >= 1

    def test_timeout_kills_worker(self, client):
        envelope = client.request(
            "debug", {"op": "sleep", "seconds": 30}, timeout=0.5, check=False
        )
        assert envelope["ok"] is False
        assert envelope["status"] == 504
        assert envelope["error"]["type"] == "timeout"
        echo = client.request("debug", {"op": "echo", "payload": "back"})
        assert echo["result"]["echo"] == "back"


class TestHttpView(object):
    def _http(self, served, payload):
        with socket.socket(socket.AF_UNIX) as sock:
            sock.settimeout(30.0)
            sock.connect(served.config.unix_path)
            sock.sendall(payload)
            chunks = b""
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                chunks += block
        head, _sep, body = chunks.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        return status, json.loads(body.decode("utf-8"))

    def test_healthz(self, served):
        status, payload = self._http(
            served, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 200
        assert payload["result"]["pong"] is True

    def test_metrics_endpoint(self, served, client):
        client.ping()  # ensure at least one counter exists
        status, payload = self._http(
            served, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 200
        assert "serve.requests_total" in payload["result"]["metrics"]

    def test_post_kind_route(self, served):
        body = json.dumps({"op": "echo", "payload": "via-http"}).encode()
        head = (
            "POST /debug HTTP/1.1\r\nHost: x\r\n"
            "X-Artc-Tenant: http-test\r\n"
            "Content-Length: %d\r\n\r\n" % len(body)
        ).encode()
        status, payload = self._http(served, head + body)
        assert status == 200
        assert payload["result"]["echo"] == "via-http"

    def test_unknown_route_404(self, served):
        status, payload = self._http(
            served, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 404
        assert payload["ok"] is False


class TestQuotas(object):
    def _server(self, workdir, name, policy):
        return ServerThread(ServeConfig(
            unix_path="%s/%s.sock" % (workdir, name),
            workers=2,
            artifact_dir=workdir + "/artifacts",
            allow_debug=True,
            quota=policy,
        ))

    def test_max_inflight_rejects_429(self, workdir):
        with self._server(workdir, "q1",
                          QuotaPolicy(max_inflight=1)) as handle:
            # Two overlapping sleeps from one tenant: distinct params
            # (no coalescing), so the second must hit the cap.
            envelopes = submit_many(
                handle.client_kwargs(),
                [("debug", {"op": "sleep", "seconds": 1.5}),
                 ("debug", {"op": "sleep", "seconds": 1.6})],
                concurrency=2,
                barrier=True,
            )
            statuses = sorted(e["status"] for e in envelopes)
            assert statuses == [200, 429]
            rejected = next(e for e in envelopes if e["status"] == 429)
            assert rejected["error"]["type"] == "quota-exceeded"
            assert rejected["reason"] == "max-inflight"

    def test_actions_budget_rejects_429(self, workdir):
        policy = QuotaPolicy(actions_per_sec=0.001, burst_actions=1.0)
        with self._server(workdir, "q2", policy) as handle:
            with handle.client(tenant="heavy") as conn:
                first = conn.replay(**cell(seed=1))
                assert first["ok"]  # charge-behind: whale admitted once
                second = conn.request("replay", cell(seed=2), check=False)
                assert second["status"] == 429
                assert second["reason"] == "actions-budget"
                # Local kinds are never charged, other tenants have
                # their own bucket.
                assert conn.ping()["pong"] is True
            with handle.client(tenant="light") as other:
                assert other.replay(**cell(seed=1))["ok"]


class TestWorkerFootprint(object):
    def test_replay_job_frees_its_machine_without_the_collector(self, workdir):
        """A warm replay job leaves no simulated machine behind for the
        cyclic collector, so a worker's resident size does not grow
        with the requests it has served (it did, by ~50 KB a request
        until a full collection, when the run's hooks, the snapshot
        walk and the parked dispatch loops each closed a cycle)."""
        import gc

        from repro.serve import jobs
        from repro.storage.stack import StorageStack

        def stacks():
            return sum(isinstance(o, StorageStack) for o in gc.get_objects())

        ctx = jobs.JobContext(artifact_dir=workdir + "/footprint")
        params = cell(seed=31)
        jobs._job_replay(params, ctx)  # compile; the memo keeps the benchmark
        gc.collect()
        gc.disable()
        try:
            before = stacks()
            assert jobs._job_replay(params, ctx)["artifact"]["memo"]
            assert stacks() == before
        finally:
            gc.enable()


class TestShutdown(object):
    def test_shutdown_request_stops_daemon(self, workdir):
        handle = self._fresh(workdir)
        with handle.client() as conn:
            assert conn.shutdown()["stopping"] is True
        handle._thread.join(timeout=30.0)
        assert not handle._thread.is_alive()
        with pytest.raises((ConnectionRefusedError, FileNotFoundError,
                            ConnectionError, OSError)):
            handle.client().ping()

    def _fresh(self, workdir):
        return ServerThread(ServeConfig(
            unix_path=workdir + "/down.sock",
            workers=2,
            artifact_dir=workdir + "/artifacts",
        )).start()
