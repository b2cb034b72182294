"""The ``artc serve`` asyncio front-end.

One :class:`ArtcServer` binds a unix socket and/or a TCP port, sniffs
each connection (JSON-lines or HTTP), and pushes every worker-kind
request through the same funnel::

    normalize -> quota admit -> coalesce -> shard -> worker -> settle

Local kinds (ping / status / metrics / shutdown) are answered inline.
Every endpoint is measured into a :class:`repro.obs.metrics.Metrics`
registry -- request counters and latency histograms per kind, queue
depth, coalescing and warm-hit counters, quota rejections, worker
re-spawns -- exported verbatim by ``GET /metrics`` and the ``metrics``
request kind (the table lives in ``docs/SERVICE.md``).

Shutdown is graceful: listeners close first, in-flight requests drain
(bounded), then the worker pool is sentinel-stopped.  ``run_server``
wires SIGINT/SIGTERM to that sequence for the CLI;
:class:`ServerThread` runs the same lifecycle on a background thread
for tests and benchmarks.
"""

import asyncio
import os
import threading
import time

from repro.bench.request import LOCAL_KINDS
from repro.obs.metrics import Metrics
from repro.serve import protocol
from repro.serve.batching import Coalescer
from repro.serve.quotas import QuotaExceeded, QuotaLedger, QuotaPolicy
from repro.serve.workers import ProcessPool, default_worker_count


class ServeConfig(object):
    """Everything one daemon instance needs to know."""

    __slots__ = (
        "unix_path", "host", "port", "workers", "artifact_dir",
        "default_timeout", "quota", "allow_debug", "drain_timeout",
    )

    def __init__(self, unix_path=None, host=None, port=None, workers=None,
                 artifact_dir=None, default_timeout=None, quota=None,
                 allow_debug=False, drain_timeout=10.0):
        if unix_path is None and port is None:
            raise ValueError("serve needs a unix socket path or a TCP port")
        self.unix_path = unix_path
        self.host = host or "127.0.0.1"
        self.port = port
        self.workers = workers or default_worker_count()
        self.artifact_dir = artifact_dir
        self.default_timeout = default_timeout
        self.quota = quota or QuotaPolicy()
        self.allow_debug = allow_debug
        self.drain_timeout = drain_timeout


class ArtcServer(object):
    def __init__(self, config, metrics=None):
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.pool = ProcessPool(
            nshards=config.workers,
            artifact_dir=config.artifact_dir,
            allow_debug=config.allow_debug,
            metrics=self.metrics,
        )
        self.quotas = QuotaLedger(config.quota)
        self.coalescer = Coalescer()
        self.started_at = None
        self._servers = []
        self._inflight = set()
        self._stopping = False
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        self.started_at = time.time()
        await self.pool.start()
        if self.config.unix_path:
            if os.path.exists(self.config.unix_path):
                os.unlink(self.config.unix_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection, path=self.config.unix_path
                )
            )
        if self.config.port is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=self.config.host,
                    port=self.config.port,
                )
            )
        ports = [
            sock.getsockname() for server in self._servers
            for sock in (server.sockets or [])
        ]
        return ports

    @property
    def tcp_port(self):
        """The bound TCP port (useful with ``port=0``), or None."""
        for server in self._servers:
            for sock in server.sockets or []:
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return name[1]
        return None

    async def stop(self):
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._inflight:
            await asyncio.wait(
                list(self._inflight), timeout=self.config.drain_timeout
            )
        await self.pool.stop(drain_timeout=self.config.drain_timeout)
        if self.config.unix_path and os.path.exists(self.config.unix_path):
            try:
                os.unlink(self.config.unix_path)
            except OSError:
                pass
        self._stopped.set()

    async def wait_stopped(self):
        await self._stopped.wait()

    # -- the request funnel --------------------------------------------

    async def handle_request(self, obj):
        """One decoded request object -> one response envelope."""
        counter = self.metrics.counter
        counter("serve.requests_total").inc()
        try:
            request = protocol.normalize_request(obj)
        except protocol.ProtocolError as exc:
            counter("serve.responses.error").inc()
            return protocol.error_response(
                obj.get("id") if isinstance(obj, dict) else None,
                exc.status, "protocol-error", str(exc),
            )
        counter("serve.requests.%s" % request["kind"]).inc()
        started = time.perf_counter()
        if request["kind"] in LOCAL_KINDS:
            envelope = await self._handle_local(request)
        else:
            envelope = await self._handle_worker_kind(request)
        elapsed = time.perf_counter() - started
        self.metrics.histogram(
            "serve.request_latency_seconds.%s" % request["kind"]
        ).observe(elapsed)
        envelope["elapsed_ms"] = round(elapsed * 1000.0, 3)
        counter(
            "serve.responses.ok" if envelope.get("ok")
            else "serve.responses.error"
        ).inc()
        return envelope

    async def _handle_worker_kind(self, request):
        if self._stopping:
            return protocol.error_response(
                request["id"], protocol.UNAVAILABLE, "shutting-down",
                "server is draining; resubmit elsewhere",
            )
        tenant = request["tenant"]
        try:
            self.quotas.admit(tenant)
        except QuotaExceeded as exc:
            self.metrics.counter("serve.quota.rejected").inc()
            return protocol.error_response(
                request["id"], protocol.QUOTA_EXCEEDED, "quota-exceeded",
                str(exc), reason=exc.reason,
            )
        key = protocol.request_key(request)
        self.metrics.gauge("serve.inflight").add(1)
        reply = None
        try:
            leader, future = self.coalescer.join(key)
            try:
                if leader:
                    timeout = request["timeout"] or self.config.default_timeout
                    reply = await self.pool.submit(key, {
                        "kind": request["kind"], "params": request["params"],
                    }, timeout=timeout)
                else:
                    self.metrics.counter("serve.coalesced_total").inc()
                    reply = await asyncio.shield(future)
            finally:
                if leader:
                    # Success or crash, the leader must wake followers;
                    # a None reply fans out as an internal error.
                    self.coalescer.finish(key, reply)
        finally:
            self.metrics.gauge("serve.inflight").add(-1)
            cost = reply.get("cost_actions") or 0 if isinstance(reply, dict) else 0
            self.quotas.settle(tenant, actions=cost)
        return self._envelope_from(request, reply, coalesced=not leader, key=key)

    def _envelope_from(self, request, reply, coalesced, key):
        """Per-requester envelope around a (possibly shared) worker
        reply."""
        if not isinstance(reply, dict):
            return protocol.error_response(
                request["id"], protocol.WORKER_ERROR, "internal",
                "worker returned %r" % (reply,), coalesced=coalesced,
            )
        if reply.get("ok"):
            cached = reply.get("cached")
            # Cache counters track *executions*; followers share the
            # leader's reply and must not re-count its compile.
            if not coalesced:
                if cached:
                    self.metrics.counter("serve.cache.warm_hits").inc()
                elif cached is False:
                    self.metrics.counter("serve.cache.compiles").inc()
            return protocol.ok_response(
                request["id"], reply.get("result"),
                coalesced=coalesced,
                cached=cached,
                shard=reply.get("shard"),
                key=key[:16],
            )
        error = reply.get("error") or {}
        return protocol.error_response(
            request["id"], reply.get("status", protocol.WORKER_ERROR),
            error.get("type", "internal"),
            error.get("message", "unknown worker failure"),
            coalesced=coalesced,
            key=key[:16],
            **({"traceback": error["traceback"]} if "traceback" in error else {})
        )

    async def _handle_local(self, request):
        kind = request["kind"]
        if kind == "ping":
            return protocol.ok_response(request["id"], {
                "pong": True, "protocol": protocol.PROTOCOL,
            })
        if kind == "metrics":
            return protocol.ok_response(request["id"], {
                "metrics": self.metrics.to_dict(),
            })
        if kind == "status":
            self.metrics.gauge("serve.uptime_seconds").set(
                time.time() - self.started_at
            )
            return protocol.ok_response(request["id"], {
                "protocol": protocol.PROTOCOL,
                "uptime_seconds": time.time() - self.started_at,
                "workers": self.pool.describe(),
                "pool": {
                    "shards": self.pool.nshards,
                    "respawns": self.pool.respawns,
                    "crashes": self.pool.crashes,
                    "timeouts": self.pool.timeouts,
                    "queue_depth": self.pool.queue_depth(),
                },
                "coalescing": {
                    "leaders": self.coalescer.leaders,
                    "coalesced": self.coalescer.coalesced,
                    "inflight_keys": self.coalescer.inflight_keys,
                },
                "quota": self.quotas.snapshot(),
                "metrics": self.metrics.to_dict(),
            })
        if kind == "shutdown":
            asyncio.ensure_future(self.stop())
            return protocol.ok_response(request["id"], {"stopping": True})
        raise AssertionError("unreachable local kind %r" % kind)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            first = await reader.readline()
            if not first:
                return
            if protocol.looks_like_http(first):
                await self._handle_http(first, reader, writer)
                return
            await self._handle_lines(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels handlers still parked in readline
            # (a client that never closed); exit quietly instead of
            # tracebacking after the shutdown banner.
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_lines(self, first, reader, writer):
        """JSON-lines: requests may pipeline; responses go out in
        completion order, tagged by id."""
        lock = asyncio.Lock()
        tasks = set()

        async def _serve_one(line):
            try:
                obj = protocol.decode_line(line)
            except protocol.ProtocolError as exc:
                envelope = protocol.error_response(
                    None, exc.status, "protocol-error", str(exc)
                )
            else:
                envelope = await self.handle_request(obj)
            async with lock:
                writer.write(protocol.encode_line(envelope))
                await writer.drain()

        line = first
        while line:
            if line.strip():
                task = asyncio.ensure_future(_serve_one(line))
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._inflight.discard)
            line = await reader.readline()
        if tasks:
            await asyncio.wait(tasks)

    async def _handle_http(self, first, reader, writer):
        """One request per connection, ``Connection: close``."""
        head = bytearray(first)
        while True:
            line = await reader.readline()
            head.extend(line)
            if not line or line in (b"\r\n", b"\n"):
                break
        try:
            method, path, headers = protocol.parse_http_head(bytes(head))
            length = int(headers.get("content-length", "0") or "0")
            body = await reader.readexactly(length) if length else b""
            request = protocol.http_request_from(method, path, headers, body)
        except protocol.ProtocolError as exc:
            writer.write(protocol.http_response(exc.status, {
                "ok": False,
                "error": {"type": "protocol-error", "message": str(exc)},
            }))
            await writer.drain()
            return
        envelope = await self.handle_request(request)
        writer.write(protocol.http_response(envelope["status"], envelope))
        await writer.drain()


# -- entry points ------------------------------------------------------


def run_server(config, ready=None, output=None):
    """Run a daemon until SIGINT/SIGTERM (the ``artc serve`` body).

    ``ready(server)`` fires after the listeners bind; ``output`` is a
    file-like for the banner (default stdout).
    """
    import signal
    import sys

    out = output or sys.stdout

    async def _main():
        server = ArtcServer(config)
        await server.start()
        where = []
        if config.unix_path:
            where.append("unix:%s" % config.unix_path)
        if config.port is not None:
            where.append("http://%s:%d" % (config.host, server.tcp_port))
        print(
            "artc serve: listening on %s (%d workers, artifacts in %s)"
            % (
                " and ".join(where),
                config.workers,
                config.artifact_dir or "default cache dir",
            ),
            file=out,
            flush=True,
        )
        if ready is not None:
            ready(server)
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.wait_stopped()
        requests = server.metrics.value("serve.requests_total", 0)
        print(
            "artc serve: stopped after %d requests (%d warm hits, "
            "%d compiles, %d coalesced, %d respawns)"
            % (
                requests,
                server.metrics.value("serve.cache.warm_hits", 0),
                server.metrics.value("serve.cache.compiles", 0),
                server.metrics.value("serve.coalesced_total", 0),
                server.pool.respawns,
            ),
            file=out,
            flush=True,
        )
        return 0

    return asyncio.run(_main())


class ServerThread(object):
    """A daemon on a background thread, for tests and benchmarks.

    ::

        with ServerThread(ServeConfig(unix_path=...)) as handle:
            client = handle.client()
            client.ping()
    """

    def __init__(self, config):
        self.config = config
        self.server = None
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._startup_error = None

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name="artc-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("artc serve thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = ArtcServer(self.config)
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.server = server
        self._ready.set()
        try:
            loop.run_until_complete(server.wait_stopped())
        finally:
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self):
        if self._loop is None or self.server is None:
            return
        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        self._thread.join(timeout=30.0)

    def client(self, **kwargs):
        from repro.serve.client import ServeClient

        if self.config.unix_path:
            kwargs.setdefault("unix_path", self.config.unix_path)
        else:
            kwargs.setdefault("host", self.config.host)
            kwargs.setdefault("port", self.server.tcp_port)
        return ServeClient(**kwargs)

    def client_kwargs(self):
        if self.config.unix_path:
            return {"unix_path": self.config.unix_path}
        return {"host": self.config.host, "port": self.server.tcp_port}

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
