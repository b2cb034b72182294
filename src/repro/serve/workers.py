"""The sharded worker-process pool behind ``artc serve``.

Workers are **processes, not threads**: the discrete-event simulator
is pure Python, so concurrent replays in one interpreter would
serialize on the GIL (and share mutable module state the cores were
never built to share).  Each worker owns a duplex pipe to the parent
and runs :func:`worker_main`: receive one job, execute it through
:mod:`repro.serve.jobs`, send one reply.

Sharding: a job's coalescing key picks its shard
(``int(key[:8], 16) % nshards``), so identical cells always land on
the same worker and its in-memory benchmark memo stays hot.  Each
shard has its own queue; depth is exported as a gauge.

Failure handling, per job:

- **crash** -- the blocking ``recv`` raises ``EOFError``; the job
  fails with a 500 ``worker-crashed`` envelope and the shard re-spawns
  a fresh process before taking its next job.
- **timeout** -- the parent kills the worker outright (a wedged replay
  holds the process hostage; there is nothing gentler to do), replies
  504, and re-spawns.  In-replay hangs can additionally be bounded
  from *inside* via the request's ``watchdog`` param, which rides the
  PR 4 hardening machinery.

Shutdown sends each worker a ``None`` sentinel, joins briefly, then
terminates stragglers.
"""

import asyncio
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

from repro.serve import protocol

#: Sentinel asking a worker process to exit its loop.
_STOP = None


def default_worker_count():
    """Half the cores, clamped to [2, 8]: replay is CPU-bound, and the
    front-end + executor threads want some room."""
    try:
        cores = os.cpu_count() or 2
    except (AttributeError, OSError):  # pragma: no cover
        cores = 2
    return max(2, min(8, cores // 2 or 2))


def shard_of(key, nshards):
    """Stable shard assignment from a coalescing key."""
    return int(key[:8], 16) % nshards


def worker_main(conn, shard, options):
    """Worker-process entry point: one job in, one reply out, forever.

    ``options``: ``artifact_dir`` (the shared content-addressed cache
    root) and ``allow_debug``.  Module-level so it is picklable under
    the ``spawn`` start method too.
    """
    from repro.serve.jobs import JobContext, execute

    ctx = JobContext(
        artifact_dir=options.get("artifact_dir"),
        allow_debug=options.get("allow_debug", False),
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is _STOP:
            break
        job_id, payload = message
        reply = execute(payload, ctx)
        reply["shard"] = shard
        reply["pid"] = os.getpid()
        reply["jobs_done"] = ctx.jobs_done
        reply["compiles"] = ctx.compiles
        try:
            conn.send((job_id, reply))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerHandle(object):
    """One shard's live process + pipe."""

    __slots__ = ("shard", "options", "process", "conn", "jobs_done", "mp")

    def __init__(self, shard, options, mp_context):
        self.shard = shard
        self.options = options
        self.mp = mp_context
        self.process = None
        self.conn = None
        self.jobs_done = 0
        self.spawn()

    def spawn(self):
        parent_conn, child_conn = self.mp.Pipe(duplex=True)
        self.process = self.mp.Process(
            target=worker_main,
            args=(child_conn, self.shard, self.options),
            name="artc-serve-worker-%d" % self.shard,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def kill(self):
        try:
            self.process.kill()
        except (AttributeError, OSError):  # pragma: no cover
            try:
                self.process.terminate()
            except OSError:
                pass
        try:
            self.conn.close()
        except OSError:
            pass

    def alive(self):
        return self.process is not None and self.process.is_alive()


class ProcessPool(object):
    """``nshards`` worker processes, one dispatch loop per shard.

    Lives entirely on the server's asyncio loop: ``submit`` enqueues a
    job and returns an awaitable future that resolves to the worker's
    reply envelope (never raises -- failures are error envelopes, so
    coalesced followers can share them safely).
    """

    def __init__(self, nshards=None, artifact_dir=None, allow_debug=False,
                 metrics=None):
        self.nshards = nshards or default_worker_count()
        self.options = {"artifact_dir": artifact_dir, "allow_debug": allow_debug}
        self.metrics = metrics
        self.respawns = 0
        self.crashes = 0
        self.timeouts = 0
        self._handles = []
        self._queues = []
        self._dispatchers = []
        self._executor = None
        self._running = False
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        self._executor = ThreadPoolExecutor(
            max_workers=self.nshards + 1,
            thread_name_prefix="artc-serve-pool",
        )
        self._handles = [
            _WorkerHandle(shard, self.options, self._mp)
            for shard in range(self.nshards)
        ]
        self._queues = [asyncio.Queue() for _ in range(self.nshards)]
        self._running = True
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch(shard))
            for shard in range(self.nshards)
        ]

    async def stop(self, drain_timeout=10.0):
        """Graceful: stop dispatch, sentinel the workers, join, then
        terminate whatever is left."""
        self._running = False
        for queue in self._queues:
            queue.put_nowait(_STOP)
        if self._dispatchers:
            await asyncio.wait(self._dispatchers, timeout=drain_timeout)
        for handle in self._handles:
            try:
                handle.conn.send(_STOP)
            except (OSError, ValueError):
                pass
        loop = asyncio.get_event_loop()
        for handle in self._handles:
            await loop.run_in_executor(
                self._executor, handle.process.join, 2.0
            )
            if handle.alive():
                handle.kill()
        self._executor.shutdown(wait=False)

    # -- submission ----------------------------------------------------

    def queue_depth(self):
        return sum(queue.qsize() for queue in self._queues)

    def submit(self, key, payload, timeout=None):
        """Enqueue one job on its shard; returns a future resolving to
        the worker's reply envelope."""
        if not self._running:
            future = asyncio.get_event_loop().create_future()
            future.set_result({
                "ok": False,
                "status": protocol.UNAVAILABLE,
                "error": {"type": "shutting-down",
                          "message": "worker pool is stopped"},
            })
            return future
        shard = shard_of(key, self.nshards)
        future = asyncio.get_event_loop().create_future()
        self._queues[shard].put_nowait((payload, future, timeout))
        if self.metrics is not None:
            depth = self.queue_depth()
            self.metrics.gauge("serve.queue_depth").set(depth)
            self.metrics.histogram(
                "serve.queue_depth_observed", bounds=_COUNT_BOUNDS()
            ).observe(float(depth))
        return future

    # -- dispatch ------------------------------------------------------

    async def _dispatch(self, shard):
        queue = self._queues[shard]
        while True:
            job = await queue.get()
            if job is _STOP:
                break
            payload, future, timeout = job
            envelope = await self._run_on(shard, payload, timeout)
            envelope.setdefault("shard", shard)
            if self.metrics is not None:
                self.metrics.gauge("serve.queue_depth").set(self.queue_depth())
            if not future.cancelled():
                future.set_result(envelope)
        # Drain anything still queued with 503s so no future hangs.
        while not queue.empty():
            job = queue.get_nowait()
            if job is _STOP:
                continue
            _payload, future, _timeout = job
            if not future.cancelled():
                future.set_result({
                    "ok": False,
                    "status": protocol.UNAVAILABLE,
                    "error": {"type": "shutting-down",
                              "message": "server stopped before this job ran"},
                    "shard": shard,
                })

    async def _run_on(self, shard, payload, timeout):
        handle = self._handles[shard]
        loop = asyncio.get_event_loop()
        if not handle.alive():
            self._respawn(shard)
            handle = self._handles[shard]
        try:
            handle.conn.send((id(payload), payload))
        except (OSError, ValueError):
            self._note_crash()
            self._respawn(shard)
            return self._crash_envelope("worker pipe was closed")
        recv = loop.run_in_executor(self._executor, handle.conn.recv)
        try:
            if timeout is not None:
                _job_id, reply = await asyncio.wait_for(recv, timeout)
            else:
                _job_id, reply = await recv
        except asyncio.TimeoutError:
            self.timeouts += 1
            handle.kill()
            # The executor thread's recv fails with EOF once the dead
            # worker's pipe closes; swallow that quietly.
            recv.add_done_callback(_swallow)
            self._respawn(shard)
            return {
                "ok": False,
                "status": protocol.TIMEOUT,
                "error": {
                    "type": "timeout",
                    "message": "job exceeded its %.3fs timeout; "
                               "worker killed and re-spawned" % timeout,
                },
            }
        except (EOFError, OSError):
            self._note_crash()
            self._respawn(shard)
            return self._crash_envelope(
                "worker died mid-job (exitcode %r)"
                % getattr(handle.process, "exitcode", None)
            )
        handle.jobs_done += 1
        return reply

    def _respawn(self, shard):
        old = self._handles[shard]
        if old.alive():
            old.kill()
        self._handles[shard] = _WorkerHandle(shard, self.options, self._mp)
        self.respawns += 1
        if self.metrics is not None:
            self.metrics.counter("serve.workers.respawns").inc()

    def _note_crash(self):
        self.crashes += 1
        if self.metrics is not None:
            self.metrics.counter("serve.workers.crashes").inc()

    @staticmethod
    def _crash_envelope(message):
        return {
            "ok": False,
            "status": protocol.WORKER_ERROR,
            "error": {"type": "worker-crashed", "message": message},
        }

    # -- introspection -------------------------------------------------

    def describe(self):
        return [
            {
                "shard": handle.shard,
                "pid": handle.process.pid,
                "alive": handle.alive(),
                "jobs_done": handle.jobs_done,
                "queued": self._queues[handle.shard].qsize()
                if self._queues else 0,
            }
            for handle in self._handles
        ]


def _swallow(future):
    try:
        future.result()
    except BaseException:
        pass


def _COUNT_BOUNDS():
    from repro.obs.metrics import COUNT_BOUNDS

    return COUNT_BOUNDS
