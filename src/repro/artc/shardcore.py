"""The sharded replay core: resource-partitioned multi-process replay.

``ReplayConfig(core="shard", jobs=N)`` replays one compiled benchmark
across ``N`` forked worker processes.  The shard plan
(:mod:`repro.artc.shardplan`) partitions actions by resource affinity
over the dependency graph, so every materialized dependency edge is
intra-shard; each worker runs the replayer's own kernels
(:mod:`repro.artc.replayer`: the precompiled one where available) under
the scoreboard ordering policy, over its own copy-on-write replica of
the initialized file-system simulation.  A worker adds no loop of its
own: it supplies the kernels' consume/produce flag tables.

Cross-shard ordering is thread sequencing only: each consecutive
same-thread action pair split across shards gets one **completion
flag** in anonymous shared memory.  Every flag has exactly one writer
(the producer action's worker), so the protocol is lock-free: the
producer stores its simulated completion time then a ready byte; the
consumer spins briefly, then parks in bounded sleeps, re-checking the
byte.  Flag timestamps reconcile per-shard simulated clocks
Lamport-style (:meth:`repro.sim.engine.Engine.wake_at`): the consumer
resumes no earlier than the producer's completion time.

**Identity contract.**  The sharded replay is semantically
byte-identical to the single-process cores: the same per-action
outcomes (errno, conformance match), the same failure and warning
counts, and the same final FS-state digest (worker effects are merged
back onto the caller's file system through
:mod:`repro.vfs.statediff`).  Simulated *timing* follows the
partitioned-clock model instead: each shard's clock advances with its
local device model and only synchronizes at cross-shard gates, so
``elapsed``/per-action timestamps are a reconciled makespan, not the
single-spindle serialization the one-process simulator computes (a
true partition cannot reproduce globally shared cache/allocator/queue
timing without serializing -- see docs/PERFORMANCE.md).  With
``jobs=1`` (or a plan clamped to one shard) the run degenerates to the
scoreboard core and is byte-identical to it, timing included.

Support envelope: the ``shard`` column of
:data:`repro.artc.replayer.CAPABILITIES` (ARTC mode without
``program_seq``; no hardening, no crash-recovery resume, no fault
injection, no temporal replay).  Unsupported combinations raise
:class:`~repro.errors.ReplayError`.
"""

import mmap
import os
import pickle
import struct
import time
import traceback

from repro.artc import planir, shardplan
from repro.artc.replayer import _ReplayRun, request_features, resolve
from repro.artc.report import ActionResult, ReplayReport, ReplayWarning
from repro.core.modes import ReplayMode
from repro.errors import ReplayError
from repro.obs.context import of_engine
from repro.sim.events import Event, WaitEvent

#: Bytes per completion flag: an 8-byte little-endian float (producer's
#: simulated completion time), one ready byte, padding to keep slots on
#: their own 16-byte lanes.
_SLOT = 16

#: Flag-poll rounds before the waiter starts parking in sleeps.  On a
#: single-CPU host spinning steals the very cycles the producing
#: sibling needs, so park almost immediately there.
_SPIN_ROUNDS = 200 if (os.cpu_count() or 1) > 1 else 2

#: Park sleep between flag polls once the spin budget is spent.
_PARK_SLEEP = 0.0002

#: Wall-clock seconds without any cross-shard progress before a worker
#: declares the run wedged (a sibling worker died or stalled).
_STALL_TIMEOUT = 30.0

_pack_into = struct.pack_into
_unpack_from = struct.unpack_from


def _scoreboard_config(config):
    """``config`` with the core swapped to the scoreboard: the exact
    single-process run a one-shard plan degenerates to."""
    return config.replace(core="scoreboard", jobs=1)


def replay_sharded(benchmark, fs, config):
    """Entry point behind ``replay(..., ReplayConfig(core="shard"))``."""
    # The shard column of the capability table refuses what cannot be
    # partitioned (at any jobs: temporal, hardening, crash resume; at
    # jobs > 1 also faults, non-ARTC modes and program_seq).
    resolve(config, request_features(config, benchmark, fs))
    if config.jobs <= 1 or config.mode != ReplayMode.ARTC:
        return _ReplayRun(benchmark, fs, _scoreboard_config(config)).run()
    plan = shardplan.plan_for(benchmark, config.jobs)
    if plan.n_workers <= 1:
        report = _ReplayRun(benchmark, fs, _scoreboard_config(config)).run()
        report.shard_stats = dict(plan.stats)
        return report
    return _MultiShardReplay(benchmark, fs, config, plan).run()


class _ShardRun(_ReplayRun):
    """One worker's replay: the scoreboard run restricted to a shard.
    It owns no per-action loop -- it hands the kernels
    (:mod:`repro.artc.replayer`) its consume/produce flag tables and
    the gate/publish halves of the flag protocol, then drives the
    engine around the parked gates (:meth:`_drive`)."""

    def __init__(self, benchmark, fs, config, plan, shard_id, flags,
                 produce, consume, stall_timeout=_STALL_TIMEOUT):
        _ReplayRun.__init__(self, benchmark, fs, config)
        self.plan = plan
        self.shard_id = shard_id
        self._flags = flags
        #: producer action idx -> flag byte offset (this worker writes).
        self._produce = produce
        #: consumer action idx -> flag byte offset (this worker waits).
        self._consume = consume
        self._parked = []
        self._stall_timeout = stall_timeout
        # shard.* accounting, shipped back to the parent.
        self._gate_checks = 0
        self._blocked_gates = 0
        self._reconciliations = 0
        self._spin_seconds = 0.0
        self._park_seconds = 0.0

    # -- cross-shard gates ------------------------------------------------

    def _cross_gate(self, idx):
        """Consumer half: the effect that holds action ``idx`` until
        its thread predecessor in another shard has completed.  If the
        flag is already up, reconcile the clock; otherwise park for
        the driver to wake us."""
        off = self._consume[idx]
        flags = self._flags
        self._gate_checks += 1
        event = Event()
        if flags[off + 8]:
            if self.engine.wake_at(_unpack_from("<d", flags, off)[0], event):
                self._reconciliations += 1
        else:
            self._blocked_gates += 1
            self._parked.append((off, event))
        return WaitEvent(event)

    def _publish(self, idx):
        """Producer half: store this shard's simulated completion time,
        then the ready byte (single writer; timestamp strictly before
        the flag)."""
        off = self._produce[idx]
        flags = self._flags
        _pack_into("<d", flags, off, self.engine.now)
        flags[off + 8] = 1

    # -- the worker driver ------------------------------------------------

    def _drive(self):
        """Alternate the simulation engine with flag polling: drain
        everything runnable, then spin/park on the parked cross-shard
        gates until a sibling's producer publishes."""
        engine = self.engine
        processes = self._processes
        parked = self._parked
        flags = self._flags
        while True:
            engine.run()
            if not any(process.alive for process in processes):
                return
            if not parked:
                stuck = [p.name for p in processes if p.alive]
                raise ReplayError(
                    "shard %d deadlocked with no cross-shard gate pending; "
                    "threads still blocked: %s"
                    % (self.shard_id, ", ".join(stuck))
                )
            wait_started = time.perf_counter()
            deadline = wait_started + self._stall_timeout
            slept = 0.0
            spins = 0
            while True:
                fired = False
                i = 0
                while i < len(parked):
                    off, event = parked[i]
                    if flags[off + 8]:
                        if engine.wake_at(
                            _unpack_from("<d", flags, off)[0], event
                        ):
                            self._reconciliations += 1
                        parked[i] = parked[-1]
                        parked.pop()
                        fired = True
                    else:
                        i += 1
                if fired:
                    break
                spins += 1
                if spins < _SPIN_ROUNDS:
                    continue
                if time.perf_counter() >= deadline:
                    raise ReplayError(
                        "shard %d made no cross-shard progress for %.0fs "
                        "(wall clock); %d completion flags outstanding -- a "
                        "sibling worker likely died or stalled"
                        % (self.shard_id, self._stall_timeout, len(parked))
                    )
                time.sleep(_PARK_SLEEP)
                slept += _PARK_SLEEP
            waited = time.perf_counter() - wait_started
            self._park_seconds += slept
            self._spin_seconds += max(0.0, waited - slept)

    def run_shard(self):
        """Replay this worker's shard; the report holds raw (unsorted,
        unsuffixed) results for the parent to merge."""
        self._prepare()
        mine = set(self.plan.shard_actions[self.shard_id])
        feeds = {}
        for tid, actions in self.benchmark.by_thread().items():
            subset = [action for action in actions if action.idx in mine]
            if subset:
                feeds[tid] = subset
        self.spawn_threads(feeds, "shard%d" % self.shard_id)
        self._drive()  # returns only once every thread has finished
        return self.report

    def metrics_payload(self):
        return {
            "actions": len(self.report.results),
            "cross_gates": self._gate_checks,
            "cross_waits": self._blocked_gates,
            "reconciliations": self._reconciliations,
            "spin_seconds": self._spin_seconds,
            "park_seconds": self._park_seconds,
            "final_now": self.engine.now,
        }


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


class _MultiShardReplay(object):
    """The parent side: fork workers, collect pipes, merge reports and
    file-system effects back onto the caller's fs."""

    def __init__(self, benchmark, fs, config, plan):
        self.benchmark = benchmark
        self.fs = fs
        self.config = config
        self.plan = plan

    def run(self):
        from repro.verify.abstract import capture_entries

        benchmark = self.benchmark
        fs = self.fs
        plan = self.plan
        # Warm the execution-plan IR before forking so every worker
        # shares the compiled entries copy-on-write instead of
        # recompiling them N times.
        planir.plans_for(
            benchmark, benchmark.platform, fs.platform,
            self.config.o_excl_fix, self.config.emulation,
        )
        baseline = capture_entries(fs)
        started = fs.engine.now
        produce = {}
        consume = {}
        for index, (producer, consumer) in enumerate(plan.cross_edges):
            off = index * _SLOT
            produce[producer] = off
            consume[consumer] = off
        flags = mmap.mmap(-1, max(_SLOT, _SLOT * len(plan.cross_edges)))
        inner = _scoreboard_config(self.config)
        shard_ids = [
            shard for shard, acts in enumerate(plan.shard_actions) if acts
        ]
        workers = []
        try:
            for shard_id in shard_ids:
                rfd, wfd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        os.close(rfd)
                        for _pid, other_rfd, _sid in workers:
                            os.close(other_rfd)
                        self._worker(
                            inner, plan, shard_id, flags,
                            produce, consume, baseline, wfd,
                        )
                        status = 0
                    finally:
                        # Never unwind into the forked copy of the
                        # caller (pytest, the CLI): exit immediately.
                        os._exit(status)
                os.close(wfd)
                workers.append((pid, rfd, shard_id))
            payloads, errors = self._collect(workers)
        finally:
            flags.close()
        if errors:
            raise ReplayError(
                "sharded replay failed:\n%s" % "\n".join(errors)
            )
        return self._merge(payloads, baseline, started)

    # -- child ------------------------------------------------------------

    def _worker(self, inner, plan, shard_id, flags, produce, consume,
                baseline, wfd):
        from repro.verify.abstract import capture_entries
        from repro.vfs.statediff import diff_entries

        assign = plan.assign
        try:
            run = _ShardRun(
                self.benchmark, self.fs, inner, plan, shard_id, flags,
                {idx: off for idx, off in produce.items()
                 if assign[idx] == shard_id},
                {idx: off for idx, off in consume.items()
                 if assign[idx] == shard_id},
            )
            report = run.run_shard()
            changed, removed = diff_entries(baseline, capture_entries(self.fs))
            payload = {
                "shard": shard_id,
                "results": [
                    (r.idx, r.tid, r.name, r.issue, r.done, r.ret, r.err,
                     r.matched, r.skipped)
                    for r in report.results
                ],
                "warnings": [
                    (w.idx, w.kind, w.message, w.count, w.call)
                    for w in report.warnings
                ],
                "metrics": run.metrics_payload(),
                "changed": changed,
                "removed": removed,
            }
        except BaseException:
            payload = {"shard": shard_id, "error": traceback.format_exc()}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        _write_all(wfd, blob)
        os.close(wfd)

    # -- parent -----------------------------------------------------------

    def _collect(self, workers):
        payloads = []
        errors = []
        for pid, rfd, shard_id in workers:
            chunks = []
            while True:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
            os.close(rfd)
            _wpid, status = os.waitpid(pid, 0)
            blob = b"".join(chunks)
            if not blob:
                errors.append(
                    "shard %d worker (pid %d) exited without a result "
                    "(wait status %d)" % (shard_id, pid, status)
                )
                continue
            payload = pickle.loads(blob)
            if payload.get("error"):
                errors.append(
                    "shard %d worker failed:\n%s"
                    % (shard_id, payload["error"])
                )
            else:
                payloads.append(payload)
        return payloads, errors

    def _merge(self, payloads, baseline, started):
        from repro.vfs.statediff import apply_diff, merge_diffs

        benchmark = self.benchmark
        config = self.config
        report = ReplayReport(config.mode, benchmark.label)
        report.started = started
        results = []
        for payload in payloads:
            results.extend(
                ActionResult(*values) for values in payload["results"]
            )
        expected = len(benchmark.actions)
        if len(results) != expected or (
            len({r.idx for r in results}) != len(results)
        ):
            raise ReplayError(
                "sharded replay merged %d results for %d actions "
                "(dropped or duplicated shard work)"
                % (len(results), expected)
            )
        results.sort(key=lambda r: r.idx)
        report.results = results
        report.finished = max(
            (r.done for r in results), default=started
        )

        merged_warnings = {}
        for payload in payloads:
            for idx, kind, message, count, call in payload["warnings"]:
                key = (kind, call)
                current = merged_warnings.get(key)
                if current is None:
                    merged_warnings[key] = [idx, kind, message, count, call]
                else:
                    current[3] += count
                    if idx < current[0]:
                        current[0] = idx
                        current[2] = message
        for idx, kind, message, count, call in sorted(
            merged_warnings.values()
        ):
            if count > 1:
                message += " [x%d]" % count
            report.warn(ReplayWarning(idx, kind, message, count=count,
                                      call=call))

        try:
            changed, removed = merge_diffs(
                [(payload["changed"], payload["removed"])
                 for payload in payloads]
            )
        except ValueError as exc:
            raise ReplayError("sharded replay state merge failed: %s" % exc)
        apply_diff(self.fs, changed, removed)

        totals = {
            "cross_gates": 0, "cross_waits": 0, "reconciliations": 0,
            "spin_seconds": 0.0, "park_seconds": 0.0,
        }
        per_shard_actions = []
        for payload in payloads:
            metrics = payload["metrics"]
            per_shard_actions.append(metrics["actions"])
            for key in totals:
                totals[key] += metrics[key]
        stats = dict(self.plan.stats)
        stats.update(totals)
        stats["worker_actions"] = per_shard_actions
        report.shard_stats = stats

        obs = of_engine(self.fs.engine)
        if obs is not None:
            metrics = obs.metrics
            metrics.gauge("shard.shards").set(len(payloads))
            metrics.gauge("shard.cross_edges").set(len(self.plan.cross_edges))
            metrics.gauge("shard.cut_fraction").set(
                self.plan.stats.get("cut_fraction", 0.0)
            )
            metrics.counter("shard.cross_edge_waits").inc(
                totals["cross_waits"]
            )
            metrics.counter("shard.reconciliations").inc(
                totals["reconciliations"]
            )
            metrics.gauge("shard.spin_seconds").set(totals["spin_seconds"])
            metrics.gauge("shard.park_seconds").set(totals["park_seconds"])
            for count in per_shard_actions:
                metrics.histogram("shard.actions_per_shard").observe(count)
        return report
