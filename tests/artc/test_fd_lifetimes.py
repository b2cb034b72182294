"""A closed descriptor stays closed: descriptor slots (planir.FdSlots).

ROOT names a descriptor by ``(number, generation)``.  A traced close
ends its generation, and the number may be handed to another file
before a later use of the closed one.  The trace saw that use fail
``EBADF``; a replay must too, and must leave the file the number was
recycled for alone.
"""

import pytest

from repro.artc import planir
from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import ReplayConfig, replay
from repro.bench.harness import trace_application
from repro.bench.platforms import PLATFORMS
from repro.core.modes import ReplayMode
from repro.stream.follow import follow_replay
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify.abstract import fs_digest, predict
from repro.workloads.magritte.app import MagritteApp
from repro.workloads.magritte.profiles import PROFILES, Profile

MIB = 1 << 20
TARGET = PLATFORMS["hdd-ext4"]
STALE = 6  # T1's pwrite through the descriptor it closed at #3


def rec(idx, tid, name, args, ret=0, err=None):
    return TraceRecord(idx, tid, name, args, ret, err, idx * 0.01, idx * 0.01 + 0.005)


def recycled_trace():
    """T1 opens fd 3, writes and closes it, and its pwrite through 3
    fails ``EBADF``; T2 then opens a file in the directory T1 made and
    gets 3.  At replay T2's open waits only for the ``mkdir``, and T1's
    cold 1 MiB read in between lets it win: the VFS recycles the number
    before T1's pwrite issues."""
    trace = Trace([
        rec(0, 1, "open", {"path": "/a", "flags": "O_WRONLY|O_CREAT", "mode": 0o644}, 3),
        rec(1, 1, "open", {"path": "/big", "flags": "O_RDONLY"}, 4),
        rec(2, 1, "write", {"fd": 3, "nbytes": 4096}, 4096),
        rec(3, 1, "close", {"fd": 3}),
        rec(4, 1, "mkdir", {"path": "/m", "mode": 0o755}),
        rec(5, 1, "read", {"fd": 4, "nbytes": MIB}, MIB),
        rec(STALE, 1, "pwrite", {"fd": 3, "nbytes": 4096, "offset": 0}, -1, "EBADF"),
        rec(7, 2, "open", {"path": "/m/f", "flags": "O_WRONLY|O_CREAT", "mode": 0o644}, 3),
    ], platform="linux")
    snapshot = Snapshot()
    snapshot.add("/big", "reg", MIB)
    return trace, snapshot


@pytest.fixture(scope="module")
def recycled():
    trace, snapshot = recycled_trace()
    return trace, snapshot, compile_trace(trace, snapshot)


def target_fs(snapshot):
    fs = TARGET.make_fs(seed=3)
    initialize(fs, snapshot)
    fs.stack.drop_caches()
    return fs


def outcome(report, idx):
    row = next(r for r in report.results if r.idx == idx)
    return row.ret, row.err


class TestSlots(object):
    def test_effects_name_each_generation(self, recycled):
        _trace, _snapshot, bench = recycled
        slots = planir.fd_slots(bench)
        effects = slots.effects
        # The two generations of fd 3 and the one of fd 4: three slots,
        # each starting at its traced number.
        assert slots.initial == [3, 4, 3]
        assert effects[0] == ((), ((0,), None))    # open writes (3, 0)
        assert effects[3] == ((0,), ((), 0))       # close poisons it
        assert effects[STALE] == ((0,), None)      # the stale use reads it
        assert effects[7] == ((), ((2,), None))    # T2's open: (3, 1)

    def test_settle_poisons_only_on_success(self):
        fds = [3]
        planir.settle(fds, ((), 0), -1, "EBADF")
        assert fds == [3]
        planir.settle(fds, ((), 0), 0, None)
        assert fds == [planir.CLOSED]
        planir.settle(fds, ((0,), None), 5, None)
        assert fds == [5]


class TestClosedStaysClosed(object):
    @pytest.mark.parametrize("core", ["events", "scoreboard", "jit"])
    def test_stale_use_fails_ebadf(self, recycled, core):
        _trace, snapshot, bench = recycled
        fs = target_fs(snapshot)
        report = replay(bench, fs, ReplayConfig(core=core))
        assert outcome(report, 7) == (3, None)  # T2 got the number first
        assert outcome(report, STALE) == (-1, "EBADF")
        assert report.failures == 0
        assert fs.lookup("/m/f").size == 0  # T2's file untouched

    def test_live_follow_on_the_scoreboard(self, recycled, tmp_path):
        trace, snapshot, _bench = recycled
        path = str(tmp_path / "trace.json")
        trace.save(path)
        (tmp_path / "trace.json.done").write_text("")
        fs = target_fs(snapshot)
        report, status = follow_replay(
            path, fs, ReplayConfig(core="scoreboard"), snapshot=snapshot)
        assert status.mode == "live"
        assert outcome(report, STALE) == (-1, "EBADF")
        assert fs.lookup("/m/f").size == 0

    @pytest.mark.parametrize("core", ["events", "scoreboard", "jit"])
    def test_closed_is_no_number_a_call_gives_a_meaning(self, core):
        """``mmap`` reads descriptor -1 as an anonymous mapping, so a
        closed slot must hold another number: the stale mmap fails."""
        snapshot = Snapshot()
        snapshot.add("/a", "reg", 8192)
        bench = compile_trace(Trace([
            rec(0, 1, "open", {"path": "/a", "flags": "O_RDONLY"}, 3),
            rec(1, 1, "close", {"fd": 3}),
            rec(2, 1, "mmap", {"fd": 3, "offset": 0, "length": 4096}, -1, "EBADF"),
        ], platform="linux"), snapshot)
        report = replay(bench, target_fs(snapshot), ReplayConfig(core=core))
        assert outcome(report, 2) == (-1, "EBADF")
        assert report.failures == 0

    @pytest.mark.parametrize("mode", [ReplayMode.ARTC, ReplayMode.SINGLE])
    def test_abstract_replay_predicts_it(self, recycled, mode):
        _trace, snapshot, bench = recycled
        fs = target_fs(snapshot)
        replay(bench, fs, ReplayConfig(core="events"))
        prediction = predict(bench, mode)
        assert prediction.status == "exact"
        assert prediction.outcomes[STALE] == "EBADF"
        assert prediction.digest == fs_digest(fs)


@pytest.fixture(scope="module")
def meta_churn():
    """``iphoto_import400`` replanned for seed 0, as the ``meta_churn``
    benchmark workload traces it (7,382 actions, 10 threads)."""
    base = PROFILES["iphoto_import400"]
    fields = {slot: getattr(base, slot) for slot in Profile.__slots__}
    fields.update(name="iphoto_import400_s0", mix=dict(base.mix))
    traced = trace_application(
        MagritteApp(Profile(**fields)), PLATFORMS["mac-hdd"], seed=0)
    return compile_trace(traced.trace, traced.snapshot), traced.snapshot


@pytest.mark.parametrize("core", ["events", "scoreboard", "jit"])
def test_meta_churn_stale_uses_fail_ebadf(meta_churn, core):
    """#7347-#7349 use ``(3, 6)``, which T9 closed at #7342; T8's open
    at #7357 gets 3 again first at replay."""
    bench, snapshot = meta_churn
    assert len(bench) == 7382
    fs = TARGET.make_fs(seed=202)
    initialize(fs, snapshot)
    fs.stack.drop_caches()
    report = replay(bench, fs, ReplayConfig(core=core))
    for idx in (7347, 7348, 7349):
        assert bench.actions[idx].ann == {"fd": 6}
        assert outcome(report, idx) == (-1, "EBADF"), idx
