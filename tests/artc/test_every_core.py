"""Properties every replay core keeps, on hand-built traces and on a
Magritte profile.

- A failed call on a bound descriptor waits for that descriptor's
  creator (ROOT's stage rule), so its errno comes from the same cause
  as in the trace; so does a failed ``open`` of a path another thread
  created.
- One benchmark replayed twice in one process gives the same report
  summary and the same final file-system state.
"""

import pytest

from repro.artc.compiler import compile_trace
from repro.artc.init import initialize
from repro.artc.replayer import REPLAY_CORES, ReplayConfig, replay
from repro.bench.platforms import PLATFORMS
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord
from repro.verify.abstract import fs_digest

TARGET = PLATFORMS["hdd-ext4"]


def config_for(core):
    return ReplayConfig(core=core, jobs=2 if core == "shard" else 1)


def hand_trace():
    """T1 opens ``/f`` read-only; T2's write on it fails ``EBADF``
    because of the access mode, 0.2 ms after the open returned."""
    records = [
        TraceRecord(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"},
                    3, None, 0.0010, 0.0012),
        TraceRecord(1, 2, "pwrite", {"fd": 3, "nbytes": 4096, "offset": 0},
                    -1, "EBADF", 0.0014, 0.0015),
        TraceRecord(2, 1, "close", {"fd": 3}, 0, None, 0.0020, 0.0021),
    ]
    snapshot = Snapshot()
    snapshot.add("/f", "reg", 8192)
    return compile_trace(Trace(records), snapshot)


def failed_open_trace():
    """T1 creates ``/f``; T2's exclusive create of it fails ``EEXIST``
    0.2 ms after the create returned: a failed call on the path
    generation T1's create began."""
    records = [
        TraceRecord(0, 1, "open", {"path": "/f", "flags": "O_WRONLY|O_CREAT"},
                    3, None, 0.0010, 0.0012),
        TraceRecord(1, 2, "open",
                    {"path": "/f", "flags": "O_WRONLY|O_CREAT|O_EXCL"},
                    -1, "EEXIST", 0.0014, 0.0015),
        TraceRecord(2, 1, "close", {"fd": 3}, 0, None, 0.0020, 0.0021),
    ]
    return compile_trace(Trace(records), Snapshot())


def failed_close_trace():
    """T1 opens ``/f`` as descriptor 3; T2's close of it fails ``EIO``
    0.2 ms later: a failed call on the descriptor generation T1's open
    began."""
    records = [
        TraceRecord(0, 1, "open", {"path": "/f", "flags": "O_RDONLY"},
                    3, None, 0.0010, 0.0012),
        TraceRecord(1, 2, "close", {"fd": 3}, -1, "EIO", 0.0014, 0.0015),
    ]
    snapshot = Snapshot()
    snapshot.add("/f", "reg", 8192)
    return compile_trace(Trace(records), snapshot)


def run(bench, core, seed=0):
    fs = TARGET.make_fs(seed=seed)
    initialize(fs, bench.snapshot)
    report = replay(bench, fs, config_for(core))
    return report, fs


@pytest.fixture(scope="module")
def hand():
    return hand_trace()


@pytest.mark.parametrize("core", REPLAY_CORES)
def test_failed_write_waits_for_the_open(hand, core):
    report, _fs = run(hand, core)
    results = {result.idx: result for result in report.results}
    assert results[1].issue >= results[0].done
    assert results[1].err == "EBADF"
    assert report.failures == 0


@pytest.mark.parametrize("core", REPLAY_CORES)
def test_failed_open_waits_for_the_create(core):
    report, _fs = run(failed_open_trace(), core)
    results = {result.idx: result for result in report.results}
    assert results[1].issue >= results[0].done
    assert results[1].err == "EEXIST"


@pytest.mark.xfail(strict=True, reason=(
    "fsstate._k_close notes a failed close's generation but adds no"
    " touch, so the close gets no edge to the open and issues first"
))
@pytest.mark.parametrize("core", REPLAY_CORES)
def test_failed_close_waits_for_the_open(core):
    report, _fs = run(failed_close_trace(), core)
    results = {result.idx: result for result in report.results}
    assert results[1].issue >= results[0].done


@pytest.mark.parametrize("core", REPLAY_CORES)
def test_two_replays_agree_on_the_hand_trace(hand, core):
    first, first_fs = run(hand, core)
    second, second_fs = run(hand, core)
    assert first.summary() == second.summary()
    assert fs_digest(first_fs) == fs_digest(second_fs)


@pytest.mark.parametrize("core", REPLAY_CORES)
def test_two_replays_agree_on_a_profile(magritte, core):
    bench = magritte["iphoto_import400"]
    first, first_fs = run(bench, core)
    second, second_fs = run(bench, core)
    assert fs_digest(first_fs) == fs_digest(second_fs)
    assert first.failures == second.failures
    assert first.warning_counts() == second.warning_counts()
    if core == "shard" and first.summary() != second.summary():
        # About half of all pairs differ, so a strict xfail would flake.
        pytest.xfail(
            "shard core timing varies run to run: #15 (T2 open) issues at "
            "15 us or 58 us, so elapsed and thread_time differ"
        )
    assert first.summary() == second.summary()
