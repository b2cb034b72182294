"""Smoke tests for the scripts under examples/."""

import os
import runpy

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def test_overlay_concurrent_runs(capsys):
    """Two replays overlapped on one engine through the replayer's own
    ``spawn_threads()``: nothing else runs the example, so a change to
    the replayer's internals could break it unnoticed."""
    runpy.run_path(
        os.path.join(EXAMPLES, "overlay_concurrent.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    rows = [
        line.split() for line in out.splitlines()
        if line.startswith(("iphoto_view400", "itunes_album1"))
    ]
    assert len(rows) == 2
    for _label, solo, concurrent, _failures in rows:
        # Sharing one disk slows each replay down, never speeds it up.
        assert float(concurrent[:-1]) > float(solo[:-1])
