"""Every abstract-replay prediction of the 34 Magritte traces, pinned.

Each profile (traced on ``mac-hdd`` at seed 0, compiled with the ARTC
defaults) is predicted in all four modes, self-replayed and against a
Linux target: 272 predictions.  One sha256 per (profile, target) over
the sorted JSON of its four ``Prediction.to_dict()`` must equal the
value in ``prediction_goldens.json``, so a change to the VFS, the
executor, the emulation planner or the replayer's per-action body that
moves one predicted errno, digest, widening point or reason fails here.

Re-record them only for a change that is *meant* to move a prediction::

    PYTHONPATH=src python -m tests.verify.test_prediction_goldens
"""

import hashlib
import json
import os

import pytest

from repro.verify import predict_all
from tests.conftest import magritte_benchmarks

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "prediction_goldens.json")

TARGETS = (None, "linux")


def prediction_digests(benchmarks):
    """``{"profile/target": sha256}``; target ``self`` is the trace's
    own platform."""
    out = {}
    for name, bench in benchmarks.items():
        for target in TARGETS:
            payload = [p.to_dict() for p in predict_all(bench, target=target)]
            blob = json.dumps(payload, sort_keys=True).encode("utf-8")
            out["%s/%s" % (name, target or "self")] = hashlib.sha256(blob).hexdigest()
    return out


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_every_prediction_unchanged(goldens, magritte):
    assert len(goldens) == 34 * len(TARGETS)
    values = prediction_digests(magritte)
    assert sorted(values) == sorted(goldens)
    assert {key for key in goldens if goldens[key] != values[key]} == set()


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(prediction_digests(magritte_benchmarks()), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
