"""What the compiler derives from the 34 Magritte traces, pinned.

Each profile is traced on ``mac-hdd`` at seed 0 and compiled with the
ARTC defaults; its ``benchmark_digest``, ``stream_digest_of``,
``model_misses``, ``n_edges`` and ``n_edges_reduced`` must equal the
values in ``compile_goldens.json``.  A change to the trace model, the
rules or the reducer that moves a single touch, annotation, predelay or
edge of any of them fails here.

The values were recorded before the compiler's namespace model moved
onto the VFS.  Re-record them only for a change that is *meant* to
move what the compiler derives::

    PYTHONPATH=src python -m tests.core.test_compile_goldens

``stream_digest`` alone may be re-recorded, by the same command, for a
change to the action chain's definition (:mod:`repro.stream.digest`)
that leaves the compiler alone.  The diff must then touch 34
``stream_digest`` lines and nothing else: ``benchmark_digest``,
``model_misses``, ``n_edges`` and ``n_edges_reduced`` byte-identical
are the evidence that the compiled output did not move.  The chain was
last redefined (typed blocks) after the VFS move.
"""

import json
import os

import pytest

from repro.stream.digest import benchmark_digest, stream_digest_of
from tests.conftest import magritte_benchmarks

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "compile_goldens.json")


def compiled_values(benchmarks):
    """``{profile: {value: ...}}`` for every compiled profile."""
    return {
        name: {
            "benchmark_digest": benchmark_digest(bench),
            "stream_digest": stream_digest_of(bench),
            "model_misses": bench.stats["model_misses"],
            "n_edges": bench.stats["n_edges"],
            "n_edges_reduced": bench.stats["n_edges_reduced"],
        }
        for name, bench in benchmarks.items()
    }


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def values(magritte):
    return compiled_values(magritte)


def test_every_profile_is_pinned(goldens, values):
    assert sorted(goldens) == sorted(values)
    assert len(goldens) == 34


@pytest.mark.parametrize(
    "field",
    ["benchmark_digest", "stream_digest", "model_misses", "n_edges",
     "n_edges_reduced"],
)
def test_compiled_value_unchanged(goldens, values, field):
    moved = {
        name: (goldens[name][field], values[name][field])
        for name in goldens
        if goldens[name][field] != values[name][field]
    }
    assert moved == {}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compiled_values(magritte_benchmarks()), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
