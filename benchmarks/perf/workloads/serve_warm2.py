"""``artc serve`` under a closed loop of two connections."""

from repro.serve.jobs import build_app as build_cell_app

NAME = "serve_warm2"
WHY = (
    "artc serve subprocess (2 workers), randreads cells of 604 actions: 40 "
    "cold requests, then 2 closed-loop connections over 8 warm cells; "
    "request, dispatch and worker overhead dominate, replay is minor"
)
SOURCE = "mac-ssd"
TARGET = "hdd-ext4"
CORES = ("auto", "events", "jit")
SHARES = {
    False: {"batch": 0.10, "cores": 0.08, "stream": 0.07, "serve": 0.75},
    True: {"batch": 0.10, "cores": 0.08, "stream": 0.07, "serve": 0.55},
}
MODES = False
SHARD = False

WORKERS = 2
CONNECTIONS = 2
WARM_CELLS = 8
COLD_REQUESTS = 40


def cell(seed, index, quick=False):
    """Serve cell ``index`` of the run seeded ``seed``: cells 0..7 are
    the warm set, 100.. the never-seen cold ones.  Cell 0 is also the
    trace the batch and stream phases read."""
    return {
        "app": "randreads",
        "app_args": {
            "nthreads": 2,
            "reads_per_thread": 37 if quick else 300,
            "file_bytes": 64 << 20,
            "seed": 11 + seed,
        },
        "source": SOURCE,
        "platform": TARGET,
        "seed": seed * 1000 + index,
    }


SERVE = cell


def build_app(seed, quick=False):
    return build_cell_app(cell(seed, 0, quick))
