"""``iphoto_import400`` with four times the events: the compile side."""

from workloads.meta_churn import magritte_app

NAME = "big_trace"
WHY = (
    "the iPhoto profile at 4x events (29k actions, 2 MB of strace text): "
    "parse, model, pack and unpack dominate and replay is a minority; the "
    "same file is streamed at 14x the window cap"
)
SOURCE = "mac-hdd"
TARGET = "hdd-ext4"
# One JIT codegen of this trace costs more than the run measures.
CORES = ("auto",)
# The minimum pass counts, not these shares, decide this workload's
# time: one round of it is longer than the run measures.
SHARES = {
    False: {"batch": 0.40, "cores": 0.12, "stream": 0.48},
    True: {"batch": 0.30, "cores": 0.08, "stream": 0.22},
}
MODES = False
SHARD = False
SERVE = None

EVENTS_SCALE = 4


def build_app(seed, quick=False):
    return magritte_app(seed, EVENTS_SCALE, quick)
