"""Magritte ``iphoto_import400``: metadata churn through Darwin emulation."""

from repro.workloads.magritte.app import MagritteApp
from repro.workloads.magritte.profiles import PROFILES, Profile

NAME = "meta_churn"
WHY = (
    "iPhoto import (7.3k actions, 10 threads) mac-hdd to hdd-ext4: xattr, "
    "rename and fsync churn, so vfs and the page cache dominate replay; "
    "the one workload the shard plan splits"
)
SOURCE = "mac-hdd"
TARGET = "hdd-ext4"
CORES = ("auto", "events", "jit")
SHARES = {
    False: {"batch": 0.35, "cores": 0.30, "stream": 0.35},
    True: {"batch": 0.15, "cores": 0.22, "stream": 0.12},
}
MODES = True
SHARD = True
SERVE = None

EVENTS_SCALE = 1


def magritte_app(seed, events_scale, quick):
    """``iphoto_import400`` replanned for ``seed``: the Magritte planner
    seeds itself from the profile name, so the seed goes in the name."""
    base = PROFILES["iphoto_import400"]
    fields = {slot: getattr(base, slot) for slot in Profile.__slots__}
    fields["name"] = "iphoto_import400_s%d" % seed
    fields["events"] = base.events * events_scale // (8 if quick else 1)
    fields["mix"] = dict(base.mix)
    return MagritteApp(Profile(**fields))


def build_app(seed, quick=False):
    return magritte_app(seed, EVENTS_SCALE, quick)
