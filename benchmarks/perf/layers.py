"""Module -> layer map, as data, and the replay-profile bucketing.

A *layer* is a module (or package) of ``src/repro`` named the way the
code names it.  Every per-layer metric is ``<layer>.<what>``.  The map
is a list of path prefixes relative to ``src/repro``; the longest
matching prefix wins, so a file belongs to exactly one layer.

The replay profile (``cProfile`` around one ``replay()``) reports ten
buckets.  Nine are layers that do the simulated work; the tenth,
``host.builtins``, is everything outside the repository (C builtins,
the standard library).  Repository code that runs during a replay but
is none of the nine -- plan-IR release algebra, report rows, trace
record accessors -- is called from the replay loop on every action and
is charged to ``artc.replayer``.
"""

import os

#: (path prefix under src/repro, layer).  Longest prefix wins.
LAYERS = (
    ("__init__.py", "repro"),
    ("cli.py", "cli"),
    ("errors.py", "errors"),
    ("artc/", "artc"),
    ("artc/artifact.py", "artc.artifact"),
    ("artc/benchmark.py", "artc.compiler"),
    ("artc/codegen.py", "artc.codegen"),
    ("artc/compiler.py", "artc.compiler"),
    ("artc/init.py", "artc.init"),
    ("artc/planir.py", "artc.planir"),
    ("artc/replayer.py", "artc.replayer"),
    ("artc/report.py", "artc.report"),
    ("artc/shardcore.py", "artc.shardcore"),
    ("artc/shardplan.py", "artc.shardcore"),
    ("bench/", "bench"),
    ("core/", "core"),
    ("faults/", "faults"),
    ("leveldb/", "workloads"),
    ("lint/", "lint"),
    ("obs/", "obs"),
    ("serve/", "serve"),
    ("sim/", "sim"),
    ("storage/", "storage"),
    ("storage/alloc.py", "storage.alloc"),
    ("storage/cache.py", "storage.cache"),
    ("storage/device.py", "storage.device"),
    ("storage/fsprofile.py", "storage.stack"),
    ("storage/hdd.py", "storage.device"),
    ("storage/raid.py", "storage.device"),
    ("storage/scheduler.py", "storage.scheduler"),
    ("storage/ssd.py", "storage.device"),
    ("storage/stack.py", "storage.stack"),
    ("stream/", "stream"),
    ("syscalls/", "syscalls"),
    ("tracing/", "tracing"),
    ("verify/", "verify"),
    ("vfs/", "vfs"),
    ("workloads/", "workloads"),
)

#: The replay-profile buckets, in report order.
REPLAY_LAYERS = (
    "artc.replayer",
    "syscalls",
    "vfs",
    "storage.stack",
    "storage.cache",
    "storage.scheduler",
    "storage.device",
    "storage.alloc",
    "sim",
    "host.builtins",
)

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(relpath):
    """The layer of a file given relative to ``src/repro`` (None if no
    prefix matches)."""
    relpath = relpath.replace(os.sep, "/")
    best = None
    for prefix, layer in LAYERS:
        if relpath.startswith(prefix) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


def replay_bucket(filename):
    """The replay-profile bucket of a ``cProfile`` code filename."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return "host.builtins"
    layer = layer_of(filename[at + len(_MARKER):])
    return layer if layer in REPLAY_LAYERS else "artc.replayer"


def source_files(src_root):
    """Every ``.py`` under ``src_root`` (= ``src/repro``), relative."""
    out = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in filenames:
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                out.append(os.path.relpath(full, src_root).replace(os.sep, "/"))
    return sorted(out)


def check_map(src_root):
    """Self-test of the map against the tree: returns a list of
    problems (empty when every file has a layer, no prefix is listed
    twice, and no prefix is stale)."""
    problems = []
    prefixes = [prefix for prefix, _layer in LAYERS]
    for prefix in sorted(set(p for p in prefixes if prefixes.count(p) > 1)):
        problems.append("prefix listed twice: %s" % prefix)
    files = source_files(src_root)
    for relpath in files:
        if layer_of(relpath) is None:
            problems.append("no layer for %s" % relpath)
    for prefix in prefixes:
        if not any(relpath.startswith(prefix) for relpath in files):
            problems.append("stale prefix (matches no file): %s" % prefix)
    return problems


def bucket_profile(stats):
    """Bucket a ``pstats.Stats`` by :func:`replay_bucket`.

    Returns ``({bucket: self seconds}, {bucket: calls}, engine events)``
    where *engine events* is the exact number of heap pops the DES
    engine made -- one per dispatched simulated event.
    """
    self_s = dict.fromkeys(REPLAY_LAYERS, 0.0)
    calls = dict.fromkeys(REPLAY_LAYERS, 0)
    events = 0
    for (filename, _line, name), row in stats.stats.items():
        _cc, ncalls, tottime, _cum, callers = row
        bucket = replay_bucket(filename)
        self_s[bucket] += tottime
        calls[bucket] += ncalls
        if filename == "~" and "heappop" in name:
            for (caller_file, _l, _n), caller_row in callers.items():
                if replay_bucket(caller_file) == "sim":
                    events += caller_row[0]
    return self_s, calls, events
