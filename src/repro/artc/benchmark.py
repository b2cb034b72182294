"""The compiled benchmark: actions, dependencies, and metadata.

ARTC proper serializes to generated C compiled into a shared library;
the paper notes that "generating input files that the replay program
parses would work as well".  We serialize to JSON.
"""

import json
from itertools import chain, compress
from operator import attrgetter, ge

from repro.core.deps import DependencyGraph
from repro.core.model import Action, TraceModel
from repro.core.modes import RuleSet
from repro.tracing.atomicio import atomic_write
from repro.tracing.snapshot import Snapshot
from repro.tracing.trace import Trace, TraceRecord


#: The payload's format tag, first key of a plain ``.json`` benchmark
#: and checked again inside every ``.artcb``.  The CLI sniffs the
#: family to tell a benchmark of any version from a JSON-lines trace.
FORMAT_FAMILY = "artc-benchmark-"
FORMAT = FORMAT_FAMILY + "v2"

ACTION_COLUMNS = TraceRecord.__slots__ + ("ann", "predelay")
EDGE_COLUMNS = ("src", "dst", "kind")


def columns(table, names, n=None):
    """The ``names`` columns of a payload table, each checked to be a
    list of ``n`` rows (default: as many as the first); ``ValueError``
    names the column that is missing or ragged."""
    out = [table.get(name) for name in names]
    for name, column in zip(names, out):
        if not isinstance(column, list):
            raise ValueError("column %r is missing or not a list" % name)
        if n is None:
            n = len(column)
        if len(column) != n:
            raise ValueError(
                "column %r has %d rows, expected %d" % (name, len(column), n)
            )
    return out


def _check_indexes(name, column, bound):
    """``ValueError`` naming the column unless every entry of it
    indexes a list of ``bound`` rows."""
    if column and not 0 <= min(column) <= max(column) < bound:
        raise ValueError(
            "column %r points outside the %d rows it indexes" % (name, bound)
        )


def _check_types(name, column, allowed, what):
    """``ValueError`` naming the column unless every row of it is one
    of the ``allowed`` types (exactly: a bool is not an int here)."""
    if not set(map(type, column)) <= allowed:
        raise ValueError("column %r holds a row that is not %s" % (name, what))


def _check_forward(name, src, dst):
    """``ValueError`` naming the column unless every ``src`` precedes
    its ``dst``, as the compiler's edges do: a loaded graph is acyclic
    by construction, so a replay of it cannot park on itself."""
    if any(map(ge, src, dst)):
        raise ValueError("column %r has an edge that does not point forward" % name)


class CompiledBenchmark(object):
    """Everything the replayer needs, decoupled from the compiler."""

    #: Hex SHA-256 of the ``.artcb`` payload this benchmark was loaded
    #: from, or None for benchmarks that never passed through an
    #: artifact.  The JIT core keys its process-wide compiled-program
    #: cache on this, so reloading the same artifact skips codegen.
    content_key = None

    def __init__(self, actions, graph, ruleset, snapshot, platform, label="", stats=None):
        self.actions = actions
        self.graph = graph
        self.ruleset = ruleset
        self.snapshot = snapshot
        self.platform = platform  # source platform of the trace
        self.label = label
        self.stats = dict(stats or {})
        #: What replays derive from this benchmark (execution plans by
        #: ``PlanKey``, per-thread feeds, successor tables, JIT programs):
        #: each built by its first user, once per process, never stored.
        #: Valid while nobody edits ``actions`` or the graph in place.
        self.derived = {}

    def __len__(self):
        return len(self.actions)

    def by_thread(self):
        """``tid -> that thread's actions``, threads in first-appearance
        order.  Built once (``derived``): read, do not edit."""
        out = self.derived.get("by_thread")
        if out is None:
            out = self.derived["by_thread"] = {}
            for action in self.actions:
                out.setdefault(action.record.tid, []).append(action)
        return out

    @property
    def threads(self):
        return list(self.by_thread())

    def touched_actions(self):
        """The actions with their resource touches: :attr:`actions`
        when they carry the compiler's, else -- a benchmark loaded from
        an artifact stores none -- the trace model re-run over
        :meth:`to_trace`, the interpretation the compiler ran.  Built
        once (``derived``): read, do not edit."""
        out = self.derived.get("touched_actions")
        if out is None:
            if any(action.touches for action in self.actions):
                out = self.actions
            else:
                out = TraceModel(self.to_trace(), self.snapshot).actions
            self.derived["touched_actions"] = out
        return out

    # -- serialization -------------------------------------------------

    def to_payload(self):
        """The JSON-ready columnar form: what :meth:`dumps` serializes
        and the ``.artcb`` container wraps.  One list per record field
        (names interned through ``names``), ``ann`` and ``predelay``
        beside them, and the edges as three parallel lists in insertion
        order: ``graph.preds`` is rebuilt from them, so no copy is kept."""
        records = [action.record for action in self.actions]
        table = {
            field: list(map(attrgetter(field), records))
            for field in TraceRecord.__slots__
        }
        names = {}
        for name in table["name"]:
            names.setdefault(name, len(names))
        table["name"] = [names[name] for name in table["name"]]
        table["ann"] = [action.ann for action in self.actions]
        table["predelay"] = [action.predelay for action in self.actions]
        edges = self.graph.edge_kinds
        payload = {
            "format": FORMAT,
            "label": self.label,
            "platform": self.platform,
            "ruleset": {
                flag: getattr(self.ruleset, flag) for flag in RuleSet.__slots__
            },
            "stats": self.stats,
            "snapshot": self.snapshot.to_dict() if self.snapshot else None,
            "names": list(names),
            "actions": table,
            "edges": {
                "src": [src for src, _dst in edges],
                "dst": [dst for _src, dst in edges],
                "kind": list(edges.values()),
            },
        }
        if self.graph.reduced_preds is not None:
            payload["reduced_preds"] = self.graph.reduced_preds
        return payload

    def dumps(self):
        return json.dumps(self.to_payload(), separators=(",", ":"))

    @classmethod
    def loads(cls, text):
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a benchmark from :meth:`to_payload` output.  The
        payload may come from outside the process, so every column is
        length- and range-checked: a malformed one raises ``ValueError``
        naming it."""
        if payload.get("format") != FORMAT:
            raise ValueError(
                "not an ARTC benchmark this build reads (format %r, expected"
                " %r); re-compile it from its source trace"
                % (payload.get("format"), FORMAT)
            )
        ruleset = RuleSet(**payload["ruleset"])
        idx, tid, name, args, ret, err, t_enter, t_return, ann, predelay = columns(
            payload["actions"], ACTION_COLUMNS
        )
        n = len(idx)
        if idx != list(range(n)):
            raise ValueError("column 'idx' does not number the rows 0..%d" % (n - 1))
        _check_types("tid", tid, {int, str}, "an integer or a string")
        _check_types("args", args, {dict}, "an object")
        _check_types("ann", ann, {dict}, "an object")
        names = payload["names"]
        _check_indexes("name", name, len(names))
        records = map(
            TraceRecord, idx, tid, [names[i] for i in name], args, ret, err,
            t_enter, t_return,
        )
        actions = [
            Action(index, record, [], ann[index], predelay[index])
            for index, record in enumerate(records)
        ]
        graph = DependencyGraph(n, program_seq=ruleset.program_seq)
        src, dst, kind = columns(payload["edges"], EDGE_COLUMNS)
        _check_indexes("edges.src", src, n)
        _check_indexes("edges.dst", dst, n)
        _check_forward("edges", src, dst)
        for edge in zip(src, dst, kind):
            graph.add_edge(*edge)
        reduced = payload.get("reduced_preds")
        if reduced is not None:
            columns(payload, ("reduced_preds",), n)
            flat = list(chain.from_iterable(reduced))
            _check_indexes("reduced_preds", flat, n)
            waits = list(compress(range(n), reduced))  # the non-empty rows
            _check_forward(
                "reduced_preds", map(max, map(reduced.__getitem__, waits)), waits
            )
            graph.reduced_preds = reduced
        snapshot = None
        if payload.get("snapshot"):
            snapshot = Snapshot.from_dict(payload["snapshot"])
        return cls(
            actions,
            graph,
            ruleset,
            snapshot,
            payload.get("platform", "linux"),
            payload.get("label", ""),
            payload.get("stats"),
        )

    def save(self, path):
        """Write to ``path``; ``.artcb`` selects the versioned binary
        artifact format (:mod:`repro.artc.artifact`), anything else the
        plain benchmark JSON."""
        if path.endswith(".artcb"):
            from repro.artc import artifact

            artifact.save(self, path)
            return
        atomic_write(path, self.dumps())

    @classmethod
    def load(cls, path):
        if path.endswith(".artcb"):
            from repro.artc import artifact

            return artifact.load(path)
        with open(path) as handle:
            return cls.loads(handle.read())

    def to_trace(self):
        """Recover the underlying trace (e.g. for re-compilation)."""
        return Trace(
            [action.record for action in self.actions],
            platform=self.platform,
            label=self.label,
        )

    def __repr__(self):
        return "<CompiledBenchmark %s: %d actions, %d edges>" % (
            self.label or "?",
            len(self.actions),
            self.graph.n_edges,
        )
