"""The trace model: records -> actions, annotations and resource touches.

An action's touches are a list of ``(key, role)`` pairs
(:mod:`repro.core.resources`), its thread's first.  A compiled
benchmark keeps its actions, never their touches: the compiler hands
each action's touches to the rule engine
(:class:`repro.core.deps.DependencyBuilder`) and drops them.  Analyses
that need touches re-run :class:`TraceModel`, through
:meth:`repro.artc.benchmark.CompiledBenchmark.touched_actions`."""

from repro.core.fsstate import FsState


class Action(object):
    """One replayable action: a trace record plus everything the
    compiler inferred about it.  Only a :class:`TraceModel` sets
    ``touches``: on a benchmark's actions the slot stays empty, so an
    analysis handed those instead of ``touched_actions()`` fails loudly
    rather than seeing no resources."""

    __slots__ = ("idx", "record", "ann", "predelay", "touches")

    def __init__(self, idx, record, ann, predelay):
        self.idx = idx
        self.record = record
        self.ann = ann
        self.predelay = predelay

    def __repr__(self):
        return "<Action #%d %s>" % (self.idx, self.record.name)


class ModelBuilder(object):
    """Incremental record -> action interpretation.

    The single implementation behind both compilation paths: the batch
    compiler (and :class:`TraceModel`) feeds a whole trace through one
    builder with the precomputed :func:`time_origin`; the streaming
    compiler feeds records as a live tail delivers them, defaulting the
    origin to the first record's entry time.  The two origins agree
    only when the first record is also the earliest entry.  A tracer
    appends each record when its call *returns*
    (:meth:`repro.tracing.tracer.TracedOS.call`), so a long call that
    entered first is recorded after shorter ones that entered later,
    and the streamed predelays of those threads' first actions differ
    from the batch ones -- a known deviation (ROADMAP), pinned by a
    strict xfail in ``tests/stream/test_stream_compile.py``.  The
    origin only anchors each thread's first predelay.

    ``predelay`` (section 4.3.3) is the think-time gap between the
    previous call's return and this call's entry within one thread; the
    replayer optionally reproduces it (natural-speed mode).

    ``share=True`` gives actions with equal annotations one ``ann``
    dict, the first of them (read it, never write it): a compile that
    keeps the whole benchmark holds one dict per distinct annotation.
    The table lives as long as the builder, so a windowed stream
    compile, which keeps no action, shares nothing.
    """

    def __init__(self, snapshot=None, origin=None, share=False):
        self.state = FsState(snapshot)
        self.origin = origin
        self._last_return = {}
        self._shared = {} if share else None

    def feed(self, record):
        """Interpret one record against the evolving FS state; returns
        ``(action, touches)``, the :class:`Action` without its touches
        and the touches beside it."""
        if self.origin is None:
            self.origin = record.t_enter
        touches, ann = self.state.apply(record)
        shared = self._shared
        if shared is not None:
            # Keys are strings and values ints (generations, action
            # indices), so equal items mean equal JSON; a list value
            # (aio, pipe) makes the key unhashable and the dict unshared.
            try:
                ann = shared.setdefault(tuple(ann.items()), ann)
            except TypeError:
                pass
        tid = record.tid
        last_return = self._last_return
        predelay = record.t_enter - last_return.get(tid, self.origin)
        if not predelay > 0.0:
            predelay = 0.0  # max(0.0, gap), NaN and -0.0 included
        last_return[tid] = record.t_return
        return Action(record.idx, record, ann, predelay), touches

    @property
    def model_misses(self):
        return self.state.model_misses


def time_origin(trace):
    """The earliest entry time of ``trace``: the origin a batch compile
    anchors each thread's first predelay on."""
    return min((r.t_enter for r in trace.records), default=0.0)


class TraceModel(object):
    """Symbolic interpretation of a whole trace: a batch wrapper over
    :class:`ModelBuilder` with the exact global time origin, whose
    actions carry their touches (``action.touches``, ``(key, role)``
    pairs)."""

    def __init__(self, trace, snapshot=None):
        self.trace = trace
        builder = ModelBuilder(snapshot, origin=time_origin(trace))
        self.actions = []
        for record in trace.records:
            action, touches = builder.feed(record)
            action.touches = touches
            self.actions.append(action)
        self.state = builder.state

    @property
    def model_misses(self):
        return self.state.model_misses

    def by_thread(self):
        out = {}
        for action in self.actions:
            out.setdefault(action.record.tid, []).append(action)
        return out

    def __len__(self):
        return len(self.actions)
