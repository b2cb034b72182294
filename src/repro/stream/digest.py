"""Stream-stable compile digests.

Two digests prove streamed and batch compiles equal:

- :func:`benchmark_digest`: SHA-256 of the canonical benchmark payload
  with the volatile ``stats`` block (wall-clock compile time) removed.
  Needs the whole benchmark in memory, so it is the *batch* identity
  check.
- :class:`ActionChain`: a running SHA-256 over a header plus one
  positional JSON row per compiled action.  O(1) memory, so a
  windowed streaming compile -- which never holds the whole benchmark
  -- can produce it; :func:`stream_digest_of` computes the same chain
  from a finished benchmark for comparison.

Both sides of every identity test in ``tests/stream`` compare these
hex digests, and ``artc compile --stream`` / ``artc replay --follow``
print them.
"""

import hashlib
import json

from repro.core.modes import RuleSet


#: Canonical JSON: sorted keys, no whitespace, ASCII-only output.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canon(obj):
    return _encode(obj).encode("ascii")


def _ruleset_dict(ruleset):
    return {flag: getattr(ruleset, flag) for flag in RuleSet.__slots__}


def benchmark_digest(benchmark):
    """Canonical digest of a compiled benchmark, excluding the
    volatile ``stats`` block (two identical compiles differ only in
    ``compile_seconds``)."""
    payload = benchmark.to_payload()
    payload.pop("stats", None)
    return hashlib.sha256(_canon(payload)).hexdigest()


class ActionChain(object):
    """Running digest over (header, action*) in compile order.

    An action is one positional row ``[idx, tid, name, args, ret, err,
    t_enter, t_return, ann, predelay, sorted(deps), reduced]`` and the
    chain hashes the canonical JSON of each row followed by a comma:
    ``row,row,...,``.  Rows are encoded a batch at a time, and because
    the bytes of a batch are the concatenation of its rows' bytes, the
    digest at an action boundary does not depend on where the batches
    were cut -- :meth:`hexdigest` may be called (by a checkpoint, a
    resume check) at any boundary.

    A buffered row holds *references* to the record's ``args``/``ret``
    and to ``ann`` and ``reduced`` until its batch is encoded.  That is
    sound because each is built fresh for its action (by the parser,
    ``FsState.apply`` and the reducer) and nothing downstream writes to
    them; ``tests/property/test_frontend_property.py`` holds
    :class:`~repro.stream.compile.StreamCompiler` to it.
    """

    #: Rows encoded per batch: past a few dozen the encoder call is
    #: amortised and a longer buffer only holds more rows alive.
    _BATCH = 64

    def __init__(self):
        self._hash = hashlib.sha256()
        self._rows = []
        self.count = 0

    def header(self, platform, label, ruleset, snapshot):
        self._hash.update(
            _canon(
                {
                    "platform": platform,
                    "label": label,
                    "ruleset": _ruleset_dict(ruleset),
                    "snapshot": (
                        json.loads(snapshot.dumps()) if snapshot else None
                    ),
                }
            )
        )

    def update(self, record, ann, predelay, deps, reduced):
        """Mix in one compiled action.  ``deps`` is the full
        predecessor set (any order; canonicalized here), ``reduced``
        the transitively-reduced wait list (order-significant) or None
        when reduction was skipped."""
        self._rows.append(
            [
                record.idx,
                record.tid,
                record.name,
                record.args,
                record.ret,
                record.err,
                record.t_enter,
                record.t_return,
                ann,
                predelay,
                sorted(deps),
                reduced,
            ]
        )
        self.count += 1
        if len(self._rows) >= self._BATCH:
            self._flush()

    def _flush(self):
        if self._rows:
            # "[row,row]" -> "row,row,": every row ends in its comma.
            self._hash.update(
                (_encode(self._rows)[1:-1] + ",").encode("ascii")
            )
            self._rows.clear()

    def hexdigest(self):
        self._flush()
        return self._hash.copy().hexdigest()


def stream_digest_of(benchmark):
    """The :class:`ActionChain` digest of a finished benchmark: what a
    streamed compile of the same trace reports, computable from the
    batch side for identity checks."""
    chain = ActionChain()
    chain.header(
        benchmark.platform, benchmark.label, benchmark.ruleset, benchmark.snapshot
    )
    reduced = benchmark.graph.reduced_preds
    for action in benchmark.actions:
        chain.update(
            action.record,
            action.ann,
            action.predelay,
            benchmark.graph.preds[action.idx],
            reduced[action.idx] if reduced is not None else None,
        )
    return chain.hexdigest()
