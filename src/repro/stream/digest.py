"""Stream-stable compile digests.

Two digests prove streamed and batch compiles equal:

- :func:`benchmark_digest`: SHA-256 of the canonical benchmark payload
  with the volatile ``stats`` block (wall-clock compile time) removed.
  Needs the whole benchmark in memory, so it is the *batch* identity
  check.
- :class:`ActionChain`: a running SHA-256 over a header plus one typed
  block per 64 compiled actions.  O(1) memory, so a windowed streaming
  compile -- which never holds the whole benchmark -- can produce it;
  :func:`stream_digest_of` computes the same chain from a finished
  benchmark for comparison.

Both sides of every identity test in ``tests/stream`` compare these
hex digests, and ``artc compile --stream`` / ``artc replay --follow``
print them.
"""

import hashlib
import json
import struct

from repro.core.modes import RuleSet
from repro.syscalls.registry import REGISTRY


#: Canonical JSON: sorted keys, no whitespace, ASCII-only output.  The
#: values are parsed or compiled data, never cyclic, so the encoder
#: skips the circular-reference bookkeeping it would do per container.
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode

#: Actions per block, counted from the chain's first action.  Part of
#: the chain's definition, not a setting: another size is another chain.
_BLOCK = 64

#: Call name -> its registry parameters, in registry order.
_PARAMS = {name: spec.args for name, spec in REGISTRY.items()}


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


def _block(rows):
    """The bytes of one block of rows (see :class:`ActionChain`)."""
    (idx, tid, name, args, ret, err, t_enter, t_return, ann, predelay, deps,
     reduced) = zip(*rows)
    shaped, other = [], []
    for call, given in zip(name, args):
        order = _PARAMS.get(call)
        if type(given) is dict and order is not None:
            # The parser writes the registry order: one compare settles
            # nearly every action.
            if tuple(given) == order:
                shaped.append(tuple(given.values()))
                continue
            if given.keys() == set(order):
                shaped.append([given[param] for param in order])
                continue
        shaped.append(None)
        other.append(given)
    start = idx[0]
    if type(start) is int and idx == tuple(range(start, start + len(idx))):
        idx = start
    doc = {
        "idx": idx, "tid": tid, "name": name, "args": shaped,
        "args_other": other, "ret": ret, "err": err, "ann": ann,
        "deps": deps, "reduced": reduced,
    }
    times = t_enter + t_return + predelay
    try:
        packed = struct.pack("<%dd" % len(times), *times)
    except struct.error:  # a time that is not a number: hashed as JSON
        doc["times"] = times
        packed = b""
    return _canon(doc) + packed


class ActionChain(object):
    """Running digest over (header, action*) in compile order.

    Actions are hashed in blocks of :data:`_BLOCK`, cut at every 64th
    action from the first, and each block is its canonical-JSON
    document followed by its times:

    - the document, ``{"idx", "tid", "name", "args", "args_other",
      "ret", "err", "ann", "deps", "reduced"}``, one list entry per
      action (``deps`` sorted), except ``idx``, which is the block's
      first index when the block's indices run consecutively from it
      and their list otherwise.  An ``args`` dict whose key set is
      exactly its call's registry parameters is its values in registry
      order; any other ``args`` is ``null`` there and appended, as it
      is, to ``args_other``;
    - the times, every ``t_enter``, then every ``t_return``, then every
      ``predelay`` of the block, as little-endian IEEE-754 binary64.
      A block holding a time that is not a number carries all three
      lists under the document's ``times`` key instead.

    Keys are sorted wherever a dict is encoded, so key order never
    matters.  The digest is SHA-256 of ``header block block ...``;
    :meth:`hexdigest` hashes a partly filled block into a copy, so its
    value at an action boundary does not depend on when it was asked.

    A buffered row holds *references* to the record's ``args``/``ret``
    and to ``ann`` and ``reduced`` until its block is hashed.  That is
    sound because each is built fresh for its action (by the parser,
    ``FsState.apply`` and the reducer) and nothing downstream writes to
    them; ``tests/property/test_frontend_property.py`` holds
    :class:`~repro.stream.compile.StreamCompiler` to it.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self._rows = []

    def header(self, platform, label, ruleset, snapshot):
        self._hash.update(
            _canon(
                {
                    "platform": platform,
                    "label": label,
                    "ruleset": _ruleset_dict(ruleset),
                    "snapshot": snapshot.to_dict() if snapshot else None,
                }
            )
        )

    def update(self, record, ann, predelay, deps, reduced):
        """Mix in one compiled action.  ``deps`` is the full
        predecessor set (any order; canonicalized here), ``reduced``
        the transitively-reduced wait list (order-significant) or None
        when reduction was skipped."""
        rows = self._rows
        rows.append((
            record.idx, record.tid, record.name, record.args, record.ret,
            record.err, record.t_enter, record.t_return, ann, predelay,
            sorted(deps), reduced,
        ))
        if len(rows) == _BLOCK:
            self._hash.update(_block(rows))
            rows.clear()

    def hexdigest(self):
        partial = self._hash.copy()
        if self._rows:
            partial.update(_block(self._rows))
        return partial.hexdigest()


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
