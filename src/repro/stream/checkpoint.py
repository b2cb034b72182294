"""Crash-resumable ingestion checkpoints.

A checkpoint records how far ingestion got -- the byte position in the
trace source, counts, and two verification hashes -- *not* the
compiler's state.  The trace file itself is the write-ahead log: on
resume, the consumer re-reads the durable prefix and re-derives the
compiler state deterministically, then validates the re-derivation
against the checkpoint's chained action digest.  That keeps the
checkpoint tiny, format-stable, and impossible to desynchronize from
the data.

Fields (``artc-stream-checkpoint-v3``; v1 and v2 differ only in how
``actions_sha256`` is defined, so such a file is refused by name rather
than failing its chain check):

- ``position``: the tailer's source cursor (segment index + byte
  offset within it; segment is 0 for single-file sources);
- ``records`` / ``actions``: records consumed, actions compiled;
- ``prefix_sha256``: SHA-256 of every consumed byte, in order -- a
  resume first re-hashes the prefix and refuses to continue over a
  rewritten file;
- ``actions_sha256``: the :class:`~repro.stream.digest.ActionChain`
  state at this boundary -- after re-deriving, the chains must match
  or the resume aborts (the streaming analogue of translation
  validation);
- ``resyncs`` / ``warnings``: tolerant-parse bookkeeping so counts
  survive a crash.

Writes are atomic and forced out
(:func:`repro.tracing.atomicio.atomic_write`).
A reader therefore sees either the old checkpoint or the new one,
never a torn file.
"""

import json
import os

from repro.errors import TraceError
from repro.tracing.atomicio import atomic_write

CHECKPOINT_FORMAT = "artc-stream-checkpoint-v3"
#: Written while the action chain hashed keyed objects (v1) or
#: positional JSON rows (v2); their ``actions_sha256`` cannot match any
#: chain this version derives.
_SUPERSEDED_FORMATS = ("artc-stream-checkpoint-v1", "artc-stream-checkpoint-v2")


def save_checkpoint(path, data):
    """Atomically write ``data`` (stamped with the format tag)."""
    data = dict(data, format=CHECKPOINT_FORMAT)
    atomic_write(path, json.dumps(data, sort_keys=True) + "\n", fsync=True)
    return data


def load_checkpoint(path):
    """The checkpoint dict at ``path``, or None when absent.  A
    present-but-unreadable checkpoint raises :class:`TraceError` --
    silently restarting from zero would hide corruption."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            data = json.load(handle)
    except ValueError:
        raise TraceError("unreadable stream checkpoint %s" % path) from None
    found = data.get("format") if isinstance(data, dict) else None
    if found in _SUPERSEDED_FORMATS:
        raise TraceError(
            "stream checkpoint %s is %s and this version reads %s (the"
            " action digest is defined differently): delete it and"
            " re-ingest from the trace (the trace is the write-ahead log)"
            % (path, found, CHECKPOINT_FORMAT)
        )
    if found != CHECKPOINT_FORMAT:
        raise TraceError(
            "not a stream checkpoint (bad format): %s" % path
        )
    return data


def checkpoint_data(tailer, compiler):
    """Assemble the checkpoint payload for one (tailer, compiler)
    boundary.  Call only between records (the chain digest is
    per-action-boundary by construction)."""
    return {
        "position": tailer.position(),
        "records": tailer.records_read,
        "actions": compiler.fed,
        "prefix_sha256": tailer.prefix_hexdigest(),
        "actions_sha256": compiler.chain.hexdigest(),
        "resyncs": tailer.resyncs,
        "warnings": tailer.warnings.to_dict(),
    }


class Checkpointer(object):
    """Periodic checkpoint writer: one atomic write every ``every``
    compiled actions, plus explicit finals."""

    def __init__(self, path, every=256):
        self.path = path
        self.every = max(1, int(every))
        self.written = 0
        self._last_actions = 0

    def maybe(self, tailer, compiler):
        if compiler.fed - self._last_actions >= self.every:
            self.write(tailer, compiler)

    def write(self, tailer, compiler):
        save_checkpoint(self.path, checkpoint_data(tailer, compiler))
        self.written += 1
        self._last_actions = compiler.fed
