"""In-flight request coalescing.

The daemon's hottest anti-pattern is a thundering herd: K clients ask
for the same (app, platform, seed, ruleset) cell at once, and a naive
server compiles it K times.  The disk-level
:class:`~repro.bench.artifacts.ArtifactCache` cannot help *during* the
first compile -- it only dedupes across time, not across in-flight
requests.  The :class:`Coalescer` closes that window: requests sharing
a :func:`~repro.serve.protocol.request_key` while one is executing get
exactly one execution, and every waiter receives the same reply
envelope when it lands (fanned out, per-requester, by the server).

Results are plain envelope dicts, never exceptions: a failed leader
fails every follower identically, which is the correct semantics --
they asked for the same work.
"""

import asyncio


class _Entry(object):
    __slots__ = ("future", "followers")

    def __init__(self, future):
        self.future = future
        self.followers = 0


class Coalescer(object):
    """Keyed single-flight for asyncio.

    ``join(key)`` returns ``(leader, future)``: the first caller for a
    key becomes the leader (and must eventually ``finish`` it); later
    callers are followers sharing the same future.  Keys clear on
    ``finish``, so a *subsequent* request for the same cell executes
    again (and is then served warm from the artifact cache instead).
    """

    def __init__(self):
        self._inflight = {}
        self.leaders = 0
        self.coalesced = 0

    def join(self, key):
        entry = self._inflight.get(key)
        if entry is not None:
            entry.followers += 1
            self.coalesced += 1
            return False, entry.future
        future = asyncio.get_event_loop().create_future()
        self._inflight[key] = _Entry(future)
        self.leaders += 1
        return True, future

    def finish(self, key, envelope):
        """Resolve a key with its reply envelope, waking every
        follower.  The leader calls this exactly once, success or
        failure."""
        entry = self._inflight.pop(key, None)
        if entry is not None and not entry.future.done():
            entry.future.set_result(envelope)
        return entry.followers if entry is not None else 0

    @property
    def inflight_keys(self):
        return len(self._inflight)
