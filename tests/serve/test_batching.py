"""Unit tests for the single-flight request coalescer."""

import asyncio

from repro.serve.batching import Coalescer


def run(coro):
    return asyncio.run(coro)


def test_first_join_leads_later_joins_follow():
    async def main():
        coalescer = Coalescer()
        leader_a, future_a = coalescer.join("k")
        leader_b, future_b = coalescer.join("k")
        leader_c, future_c = coalescer.join("k")
        assert leader_a is True
        assert leader_b is False and leader_c is False
        assert future_b is future_a and future_c is future_a
        assert coalescer.leaders == 1
        assert coalescer.coalesced == 2
        assert coalescer.inflight_keys == 1
        followers = coalescer.finish("k", {"ok": True})
        assert followers == 2

    run(main())


def test_finish_fans_out_one_envelope():
    async def main():
        coalescer = Coalescer()
        _leader, future = coalescer.join("k")
        _f, follower_future = coalescer.join("k")
        envelope = {"ok": False, "status": 500}
        coalescer.finish("k", envelope)
        # Failures fan out identically -- same dict, not an exception.
        assert (await future) is envelope
        assert (await follower_future) is envelope

    run(main())


def test_key_clears_after_finish():
    async def main():
        coalescer = Coalescer()
        coalescer.join("k")
        coalescer.finish("k", {})
        leader_again, _future = coalescer.join("k")
        assert leader_again is True  # next request executes (served warm)
        assert coalescer.inflight_keys == 1

    run(main())


def test_distinct_keys_do_not_share():
    async def main():
        coalescer = Coalescer()
        _la, future_a = coalescer.join("a")
        leader_b, future_b = coalescer.join("b")
        assert leader_b is True
        assert future_a is not future_b

    run(main())


def test_finish_unknown_key_is_harmless():
    async def main():
        coalescer = Coalescer()
        assert coalescer.finish("ghost", {"ok": True}) == 0

    run(main())
