"""Unit tests for device timing models (HDD, SSD, RAID-0)."""

import pytest

from repro.storage import BLOCK_SIZE, BlockRequest, HDD, RAID0
from repro.storage.hdd import HDDSpindle
from repro.storage.ssd import SSDSpindle


def service_time(spindle, request):
    return spindle.service_time(request)


class TestHDD(object):
    def test_sequential_faster_than_random(self):
        spindle = HDDSpindle()
        sequential = service_time(spindle, BlockRequest(1, 0, 8, False))
        # Continue from the head position: nearly free.
        more = service_time(spindle, BlockRequest(1, 8, 8, False))
        far = service_time(spindle, BlockRequest(1, 50_000_000, 8, False))
        assert more <= sequential  # no initial seek either way, but check shape
        assert far > more * 10

    def test_seek_grows_with_distance(self):
        spindle = HDDSpindle()
        near = spindle.access_time(1000)
        far = spindle.access_time(50_000_000)
        assert near < far
        assert far <= spindle.max_seek + spindle.avg_rotation

    def test_zero_distance_access_is_free(self):
        spindle = HDDSpindle()
        spindle._head = 123
        assert spindle.access_time(123) == 0.0

    def test_transfer_time_scales_with_size(self):
        spindle = HDDSpindle()
        assert spindle.transfer_time(16) == pytest.approx(
            16 * BLOCK_SIZE / spindle.seq_bandwidth
        )

    def test_head_moves_after_service(self):
        spindle = HDDSpindle()
        service_time(spindle, BlockRequest(1, 100, 4, False))
        assert spindle.position() == 104

    def test_device_has_one_spindle(self):
        assert HDD().nspindles == 1

    def test_split_is_identity(self):
        device = HDD()
        request = BlockRequest(1, 10, 4, False)
        assert device.split(request) == [(0, request)]


class TestSSD(object):
    def test_no_positional_penalty(self):
        spindle = SSDSpindle()
        near = service_time(spindle, BlockRequest(1, 0, 1, False))
        far = service_time(spindle, BlockRequest(1, 50_000_000, 1, False))
        assert near == pytest.approx(far)

    def test_writes_slower_than_reads(self):
        spindle = SSDSpindle()
        read = service_time(spindle, BlockRequest(1, 0, 1, False))
        write = service_time(spindle, BlockRequest(1, 0, 1, True))
        assert write > read

    def test_internal_concurrency(self):
        assert SSDSpindle().concurrency > 1

    def test_much_faster_than_hdd_random(self):
        ssd_time = service_time(SSDSpindle(), BlockRequest(1, 9_999_999, 1, False))
        hdd_time = service_time(HDDSpindle(), BlockRequest(1, 9_999_999, 1, False))
        assert ssd_time < hdd_time / 20


class TestRAID0(object):
    def test_two_spindles(self):
        assert RAID0(2).nspindles == 2

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            RAID0(2, chunk_bytes=1000)

    def test_zero_disks_rejected(self):
        with pytest.raises(ValueError):
            RAID0(0)

    def test_small_request_hits_one_member(self):
        device = RAID0(2, chunk_bytes=512 * 1024)
        request = BlockRequest(1, 0, 8, False)
        pieces = device.split(request)
        assert len(pieces) == 1
        member, child = pieces[0]
        assert member == 0
        assert child.parent is request

    def test_chunk_spanning_request_splits(self):
        chunk_blocks = 512 * 1024 // BLOCK_SIZE  # 128
        device = RAID0(2, chunk_bytes=512 * 1024)
        request = BlockRequest(1, chunk_blocks - 4, 8, False)
        pieces = device.split(request)
        assert len(pieces) == 2
        members = [m for m, _c in pieces]
        assert members == [0, 1]
        assert request.pending_children == 2
        assert sum(c.nblocks for _m, c in pieces) == 8

    def test_alternating_chunks_alternate_members(self):
        chunk_blocks = 512 * 1024 // BLOCK_SIZE
        device = RAID0(2, chunk_bytes=512 * 1024)
        members = [
            device.split(BlockRequest(1, i * chunk_blocks, 1, False))[0][0]
            for i in range(4)
        ]
        assert members == [0, 1, 0, 1]

    def test_member_lba_compaction(self):
        # Chunks map onto member disks contiguously (chunk k of a member
        # lands at member-lba k*chunk).
        chunk_blocks = 512 * 1024 // BLOCK_SIZE
        device = RAID0(2, chunk_bytes=512 * 1024)
        _member, child = device.split(BlockRequest(1, 2 * chunk_blocks, 1, False))[0]
        assert child.lba == chunk_blocks  # second chunk on member 0
