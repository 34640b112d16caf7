"""Tests for range partitioning and ring topology."""

import pytest

from repro.comm import NcclRingAllreduce, partition_ranges, ring_successor


class TestPartitionRanges:
    def test_even_split(self):
        assert partition_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_early_ranks(self):
        ranges = partition_ranges(10, 4)
        sizes = [hi - lo for lo, hi in ranges]
        assert sizes == [3, 3, 2, 2]

    def test_ranges_cover_everything_contiguously(self):
        for n in (0, 1, 5, 17, 100):
            for k in (1, 2, 3, 7, 16):
                ranges = partition_ranges(n, k)
                assert len(ranges) == k
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n
                for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
                    assert a_hi == b_lo

    def test_fewer_elements_than_ranks(self):
        ranges = partition_ranges(2, 4)
        sizes = [hi - lo for lo, hi in ranges]
        assert sizes == [1, 1, 0, 0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            partition_ranges(4, 0)
        with pytest.raises(ValueError):
            partition_ranges(-1, 2)


class TestRing:
    def test_ring_order(self):
        # the identity order: one cycle through every rank
        order = [0]
        while len(order) < 5:
            order.append(ring_successor(order[-1], 4))
        assert order == [0, 1, 2, 3, 0]

    def test_successor_wraps(self):
        assert ring_successor(3, 4) == 0
        assert ring_successor(0, 4) == 1

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            NcclRingAllreduce(0)
