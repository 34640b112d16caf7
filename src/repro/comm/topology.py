"""Topology helpers: contiguous range partitioning and the ring order.

The MPI reduce-and-broadcast pattern assigns each rank a contiguous
range of the flattened model (paper Section 2.4.1); NCCL builds a
communication ring (Section 2.4.2), here the identity order — the
performance simulator applies topology-aware link speeds on top.
"""

from __future__ import annotations

__all__ = ["partition_ranges", "ring_successor"]


def partition_ranges(n: int, world_size: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``world_size`` contiguous half-open ranges.

    Sizes differ by at most one element; earlier ranks receive the
    larger ranges, matching MPI block distribution.  Ranges may be
    empty when ``n < world_size``.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base, extra = divmod(n, world_size)
    ranges = []
    start = 0
    for rank in range(world_size):
        size = base + (1 if rank < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def ring_successor(rank: int, world_size: int) -> int:
    """The next rank around the ring."""
    return (rank + 1) % world_size
