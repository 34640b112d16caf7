"""NCCL-style ring allreduce exchange (paper Section 2.4.2).

NCCL's allreduce is bandwidth-optimal on a ring: the buffer is split
into ``K`` slices, a reduce-scatter pass sends ``K - 1`` slices per
rank around the ring, and an allgather pass sends ``K - 1`` more, so
each rank transmits ``2 (K-1) / K`` of the buffer.

NCCL's sum operator only supports full-precision operands, so — exactly
as the paper does (Section 4.4, "NCCL Simulation") — low-precision runs
are *simulated*: each rank's gradient is round-tripped through the
codec locally (preserving the convergence semantics a low-precision
NCCL would have), while the ring carries the number of bytes a
quantized payload would occupy.  Full precision takes the same path
with the identity codec, so it sums exactly.
"""

from __future__ import annotations

from .base import GradientExchange
from .topology import ring_successor

__all__ = ["NcclRingAllreduce"]

#: NCCL splits buffers into small slices for pipelining (Section 2.4.2);
#: transfers are padded up to whole slices.
DEFAULT_SLICE_BYTES = 8 * 1024


class NcclRingAllreduce(GradientExchange):
    """Ring allreduce with per-rank byte accounting."""

    name = "nccl"

    def _route(self, src: int, nbytes: int, key: str, dst: int | None) -> None:
        """Reduce-scatter + allgather of ``src``'s buffer to its successor."""
        chunk = -(-nbytes // self.world_size)  # ceil
        # pad each chunk up to whole pipeline slices
        chunk = -(-chunk // DEFAULT_SLICE_BYTES) * DEFAULT_SLICE_BYTES
        steps = 2 * (self.world_size - 1)
        succ = ring_successor(src, self.world_size)
        self._send(src, succ, chunk * steps, key)
