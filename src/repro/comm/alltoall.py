"""Literal Algorithm 1 exchange: broadcast every message to every peer.

This is the reference semantics of the paper's Algorithm 1 (each rank
broadcasts its encoded gradient M^i to all peers; every peer decodes
all K messages and sums).  It moves ``K (K-1)`` messages per tensor, so
it is never the fastest pattern — the optimized MPI and NCCL exchanges
are verified against it in the integration tests.
"""

from __future__ import annotations

from .base import GradientExchange

__all__ = ["AllToAllBroadcast"]


class AllToAllBroadcast(GradientExchange):
    """Every rank broadcasts its quantized gradient to every peer."""

    name = "alltoall"

    def _route(self, src: int, nbytes: int, key: str, dst: int | None) -> None:
        for peer in range(self.world_size):
            self._send(src, peer, nbytes, key)
