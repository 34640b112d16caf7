"""Communication substrate: byte-accurate collective gradient exchanges."""

from __future__ import annotations

from .alltoall import AllToAllBroadcast
from .base import ExchangeResult, GradientExchange
from .mpi import MpiReduceBroadcast
from .nccl import NcclRingAllreduce
from .topology import partition_ranges, ring_successor

__all__ = [
    "AllToAllBroadcast",
    "ExchangeResult",
    "GradientExchange",
    "MpiReduceBroadcast",
    "NcclRingAllreduce",
    "partition_ranges",
    "ring_successor",
    "make_exchange",
    "EXCHANGE_NAMES",
]

EXCHANGE_NAMES = ("mpi", "nccl", "alltoall")


def make_exchange(name: str, world_size: int, **kwargs) -> GradientExchange:
    """Construct a collective by its paper-style name ("mpi" / "nccl")."""
    if name == "mpi":
        return MpiReduceBroadcast(world_size, **kwargs)
    if name == "nccl":
        return NcclRingAllreduce(world_size, **kwargs)
    if name == "alltoall":
        return AllToAllBroadcast(world_size, **kwargs)
    raise ValueError(
        f"unknown exchange {name!r}; expected one of {EXCHANGE_NAMES}"
    )
