"""Collective-exchange interface shared by the MPI and NCCL paths.

A :class:`GradientExchange` implements line 4-8 of the paper's
Algorithm 1 for one gradient tensor: every rank contributes its local
gradient, and every rank receives the identical aggregated (summed)
gradient.  Implementations differ in data movement (and therefore in
the bytes recorded on each link) and in where quantization is applied.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..quantization.base import Quantizer
from ..quantization.workspace import EncodeWorkspace
from ..telemetry.tracer import NULL_TRACER

from .message import LinkTraffic

__all__ = ["ExchangeResult", "GradientExchange"]


@dataclass
class ExchangeResult:
    """Outcome of one collective gradient exchange.

    Attributes:
        aggregate: the summed gradient, identical at every rank (the
            synchronous-SGD invariant; tests assert it).  This array
            aliases a workspace arena buffer and is valid until the
            next exchange on the same workspace — consume (or copy) it
            before then.
        decoded_local: per rank, what that rank's own contribution
            looked like after its quantization round-trip.  The trainer
            uses this to update error-feedback residuals.  ``None``
            when the codec does not require error feedback and the
            round-trip images were folded straight into the aggregate
            (fused decode-accumulate) instead of materialized.
    """

    aggregate: np.ndarray
    decoded_local: list[np.ndarray] | None


class GradientExchange(abc.ABC):
    """One collective pattern (MPI reduce-and-broadcast, NCCL ring...).

    Instances are stateful only where the real system is stateful
    (e.g. the MPI path's aggregator-side error feedback); all traffic
    is recorded into :attr:`traffic`.
    """

    name: str = "exchange"

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.traffic = LinkTraffic()
        # telemetry handle, installed by SynchronousStep when tracing
        # is on; the default null tracer makes every span a shared
        # no-op, so untraced exchanges pay only the call sites
        self.tracer = NULL_TRACER

    def _count_encode(self, nbytes: int, key: str = "") -> None:
        """Mirror one codec encode into the tracer's typed counters.

        A non-empty ``key`` (the gradient stream / parameter name)
        attributes the call to that layer's measured encode-cost
        profile, which the adaptive bit-width policy consumes.
        """
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_encode(nbytes, key or None)

    def _count_decode(self, nbytes: int, key: str = "") -> None:
        """Mirror one codec decode into the tracer's typed counters."""
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_decode(nbytes, key or None)

    @abc.abstractmethod
    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        workspace: EncodeWorkspace | None = None,
    ) -> ExchangeResult:
        """Aggregate one gradient tensor across all ranks.

        Args:
            key: stable stream identifier (parameter name); collectives
                with aggregator-side state key it by this.
            tensors: one gradient per rank, all of identical shape.
            codec: the quantizer applied on the wire.
            rng: randomness source for stochastic quantizers.
            workspace: scratch arena for the zero-allocation hot path
                (``None``: a throwaway one).  Encode/decode run through
                the codec's ``*_into`` kernels and per-rank decodes are
                fused into a single running accumulator
                (``decode_into(..., accumulate=True)``) in rank order,
                so the aggregate is bit-identical to summing dense
                decodes.  Not thread-safe: one workspace per exchanging
                thread.
        """

    def _check_inputs(self, tensors: list[np.ndarray]) -> tuple[int, ...]:
        if len(tensors) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank tensors, got {len(tensors)}"
            )
        shape = tensors[0].shape
        for rank, tensor in enumerate(tensors):
            if tensor.shape != shape:
                raise ValueError(
                    f"rank {rank} tensor shape {tensor.shape} != {shape}"
                )
        return shape

    def state_dict(self) -> dict:
        """Copy of any aggregator-side numeric state, as a state tree.

        Empty for a stateless collective.  It is one subtree of the
        run's state tree (:mod:`repro.statetree`), so checkpoints and
        retry rollbacks carry exchanges with server-side error feedback
        (the MPI path's re-quantized broadcast) without naming them.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{self.name} exchange is stateless but received "
                f"{len(state)} state entries"
            )
