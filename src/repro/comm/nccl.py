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
quantized payload would occupy.  Full-precision runs sum exactly.
"""

from __future__ import annotations

import numpy as np

from ..quantization.base import Quantizer
from ..quantization.fullprec import FullPrecision
from ..quantization.workspace import EncodeWorkspace
from .base import ExchangeResult, GradientExchange
from .topology import ring_successor

__all__ = ["NcclRingAllreduce"]

#: NCCL splits buffers into small slices for pipelining (Section 2.4.2);
#: transfers are padded up to whole slices.
DEFAULT_SLICE_BYTES = 8 * 1024


class NcclRingAllreduce(GradientExchange):
    """Ring allreduce with per-rank byte accounting."""

    name = "nccl"

    def __init__(
        self, world_size: int, slice_bytes: int = DEFAULT_SLICE_BYTES
    ):
        super().__init__(world_size)
        if slice_bytes < 1:
            raise ValueError(f"slice_bytes must be >= 1, got {slice_bytes}")
        self.slice_bytes = slice_bytes

    def _record_ring_traffic(self, key: str, payload_bytes: int) -> None:
        """Record reduce-scatter + allgather traffic for one buffer."""
        if self.world_size == 1 or payload_bytes == 0:
            return
        chunk = -(-payload_bytes // self.world_size)  # ceil
        # pad each chunk up to whole pipeline slices
        chunk = -(-chunk // self.slice_bytes) * self.slice_bytes
        steps = 2 * (self.world_size - 1)
        for rank in range(self.world_size):
            succ = ring_successor(rank, self.world_size)
            self.traffic.record(rank, succ, chunk * steps, tag=key)

    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        workspace: EncodeWorkspace | None = None,
    ) -> ExchangeResult:
        shape = self._check_inputs(tensors)
        inputs = [np.asarray(t, dtype=np.float32) for t in tensors]
        ws = workspace if workspace is not None else EncodeWorkspace()
        tracer = self.tracer

        # each rank's round-trip decode is fused into the running
        # accumulator in rank order
        if isinstance(codec, FullPrecision):
            aggregate = ws.zeros("nccl.agg", shape)
            for tensor in inputs:
                aggregate += tensor
            payload_bytes = codec.encoded_nbytes(shape)
            decoded_local: list[np.ndarray] | None = inputs
        elif codec.requires_error_feedback:
            # round-trip images are needed for the residual update
            aggregate = ws.zeros("nccl.agg", shape)
            decoded_local = [
                ws.array(("nccl.dl", rank), shape)
                for rank in range(self.world_size)
            ]
            payload_bytes = 0
            for rank, tensor in enumerate(inputs):
                with tracer.span("encode", rank):
                    message = codec.encode_into(tensor, rng, ws)
                self._count_encode(message.nbytes, key)
                payload_bytes = message.nbytes
                with tracer.span("decode", rank):
                    codec.decode_into(
                        message, decoded_local[rank], workspace=ws
                    )
                    aggregate += decoded_local[rank]
                self._count_decode(message.nbytes, key)
        else:
            decoded_local = None
            payload_bytes = 0
            decoder = codec.sum_decoder(shape, ws)
            for rank, tensor in enumerate(inputs):
                with tracer.span("encode", rank):
                    message = codec.encode_into(tensor, rng, ws)
                self._count_encode(message.nbytes, key)
                payload_bytes = message.nbytes
                with tracer.span("decode", rank):
                    decoder.add(message)
                self._count_decode(message.nbytes, key)
            aggregate = decoder.result()
        self._record_ring_traffic(key, payload_bytes)
        return ExchangeResult(
            aggregate=aggregate, decoded_local=decoded_local
        )
