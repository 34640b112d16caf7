"""Literal Algorithm 1 exchange: broadcast every message to every peer.

This is the reference semantics of the paper's Algorithm 1 (each rank
broadcasts its encoded gradient M^i to all peers; every peer decodes
all K messages and sums).  It moves ``K (K-1)`` messages per tensor, so
it is never the fastest pattern — the optimized MPI and NCCL exchanges
are verified against it in the integration tests.
"""

from __future__ import annotations

import numpy as np

from ..quantization.base import Quantizer
from ..quantization.workspace import EncodeWorkspace
from .base import ExchangeResult, GradientExchange

__all__ = ["AllToAllBroadcast"]


class AllToAllBroadcast(GradientExchange):
    """Every rank broadcasts its quantized gradient to every peer."""

    name = "alltoall"

    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        workspace: EncodeWorkspace | None = None,
    ) -> ExchangeResult:
        shape = self._check_inputs(tensors)
        ws = workspace if workspace is not None else EncodeWorkspace()
        need_local = codec.requires_error_feedback
        if need_local:
            aggregate = ws.zeros("a2a.agg", shape)
            decoder = None
        else:
            # fused decode-accumulate: same rank-order summation as the
            # materializing path, hence bit-identical
            decoder = codec.sum_decoder(shape, ws)
        decoded_local: list[np.ndarray] | None = [] if need_local else None
        tracer = self.tracer
        for rank, tensor in enumerate(tensors):
            with tracer.span("encode", rank):
                message = codec.encode_into(
                    np.asarray(tensor, dtype=np.float32), rng, ws
                )
            self._count_encode(message.nbytes, key)
            for peer in range(self.world_size):
                self.traffic.record(rank, peer, message.nbytes, tag=key)
            if need_local:
                with tracer.span("decode", rank):
                    decoded = ws.array(("a2a.dl", rank), shape)
                    codec.decode_into(message, decoded, workspace=ws)
                    decoded_local.append(decoded)
                    aggregate += decoded
            else:
                with tracer.span("decode", rank):
                    decoder.add(message)
            self._count_decode(message.nbytes, key)
        if decoder is not None:
            aggregate = decoder.result()
        return ExchangeResult(aggregate=aggregate, decoded_local=decoded_local)
