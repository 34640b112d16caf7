"""MPI reduce-and-broadcast gradient exchange (paper Section 2.4.1).

The gradient matrix is range-partitioned over its columns (CNTK sends
each gradient matrix separately and assigns each processor a contiguous
range).  Each rank quantizes every range and sends it to the range's
owner; the owner decodes and sums all contributions, optionally
*re-quantizes* the aggregate (CNTK's 1bitSGD does, keeping a second
error-feedback residual on the aggregator), and broadcasts it back.

Because quantization happens per range, the wire carries quantized
bytes in both the reduce and the broadcast phase — this is the data
path whose cost model produces the paper's Figures 6, 8, 10.
"""

from __future__ import annotations

import numpy as np

from ..quantization.base import ErrorFeedback, Quantizer
from ..quantization.fullprec import FullPrecision
from ..quantization.workspace import EncodeWorkspace
from .base import ExchangeResult, GradientExchange
from .topology import partition_ranges

__all__ = ["MpiReduceBroadcast"]


class MpiReduceBroadcast(GradientExchange):
    """Reduce-and-broadcast over host-staged MPI, quantization-aware."""

    name = "mpi"

    def __init__(self, world_size: int, requantize_broadcast: bool = True):
        super().__init__(world_size)
        #: whether aggregated ranges are re-quantized before broadcast
        #: (CNTK behaviour for biased schemes); unbiased schemes and
        #: full precision broadcast the exact aggregate.
        self.requantize_broadcast = requantize_broadcast
        self._fullprec = FullPrecision()
        # aggregator-side error feedback: one wrapper per owner, one
        # residual per stream
        self._broadcast_feedback: dict[int, ErrorFeedback] = {}
        # residuals restored from a checkpoint before the codec is
        # known; adopted lazily the first time each owner's feedback
        # wrapper is built
        self._restored_residuals: dict[int, dict[str, np.ndarray]] = {}

    def _broadcast_codec(self, codec: Quantizer, owner: int):
        """Encode/decode pair used for the broadcast phase."""
        if not self.requantize_broadcast or isinstance(codec, FullPrecision):
            return None
        if codec.requires_error_feedback:
            feedback = self._broadcast_feedback.get(owner)
            if feedback is None or feedback.quantizer is not codec:
                # one wrapper per owner, re-quantizing with the codec of
                # the stream at hand; its per-stream residuals carry over
                residuals = (
                    self._restored_residuals.pop(owner, {})
                    if feedback is None
                    else feedback._residuals
                )
                feedback = ErrorFeedback(codec)
                feedback._residuals.update(residuals)
                self._broadcast_feedback[owner] = feedback
            return feedback
        return codec

    def _route(self, src: int, nbytes: int, key: str, dst: int | None) -> None:
        self._send(src, dst, nbytes, key)

    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        workspace: EncodeWorkspace | None = None,
    ) -> ExchangeResult:
        shape = self._check_inputs(tensors)
        rows = shape[0] if shape else 1
        matrices = [
            np.asarray(t, dtype=np.float32).reshape(rows, -1) for t in tensors
        ]
        ws = workspace if workspace is not None else EncodeWorkspace()
        images = self._images(codec, shape, ws)
        aggregate = ws.array("mpi.agg", matrices[0].shape)
        for owner, (lo, hi) in enumerate(
            partition_ranges(aggregate.shape[1], self.world_size)
        ):
            if lo == hi:
                continue
            # reduce phase: every rank ships its quantized range to the
            # owner, which sums the decodes
            owner_sum = self._reduce(
                key,
                [matrix[:, lo:hi] for matrix in matrices],
                codec,
                rng,
                ws,
                None
                if images is None
                else [i.reshape(rows, -1)[:, lo:hi] for i in images],
                dst=owner,
            )
            self._broadcast(
                key, owner, owner_sum, aggregate[:, lo:hi], codec, rng, ws
            )
        return ExchangeResult(
            aggregate=aggregate.reshape(shape), decoded_local=images
        )

    def _broadcast(self, key, owner, owner_sum, target, codec, rng, ws):
        """Broadcast phase: the owner ships the aggregated range back."""
        broadcast_codec = self._broadcast_codec(codec, owner)
        if broadcast_codec is None:
            target[...] = owner_sum
            nbytes = self._fullprec.encoded_nbytes(owner_sum.shape)
        else:
            with self.tracer.span("encode", owner):
                if isinstance(broadcast_codec, ErrorFeedback):
                    message = broadcast_codec.encode(
                        f"{key}/range{owner}", owner_sum, rng, workspace=ws
                    )
                    broadcast_codec = broadcast_codec.quantizer
                else:
                    message = broadcast_codec.encode_into(owner_sum, rng, ws)
            nbytes = message.nbytes
            self._count_encode(nbytes, key)
            with self.tracer.span("decode", owner):
                broadcast_codec.decode_into(message, target, workspace=ws)
            self._count_decode(nbytes, key)
        for rank in range(self.world_size):
            self._send(owner, rank, nbytes, key)

    def state_dict(self) -> dict:
        """Aggregator-side broadcast residuals: owner -> stream -> array."""
        # restored-but-not-yet-adopted residuals round-trip unchanged
        held = dict(self._restored_residuals)
        for owner, feedback in self._broadcast_feedback.items():
            held[owner] = feedback._residuals
        return {
            str(owner): {
                stream: residual.copy()
                for stream, residual in residuals.items()
            }
            for owner, residuals in held.items()
        }

    def load_state_dict(self, state: dict) -> None:
        self._broadcast_feedback.clear()
        self._restored_residuals = {
            int(owner): {
                stream: np.array(residual, dtype=np.float32)
                for stream, residual in residuals.items()
            }
            for owner, residuals in state.items()
        }
