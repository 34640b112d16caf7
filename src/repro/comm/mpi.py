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
        # aggregator-side error feedback, one residual per (key, owner)
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
            if feedback is None:
                feedback = ErrorFeedback(codec)
                feedback._residuals.update(
                    self._restored_residuals.pop(owner, {})
                )
                self._broadcast_feedback[owner] = feedback
            return feedback
        return codec

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
        n_cols = matrices[0].shape[1]
        ranges = partition_ranges(n_cols, self.world_size)
        ws = workspace if workspace is not None else EncodeWorkspace()
        # round-trip images are only materialized when the trainer
        # needs them for error feedback
        need_local = codec.requires_error_feedback
        decoded_local = None
        if need_local:
            decoded_local = [
                ws.array(("mpi.dl", rank), matrices[0].shape)
                for rank in range(self.world_size)
            ]
        aggregate = ws.array("mpi.agg", matrices[0].shape)

        tracer = self.tracer
        for owner, (lo, hi) in enumerate(ranges):
            if lo == hi:
                continue
            # reduce phase: every rank ships its quantized range to the
            # owner, which folds each decode straight into the running
            # sum — same per-rank summation order as materialize-then-
            # add, so the aggregate is bit-identical
            if need_local:
                owner_sum = ws.zeros("mpi.osum", (rows, hi - lo))
                decoder = None
            else:
                decoder = codec.sum_decoder((rows, hi - lo), ws)
            for rank, matrix in enumerate(matrices):
                with tracer.span("encode", rank):
                    message = codec.encode_into(matrix[:, lo:hi], rng, ws)
                self._count_encode(message.nbytes, key)
                self.traffic.record(rank, owner, message.nbytes, tag=key)
                if need_local:
                    part = decoded_local[rank][:, lo:hi]
                    with tracer.span("decode", rank):
                        codec.decode_into(message, part, workspace=ws)
                        owner_sum += part
                else:
                    with tracer.span("decode", rank):
                        decoder.add(message)
                self._count_decode(message.nbytes, key)
            if decoder is not None:
                owner_sum = decoder.result()

            # broadcast phase: owner ships the aggregated range back
            broadcast_codec = self._broadcast_codec(codec, owner)
            target = aggregate[:, lo:hi]
            if broadcast_codec is None:
                target[...] = owner_sum
                nbytes = self._fullprec.encoded_nbytes(owner_sum.shape)
            elif isinstance(broadcast_codec, ErrorFeedback):
                with tracer.span("encode", owner):
                    message = broadcast_codec.encode(
                        f"{key}/range{owner}", owner_sum, rng, workspace=ws
                    )
                self._count_encode(message.nbytes, key)
                with tracer.span("decode", owner):
                    broadcast_codec.quantizer.decode_into(
                        message, target, workspace=ws
                    )
                self._count_decode(message.nbytes, key)
                nbytes = message.nbytes
            else:
                with tracer.span("encode", owner):
                    message = broadcast_codec.encode_into(owner_sum, rng, ws)
                self._count_encode(message.nbytes, key)
                with tracer.span("decode", owner):
                    broadcast_codec.decode_into(message, target, workspace=ws)
                self._count_decode(message.nbytes, key)
                nbytes = message.nbytes
            for rank in range(self.world_size):
                self.traffic.record(owner, rank, nbytes, tag=key)

        return ExchangeResult(
            aggregate=aggregate.reshape(shape),
            decoded_local=(
                [d.reshape(shape) for d in decoded_local]
                if decoded_local is not None
                else None
            ),
        )

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
