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
from ..statetree import load_arrays
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
        # aggregator-side error feedback: one residual store per owner,
        # one residual per stream, whichever codec the stream uses
        self._feedback: dict[int, ErrorFeedback] = {}

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
        """Broadcast phase: the owner ships the aggregated range back.

        A re-quantized range is decoded once, straight into ``target``;
        under error feedback that image is also what the owner's
        residual absorbs.
        """
        if not self.requantize_broadcast or isinstance(codec, FullPrecision):
            target[...] = owner_sum
            nbytes = self._fullprec.encoded_nbytes(owner_sum.shape)
        else:
            stream = f"{key}/range{owner}"
            feedback = None
            with self.tracer.span("encode", owner):
                if codec.requires_error_feedback:
                    feedback = self._feedback.setdefault(owner, ErrorFeedback())
                    owner_sum = feedback.correct(
                        stream, owner_sum, ws.array("ef.corrected", owner_sum.shape)
                    )
                message = codec.encode_into(owner_sum, rng, ws)
            nbytes = message.nbytes
            self._count_encode(nbytes, key)
            with self.tracer.span("decode", owner):
                codec.decode_into(message, target, workspace=ws)
            if feedback is not None:
                feedback.absorb(stream, owner_sum, target)
            self._count_decode(nbytes, key)
        for rank in range(self.world_size):
            self._send(owner, rank, nbytes, key)

    def state_dict(self) -> dict:
        """Aggregator-side broadcast residuals: owner -> stream -> array."""
        return {
            str(owner): {
                stream: residual.copy()
                for stream, residual in feedback.residuals.items()
            }
            for owner, feedback in self._feedback.items()
        }

    def load_state_dict(self, state: dict) -> None:
        self._feedback = {int(owner): ErrorFeedback() for owner in state}
        for owner, residuals in state.items():
            load_arrays(self._feedback[int(owner)].residuals, residuals)
