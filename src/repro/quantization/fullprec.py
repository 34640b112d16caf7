"""Full-precision (32-bit) identity codec.

This is the paper's baseline: gradients are shipped as raw IEEE-754
single-precision values, so the wire size is ``4 * n`` bytes plus the
message header.
"""

from __future__ import annotations

import math

import numpy as np

from .base import EncodedTensor, Quantizer
from .workspace import EncodeWorkspace

__all__ = ["FullPrecision"]


class FullPrecision(Quantizer):
    """The trivial Encode/Decode pair: ship float32 values verbatim."""

    name = "32bit"
    nominal_bits = 32.0
    requires_error_feedback = False

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        ws = workspace if workspace is not None else EncodeWorkspace()
        grad = np.asarray(grad)
        values = ws.array("fp.values", grad.size)
        values.reshape(grad.shape)[...] = grad
        return EncodedTensor(
            scheme=self.name, shape=grad.shape, payload={"values": values}
        )

    def decode_into(
        self,
        message: EncodedTensor,
        out: np.ndarray,
        accumulate: bool = False,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        values = message.payload["values"].reshape(message.shape)
        if accumulate:
            out += values
        else:
            out[...] = values
        return out

    def group_count(self, shape: tuple[int, ...]) -> int:
        """Nothing is grouped: the values travel as they are."""
        return 0

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from .base import MESSAGE_HEADER_BYTES

        return MESSAGE_HEADER_BYTES + 4 * math.prod(shape)
