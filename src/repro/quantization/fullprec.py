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

    def encode(
        self, grad: np.ndarray, rng: np.random.Generator | None = None
    ) -> EncodedTensor:
        values = np.ascontiguousarray(grad, dtype=np.float32)
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={"values": values.reshape(-1)},
        )

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        if workspace is None:
            return self.encode(grad, rng)
        grad = np.asarray(grad)
        values = workspace.array("fp.values", grad.size)
        values.reshape(grad.shape)[...] = grad
        return EncodedTensor(
            scheme=self.name, shape=grad.shape, payload={"values": values}
        )

    def decode(self, message: EncodedTensor) -> np.ndarray:
        values = message.payload["values"]
        return np.asarray(values, dtype=np.float32).reshape(message.shape)

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
