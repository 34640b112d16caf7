"""Top-k sparse gradient compression (Aji & Heafield, EMNLP 2017).

Discussed in the paper's related-work section: truncate the gradient
to its largest-magnitude ``density`` fraction, accumulate the dropped
coordinates locally (error feedback), and ship (index, value) pairs.
The paper's argument against it on ImageNet-class models — the density
needed for convergence (>10% on Inception) makes index+value pairs
*more* expensive than dense 4-bit QSGD — can be verified directly from
this codec's ``bits_per_element``.
"""

from __future__ import annotations

import math

import numpy as np

from .base import EncodedTensor, Quantizer
from .workspace import EncodeWorkspace

__all__ = ["TopK"]


class TopK(Quantizer):
    """Keep the ``density`` largest-magnitude entries; drop the rest.

    The message carries one int32 index and one float32 value per
    surviving entry (64 bits each), so the wire rate is
    ``64 * density`` bits per element — cheaper than 4-bit QSGD only
    below ~6% density.
    """

    requires_error_feedback = True

    def __init__(self, density: float = 0.01):
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.density = density
        self.name = f"topk{density:g}"
        self.nominal_bits = 64.0 * density

    def survivors(self, count: int) -> int:
        """Entries kept for a ``count``-element tensor (at least one)."""
        return max(1, int(self.density * count))

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        # Selection (argpartition/sort) allocates regardless; the
        # workspace only removes the flatten/abs/gather temporaries.
        ws = workspace if workspace is not None else EncodeWorkspace()
        grad = np.asarray(grad, dtype=np.float32)
        flat = grad.reshape(-1)
        if not flat.flags.c_contiguous:
            staged = ws.array("topk.flat", flat.size)
            staged[...] = flat
            flat = staged
        keep = self.survivors(flat.size)
        if keep >= flat.size:
            indices = np.arange(flat.size, dtype=np.int32)
        else:
            magnitude = ws.array("topk.abs", flat.size)
            np.abs(flat, out=magnitude)
            indices = np.argpartition(magnitude, -keep)[-keep:]
            indices = np.sort(indices).astype(np.int32)
        values = ws.array("topk.values", keep)
        np.take(flat, indices, out=values)
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={"indices": indices, "values": values},
            meta={"density": self.density},
        )

    def decode_into(
        self,
        message: EncodedTensor,
        out: np.ndarray,
        accumulate: bool = False,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        indices = message.payload["indices"]
        values = message.payload["values"]
        if out.flags.c_contiguous:
            flat = out.reshape(-1)
            if accumulate:
                # indices are unique: += is an exact scatter-add here
                flat[indices] += values
            else:
                flat.fill(0.0)
                flat[indices] = values
            return out
        # strided destination: reshape(-1) would silently copy, so
        # scatter into dense scratch and apply shaped
        ws = workspace if workspace is not None else EncodeWorkspace()
        dense = ws.zeros("topk.dec", out.shape)
        dense.reshape(-1)[indices] = values
        if accumulate:
            out += dense
        else:
            out[...] = dense
        return out

    def group_count(self, shape: tuple[int, ...]) -> int:
        """One whole-tensor magnitude selection."""
        return 1

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from .base import MESSAGE_HEADER_BYTES

        return MESSAGE_HEADER_BYTES + 8 * self.survivors(math.prod(shape))
