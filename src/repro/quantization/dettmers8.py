"""Dettmers' 8-bit dynamic-tree quantization (arXiv:1511.04561).

Each value is normalized by its group's maximum absolute value and
mapped to the nearest of 256 *dynamic tree* codes: one sign bit, a
unary movable exponent, and the remaining bits as a linear fraction.
With 7 magnitude bits, a code whose bit string starts with ``e``
leading zeros (``e`` in ``[0, 6]``) represents a value in the decade
``(10^-(e+1), 10^-e]``, subdivided linearly by the ``6 - e`` trailing
fraction bits — so the format spends precision where gradient
magnitudes actually live, covering six orders of magnitude while
keeping ~2 significant decimal digits near 1.0.  Code 0 is an exact
zero and the top code is exactly 1.0; the magnitude map is strictly
monotone in the code, which the property suite pins.

Two normalization variants, as in the paper:

``tree``
    One scale factor for the whole tensor (the scheme name
    ``dettmers8``).
``column``
    One scale factor per matrix column (``dettmers8c``), the
    columnwise-max variant; 0/1-D tensors fall back to a single group.

Encode is a vectorized binary search against the monotone magnitude
table (deterministic nearest-value rounding, ties toward the smaller
magnitude); decode is a single table lookup plus the scale multiply.
Codes ship as one byte per element, so the wire cost is exactly
``header + 4 * groups + padded_count`` bytes.  All arithmetic is plain
numpy — backend bit-identity comes from the shared bucketize kernels
that move values in and out of the group layout.
"""

from __future__ import annotations

import math

import numpy as np

from .base import BucketSumDecoder, EncodedTensor, Quantizer, SumDecoder
from .bucketing import bucket_plan, from_buckets_into, to_buckets_into
from .workspace import EncodeWorkspace

__all__ = ["Dettmers8", "dynamic_tree_values"]

_VARIANTS = ("tree", "column")

#: magnitude bits per code (one bit of the byte is the sign)
_MAG_BITS = 7


def dynamic_tree_values(bits: int = _MAG_BITS + 1) -> np.ndarray:
    """The ``2**(bits-1)`` non-negative values of the dynamic tree.

    Entry ``m`` decodes magnitude code ``m``: 0 is an exact zero, and
    for ``m > 0`` the position of the leading one among the ``bits-1``
    magnitude bits selects the decade ``(10^-(e+1), 10^-e]`` while the
    trailing bits subdivide it linearly.  The table is strictly
    increasing with ``m`` (the monotone code->value law) and its top
    entry is exactly 1.0.
    """
    if not 2 <= bits <= 10:
        raise ValueError(f"bits must be in [2, 10], got {bits}")
    mag_bits = bits - 1
    values = np.zeros(1 << mag_bits, dtype=np.float64)
    for code in range(1, 1 << mag_bits):
        exponent = mag_bits - code.bit_length()  # leading zeros
        frac_bits = mag_bits - 1 - exponent
        fraction = code - (1 << frac_bits)  # strip the leading one
        hi = 10.0 ** -exponent
        lo = 10.0 ** -(exponent + 1)
        values[code] = lo + (fraction + 1) * (hi - lo) / (1 << frac_bits)
    return values.astype(np.float32)


#: the 128 magnitudes of the 8-bit format, ascending
_TREE = dynamic_tree_values()
#: midpoints between adjacent magnitudes: the nearest-value decision
#: boundaries for the vectorized searchsorted encode
_EDGES = ((_TREE[:-1] + _TREE[1:]) / 2.0).astype(np.float64)
#: full signed decode table for all 256 byte codes (high bit = sign)
_DECODE = np.concatenate([_TREE, -_TREE]).astype(np.float32)


class Dettmers8(Quantizer):
    """8-bit dynamic-tree quantization with max scaling."""

    requires_error_feedback = False

    def __init__(self, variant: str = "tree", bucket_size: int | None = None):
        if variant not in _VARIANTS:
            raise ValueError(
                f"variant must be one of {_VARIANTS}, got {variant!r}"
            )
        if bucket_size is not None and bucket_size < 1:
            raise ValueError(
                f"bucket_size must be >= 1, got {bucket_size}"
            )
        self.variant = variant
        self.bucket_size = bucket_size
        self.name = "dettmers8" if variant == "tree" else "dettmers8c"
        self.nominal_bits = 8.0

    def effective_bucket(self, count: int, shape: tuple[int, ...]) -> int:
        """Scaling-group size for a tensor of ``count``/``shape``.

        ``tree`` uses one group for the whole tensor; ``column`` uses
        the first dimension (the column-major flatten makes each group
        exactly one matrix column).  An explicit ``bucket_size``
        overrides both, capped at the tensor size like QSGD's buckets.
        """
        if self.bucket_size is not None:
            return max(1, min(self.bucket_size, count))
        if self.variant == "column" and len(shape) >= 2 and shape[0] > 0:
            return min(shape[0], max(1, count))
        return max(1, count)

    # -- encode ---------------------------------------------------------
    def encode(
        self, grad: np.ndarray, rng: np.random.Generator | None = None
    ) -> EncodedTensor:
        return self.encode_into(grad, rng)

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        ws = workspace if workspace is not None else EncodeWorkspace()
        grad = np.asarray(grad)
        bucket_size = self.effective_bucket(grad.size, grad.shape)
        plan = bucket_plan(grad.size, bucket_size)
        lanes = (plan.n_buckets, bucket_size)

        buckets = ws.array("dt8.buckets", lanes)
        to_buckets_into(grad, bucket_size, buckets)
        absval = ws.array("dt8.abs", lanes)
        np.abs(buckets, out=absval)
        scales = ws.array("dt8.scales", plan.n_buckets)
        absval.max(axis=1, initial=0.0, out=scales)

        # normalized magnitudes in [0, 1]; empty groups stay all-zero
        norm = ws.array("dt8.norm", lanes, np.float64)
        norm.fill(0.0)
        nonzero = ws.array("dt8.nonzero", plan.n_buckets, bool)
        np.greater(scales, 0.0, out=nonzero)
        np.divide(
            absval, scales[:, None], out=norm, where=nonzero[:, None]
        )

        # nearest dynamic-tree magnitude: searchsorted against the
        # midpoint edges rounds deterministically (a value exactly on
        # an edge takes the smaller magnitude — side='left')
        mag = ws.array("dt8.mag", plan.padded, np.uint8)
        mag_plane = mag.reshape(lanes)
        idx = np.searchsorted(_EDGES, norm.reshape(-1), side="left")
        mag_plane.reshape(-1)[...] = idx

        codes = ws.array("dt8.codes", plan.padded, np.uint8)
        plane = codes.reshape(lanes)
        np.copyto(plane, mag_plane)
        negative = ws.array("dt8.neg", lanes, bool)
        np.signbit(buckets, out=negative)
        # only genuinely non-zero magnitudes carry a sign bit, so -0.0
        # and underflow-to-code-0 entries stay the canonical zero code
        coded = ws.array("dt8.coded", lanes, bool)
        np.greater(mag_plane, 0, out=coded)
        np.logical_and(negative, coded, out=negative)
        np.add(plane, np.uint8(128), out=plane, where=negative)

        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={"scales": scales, "codes": codes},
            meta={"bucket_size": bucket_size},
        )

    # -- decode ---------------------------------------------------------
    def decode(self, message: EncodedTensor) -> np.ndarray:
        out = np.empty(message.shape, dtype=np.float32)
        return self.decode_into(message, out)

    def decode_into(
        self,
        message: EncodedTensor,
        out: np.ndarray,
        accumulate: bool = False,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        values = self._decode_values(message, workspace)
        return from_buckets_into(values, message.shape, out, accumulate)

    def sum_decoder(
        self,
        shape: tuple[int, ...],
        workspace: EncodeWorkspace | None = None,
    ) -> SumDecoder:
        # accumulate in the contiguous group layout, un-bucket once
        return BucketSumDecoder(self, shape, workspace)

    def _decode_values(
        self,
        message: EncodedTensor,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Decoded group matrix, before the bucket-order permutation."""
        ws = workspace if workspace is not None else EncodeWorkspace()
        bucket_size = int(message.meta["bucket_size"])
        scales = np.asarray(message.payload["scales"], dtype=np.float32)
        lanes = (scales.shape[0], bucket_size)
        codes = np.ascontiguousarray(
            message.payload["codes"], dtype=np.uint8
        )
        expected = lanes[0] * lanes[1]
        if codes.ndim != 1 or codes.size != expected:
            raise ValueError(
                f"expected {expected} byte codes for group geometry "
                f"{lanes}, got shape {codes.shape}"
            )
        values = ws.array("dt8.dec.values", lanes)
        np.take(_DECODE, codes.reshape(lanes), out=values)
        values *= scales[:, None]
        return values

    def group_count(self, shape: tuple[int, ...]) -> int:
        from .bucketing import bucket_count

        count = math.prod(shape)
        return bucket_count(count, self.effective_bucket(count, shape))

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from .base import MESSAGE_HEADER_BYTES

        buckets = self.group_count(shape)
        bucket_size = self.effective_bucket(math.prod(shape), shape)
        return MESSAGE_HEADER_BYTES + 4 * buckets + buckets * bucket_size
