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
``header + 4 * groups + padded_count`` bytes.  The codec is a
declaration on :class:`~repro.quantization.bucketed.BucketedCodec`:
absmax scales (the backend kernel), a deterministic searchsorted level
rule, a ``codes`` byte section and the signed 256-entry decode table.
"""

from __future__ import annotations

import numpy as np

from .bucketed import BucketedCodec

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


class Dettmers8(BucketedCodec):
    """8-bit dynamic-tree quantization with max scaling."""

    tag = "dt8"
    section = "codes"
    stochastic = False

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

    def effective_bucket(self, count: int, shape: tuple[int, ...] = ()) -> int:
        """Scaling-group size for a tensor of ``count``/``shape``.

        ``tree`` uses one group for the whole tensor; ``column`` uses
        the first dimension (the column-major flatten makes each group
        exactly one matrix column).  An explicit ``bucket_size``
        overrides both, capped at the tensor size like QSGD's buckets.
        """
        if self.bucket_size is None and self.variant == "column" and (
            len(shape) >= 2 and shape[0] > 0
        ):
            return min(shape[0], max(1, count))
        return super().effective_bucket(count, shape)

    def _quantize(self, buckets, scales, levels, rand, codes, ws, abs_buckets):
        # nearest tree magnitude of |g| / s (float64; empty groups stay
        # 0): searchsorted against the midpoint edges takes the smaller
        # magnitude for a value exactly on an edge
        if abs_buckets is None:
            abs_buckets = np.abs(buckets, out=ws.array("dt8.abs", buckets.shape))
        norm = ws.zeros("dt8.norm", buckets.shape, np.float64)
        np.divide(abs_buckets, scales[:, None], out=norm, where=scales[:, None] > 0)
        codes[...] = np.searchsorted(_EDGES, norm.reshape(-1), side="left")
        # only non-zero magnitudes carry the sign bit, so -0.0 and
        # underflow-to-code-0 entries stay the canonical zero code
        negative = ws.array("dt8.negative", codes.shape, bool)
        np.signbit(buckets.reshape(-1), out=negative)
        np.logical_and(negative, codes, out=negative)
        np.add(codes, np.uint8(128), out=codes, where=negative)

    def _lut(self, message):
        return _DECODE
