"""TernGrad ternary gradient quantization (Wen et al., NIPS 2017).

Each gradient entry is stochastically rounded to one of three values
``{-s, 0, +s}`` where ``s`` is the scaling factor of its bucket (the
maximum absolute value, as in the paper's ternarize step):

    ``t_i = s * sign(g_i) * b_i``  with  ``b_i ~ Bernoulli(|g_i| / s)``

which makes the quantizer *unbiased* — ``E[t_i] = g_i`` — so TernGrad
converges without error feedback, exactly like QSGD.  Codes occupy two
bits each (0 = zero, 1 = ``+s``, 2 = ``-s``), packed little-endian into
32-bit words by :mod:`repro.quantization.bitpack`.

The paper's optional *gradient clipping* bounds the scaler: entries are
clipped to ``c * sigma`` (``sigma`` the standard deviation of the whole
tensor, ``c`` typically 2.5) before ternarizing, which shrinks ``s``
and therefore the quantization variance at the cost of a small bias.
Clipping is off by default so the unbiasedness law holds exactly; the
registry accepts ``terngrad2.5``-style names to switch it on.

Scaling is per *bucket* of the column-major flattened gradient; the
default bucket is the whole tensor (the paper uses one scaler per
gradient), and a finite ``bucket_size`` trades extra scale floats for
lower variance exactly as QSGD's bucketing does.

The codec is a declaration on :class:`~repro.quantization.bucketed.
BucketedCodec`: an optional clipping pre-pass, absmax scales, and a
level rule that *is* QSGD's sign-variant kernel at ``s = 1`` -- it
fires a value with exactly TernGrad's probability ``|g| / s`` from the
same caller-side uniform draw -- with its 2-bit codes re-labelled from
QSGD's ``(fired << 1) | negative`` to TernGrad's layout in the packed
words.  Decode is the three-entry multiplier table times the scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .bucketed import BucketedCodec

__all__ = ["TernGrad"]

#: code -> reconstruction multiplier (index 0/1/2 = zero/plus/minus)
_TERN_LUT = np.array([0.0, 1.0, -1.0], dtype=np.float32)
#: the low bit of every 2-bit lane of a packed word
_LANE_LOW = np.uint32(0x55555555)


class TernGrad(BucketedCodec):
    """Ternary {-1, 0, +1} quantization with max scaling."""

    tag = "tern"
    bits = 2

    def __init__(
        self,
        bucket_size: int | None = None,
        clip: float | None = None,
    ):
        if bucket_size is not None and bucket_size < 1:
            raise ValueError(
                f"bucket_size must be >= 1, got {bucket_size}"
            )
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ValueError(f"clip factor must be finite and > 0, got {clip}")
        self.bucket_size = bucket_size
        self.clip = clip
        self.name = "terngrad"
        self.nominal_bits = float(self.bits)

    def _quantize(self, buckets, scales, levels, rand, words, ws, abs_buckets):
        kernels.active().quantize_sign_packed(
            buckets, scales, self.bits, rand, words, ws, abs_buckets
        )
        # per lane (fired << 1) | negative -> fired + (fired & negative):
        # 0 stays zero, a fired positive is 1 and a fired negative is 2
        negative = ws.array("tern.negative", words.shape, np.uint32)
        np.bitwise_and(words, _LANE_LOW, out=negative)
        np.right_shift(words, 1, out=words)
        np.bitwise_and(words, _LANE_LOW, out=words)
        np.bitwise_and(negative, words, out=negative)
        np.add(words, negative, out=words)

    def _lut(self, message):
        return _TERN_LUT
