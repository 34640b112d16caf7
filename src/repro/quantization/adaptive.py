"""QSGD with non-uniformly distributed quantization levels.

The paper (Section 2.3) notes that level placement can be optimized to
minimize variance — the ZipML approach — and reports implementing it
for gradients "but does not observe significant improvement".  This
codec reproduces that variant: levels are placed by Lloyd-Max
iteration on a sample of the normalized magnitudes, then each value is
stochastically rounded between its two neighbouring levels so the
estimator stays unbiased.

Levels are fit per message from a subsample and shipped alongside the
codes (one float32 per level), so the wire format remains
self-contained.

The codec is a declaration on :class:`~repro.quantization.bucketed.
BucketedCodec`: absmax scales (the backend kernel), a level fit drawn
from the run's generator *before* the rounding uniforms, a stochastic
sign + magnitude level rule packed at ``bits``, and a decode table
built from the shipped levels: code ``(level << 1) | sign`` multiplies
the scale by ``(1 - 2 sign) * levels[level]``, an exact sign flip.  The
Lloyd-Max fit allocates, but only on a bounded 4096-element sample, so
its footprint is constant, not proportional to the gradient.
"""

from __future__ import annotations

import numpy as np

from . import bitpack
from .bucketed import BucketedCodec

__all__ = ["AdaptiveQsgd", "lloyd_max_levels"]

_SAMPLE_LIMIT = 4096


def lloyd_max_levels(
    magnitudes: np.ndarray, n_levels: int, iterations: int = 12
) -> np.ndarray:
    """Fit ``n_levels`` increasing levels over [0, 1] by Lloyd-Max.

    Level 0 is pinned at 0 and the last level at 1 so that zeros and
    the scale element stay exactly representable.
    """
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    values = np.asarray(magnitudes, dtype=np.float64).reshape(-1)
    values = values[np.isfinite(values)]
    levels = np.linspace(0.0, 1.0, n_levels)
    if values.size == 0:
        return levels.astype(np.float32)
    for _ in range(iterations):
        boundaries = (levels[:-1] + levels[1:]) / 2.0
        assignment = np.searchsorted(boundaries, values)
        for index in range(1, n_levels - 1):
            members = values[assignment == index]
            if members.size:
                levels[index] = members.mean()
        levels = np.sort(levels)
        levels[0] = 0.0
        levels[-1] = 1.0
    # deduplicate collapsed levels to keep searchsorted well-defined
    for index in range(1, n_levels):
        if levels[index] <= levels[index - 1]:
            levels[index] = levels[index - 1] + 1e-7
    levels[-1] = max(levels[-1], 1.0)
    return levels.astype(np.float32)


class AdaptiveQsgd(BucketedCodec):
    """QSGD with Lloyd-Max-placed magnitude levels (sign + magnitude)."""

    tag = "aq"
    fits_levels = True
    meta_keys = ("bits", "bucket_size")

    def __init__(self, bits: int, bucket_size: int = 512):
        if not 2 <= bits <= 8:
            raise ValueError(
                f"adaptive QSGD supports 2..8 bits, got {bits}"
            )
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
        self.bits = bits
        self.bucket_size = bucket_size
        self.name = f"aqsgd{bits}"
        self.nominal_bits = float(bits)
        self.n_levels = (1 << (bits - 1))  # magnitude levels incl. zero

    def _fit(self, buckets, scales, rng, ws):
        # ratios |g| / s (empty buckets divide by 1) stay in the arena
        # for the level rule; the fit runs on a bounded sample of them
        ratios = ws.array("aq.ratios", buckets.shape)
        np.abs(buckets, out=ratios)
        safe = np.where(scales > 0.0, scales, np.float32(1.0))
        np.divide(ratios, safe[:, None], out=ratios)
        sample = ratios.reshape(-1)
        if sample.size > _SAMPLE_LIMIT:
            sample = rng.choice(sample, size=_SAMPLE_LIMIT, replace=False)
        return lloyd_max_levels(sample, self.n_levels)

    def _quantize(self, buckets, scales, levels, rand, words, ws, abs_buckets):
        # stochastic rounding between neighbouring fitted levels
        lanes = buckets.shape
        ratios = ws.array("aq.ratios", lanes)
        upper = np.searchsorted(levels, ratios, side="left")
        np.clip(upper, 1, self.n_levels - 1, out=upper)
        lower = ws.array("aq.lower", lanes, upper.dtype)
        np.subtract(upper, 1, out=lower)
        low_val = ws.array("aq.low", lanes)
        np.take(levels, lower, out=low_val)
        span = ws.array("aq.span", lanes)
        np.take(levels, upper, out=span)
        np.subtract(span, low_val, out=span)
        np.maximum(span, 1e-12, out=span)
        prob = ratios  # dead after this: reuse as the probability
        np.subtract(ratios, low_val, out=prob)
        np.divide(prob, span, out=prob)
        np.clip(prob, 0.0, 1.0, out=prob)
        rounded = ws.array("aq.round", lanes, bool)
        np.less(rand, prob, out=rounded)
        np.add(lower, rounded, out=lower)
        codes = ws.array("aq.codes", lanes, np.uint32)
        codes[...] = lower
        np.less(buckets, 0.0, out=rounded)  # bool scratch, reused
        np.left_shift(codes, 1, out=codes)
        np.bitwise_or(codes, rounded, out=codes)
        codes[scales == 0.0, :] = 0
        bitpack.pack_into(
            codes.reshape(-1), self.bits, words, workspace=ws, check=False
        )

    def _lut(self, message):
        levels = np.asarray(message.payload["levels"], dtype=np.float32)
        lut = np.empty(2 * levels.size, dtype=np.float32)
        lut[0::2] = levels
        np.negative(levels, out=lut[1::2])
        return lut
