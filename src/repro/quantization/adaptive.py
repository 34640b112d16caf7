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

The workspace forms remove the full-tensor temporaries (buckets,
ratios, rounding scratch, packed words); the per-message Lloyd-Max fit
itself still allocates — it runs on a bounded 4096-element sample, so
its footprint is constant, not proportional to the gradient.
"""

from __future__ import annotations

import math

import numpy as np

from . import bitpack
from .base import BucketSumDecoder, EncodedTensor, Quantizer, SumDecoder
from .bucketing import bucket_plan, from_buckets_into, to_buckets_into
from .workspace import EncodeWorkspace

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


class AdaptiveQsgd(Quantizer):
    """QSGD with Lloyd-Max-placed magnitude levels (sign + magnitude)."""

    requires_error_feedback = False

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

    def effective_bucket(self, count: int) -> int:
        return max(1, min(self.bucket_size, count))

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
        rng = rng if rng is not None else np.random.default_rng()
        ws = workspace if workspace is not None else EncodeWorkspace()
        grad = np.asarray(grad, dtype=np.float32)
        bucket_size = self.effective_bucket(grad.size)
        plan = bucket_plan(grad.size, bucket_size)
        lanes = (plan.n_buckets, bucket_size)

        buckets = ws.array("aq.buckets", lanes)
        to_buckets_into(grad, bucket_size, buckets)
        magnitude = ws.array("aq.magnitude", lanes)
        np.abs(buckets, out=magnitude)
        scales = ws.array("aq.scales", plan.n_buckets)
        magnitude.max(axis=1, out=scales)
        positive = ws.array("aq.posmask", plan.n_buckets, bool)
        np.greater(scales, 0.0, out=positive)
        safe = ws.array("aq.safe", plan.n_buckets)
        safe.fill(1.0)
        np.copyto(safe, scales, where=positive)
        ratios = ws.array("aq.ratios", lanes)
        np.divide(magnitude, safe[:, None], out=ratios)

        # Lloyd-Max fit on a bounded sample (allocates O(sample), not O(n))
        sample = ratios.reshape(-1)
        if sample.size > _SAMPLE_LIMIT:
            sample = rng.choice(sample, size=_SAMPLE_LIMIT, replace=False)
        levels = lloyd_max_levels(sample, self.n_levels)

        # stochastic rounding between neighbouring fitted levels
        # searchsorted has no out= form; it is the one remaining
        # full-size allocation on this path
        upper = np.searchsorted(levels, ratios, side="left")
        np.clip(upper, 1, self.n_levels - 1, out=upper)
        lower = ws.array("aq.lower", lanes, upper.dtype)
        np.subtract(upper, 1, out=lower)
        low_val = ws.array("aq.low", lanes)
        np.take(levels, lower, out=low_val)
        high_val = ws.array("aq.high", lanes)
        np.take(levels, upper, out=high_val)
        span = high_val  # dead after the max: reuse as span buffer
        np.subtract(high_val, low_val, out=span)
        np.maximum(span, 1e-12, out=span)
        prob = ws.array("aq.prob", lanes)
        np.subtract(ratios, low_val, out=prob)
        np.divide(prob, span, out=prob)
        np.clip(prob, 0.0, 1.0, out=prob)
        rand = ws.array("aq.rand", lanes, np.float64)
        rng.random(out=rand)
        rounded = ws.array("aq.round", lanes, bool)
        np.less(rand, prob, out=rounded)
        chosen = lower
        np.add(lower, rounded, out=chosen)
        codes = ws.array("aq.codes", lanes, np.uint32)
        codes[...] = chosen
        negative = rounded  # bool scratch, reused
        np.less(buckets, 0.0, out=negative)
        np.left_shift(codes, 1, out=codes)
        np.bitwise_or(codes, negative, out=codes)
        zero = ws.array("aq.zeromask", plan.n_buckets, bool)
        np.equal(scales, 0.0, out=zero)
        codes[zero, :] = 0
        words = ws.array(
            "aq.words", bitpack.packed_words(plan.padded, self.bits),
            np.uint32,
        )
        bitpack.pack_into(
            codes.reshape(-1), self.bits, words, workspace=ws, check=False
        )
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={"scales": scales, "levels": levels, "words": words},
            meta={"bits": self.bits, "bucket_size": bucket_size},
        )

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
        # accumulate in the contiguous bucket layout, un-bucket once
        return BucketSumDecoder(self, shape, workspace)

    def _decode_values(
        self,
        message: EncodedTensor,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Decoded bucket matrix, before the bucket-order permutation."""
        ws = workspace if workspace is not None else EncodeWorkspace()
        bits = int(message.meta["bits"])
        bucket_size = int(message.meta["bucket_size"])
        scales = np.asarray(message.payload["scales"], dtype=np.float32)
        levels = np.asarray(message.payload["levels"], dtype=np.float32)
        n_buckets = scales.shape[0]
        lanes = (n_buckets, bucket_size)
        codes = bitpack.unpack_into(
            message.payload["words"],
            n_buckets * bucket_size,
            width=bits,
            workspace=ws,
        ).reshape(lanes)
        ints = ws.array("aq.dec.ints", lanes, np.uint32)
        np.right_shift(codes, 1, out=ints)
        magnitude = ws.array("aq.dec.magnitude", lanes)
        np.take(levels, ints, out=magnitude)
        np.bitwise_and(codes, 1, out=ints)
        values = ws.array("aq.dec.values", lanes)
        values[...] = ints
        # sign = 1 - 2 * signbit; buckets = sign * magnitude * scale
        np.multiply(2.0, values, out=values)
        np.subtract(1.0, values, out=values)
        np.multiply(values, magnitude, out=values)
        np.multiply(values, scales[:, None], out=values)
        return values

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        # closed form: the base default encodes a zero tensor, which
        # here means Lloyd-Max over it — ~27 s for one AlexNet fc layer
        from .base import MESSAGE_HEADER_BYTES

        buckets = self.group_count(shape)
        bucket_size = self.effective_bucket(math.prod(shape))
        code_words = bitpack.packed_words(buckets * bucket_size, self.bits)
        return MESSAGE_HEADER_BYTES + 4 * (
            buckets + self.n_levels + code_words
        )
