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

The ``*_into`` forms draw every intermediate from an
:class:`~repro.quantization.workspace.EncodeWorkspace`, and the
Bernoulli draws are made caller-side with the run's generator and
compared against the normalized magnitudes, so every kernel backend
consumes the identical RNG stream (backend bit-identity comes from the
shared bitpack/bucketize kernels; the ternarize arithmetic itself is
plain numpy).
"""

from __future__ import annotations

import math

import numpy as np

from . import bitpack
from .base import BucketSumDecoder, EncodedTensor, Quantizer, SumDecoder
from .bucketing import bucket_plan, from_buckets_into, to_buckets_into
from .workspace import EncodeWorkspace

__all__ = ["TernGrad"]

#: code -> reconstruction multiplier (index 0/1/2 = zero/plus/minus)
_TERN_LUT = np.array([0.0, 1.0, -1.0], dtype=np.float32)

_CODE_BITS = 2


class TernGrad(Quantizer):
    """Ternary {-1, 0, +1} quantization with max scaling."""

    requires_error_feedback = False

    def __init__(
        self,
        bucket_size: int | None = None,
        clip: float | None = None,
    ):
        if bucket_size is not None and bucket_size < 1:
            raise ValueError(
                f"bucket_size must be >= 1, got {bucket_size}"
            )
        if clip is not None and clip <= 0:
            raise ValueError(f"clip factor must be > 0, got {clip}")
        self.bucket_size = bucket_size
        self.clip = clip
        self.name = "terngrad"
        self.nominal_bits = float(_CODE_BITS)

    def effective_bucket(self, count: int) -> int:
        """Bucket size actually used for a ``count``-element tensor.

        ``bucket_size=None`` scales the whole tensor with one factor,
        as the paper does; a finite size is capped at the tensor size
        like QSGD's buckets.
        """
        if self.bucket_size is None:
            return max(1, count)
        return max(1, min(self.bucket_size, count))

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
        rng = rng if rng is not None else np.random.default_rng()
        ws = workspace if workspace is not None else EncodeWorkspace()
        grad = np.asarray(grad)
        bucket_size = self.effective_bucket(grad.size)
        plan = bucket_plan(grad.size, bucket_size)
        lanes = (plan.n_buckets, bucket_size)

        buckets = ws.array("tern.buckets", lanes)
        to_buckets_into(grad, bucket_size, buckets)
        if self.clip is not None and grad.size:
            # clip to c * sigma of the *whole* tensor (the padding
            # zeros are excluded from the moment estimate)
            flat = buckets.reshape(-1)[: grad.size]
            sigma = float(np.std(flat.astype(np.float64)))
            if sigma > 0.0:
                np.clip(
                    buckets,
                    -self.clip * sigma,
                    self.clip * sigma,
                    out=buckets,
                )

        absval = ws.array("tern.abs", lanes)
        np.abs(buckets, out=absval)
        scales = ws.array("tern.scales", plan.n_buckets)
        absval.max(axis=1, initial=0.0, out=scales)

        # Bernoulli(|g| / s): normalize in place, zeroing empty buckets
        prob = ws.array("tern.prob", lanes)
        prob.fill(0.0)
        nonzero = ws.array("tern.nonzero", plan.n_buckets, bool)
        np.greater(scales, 0.0, out=nonzero)
        np.divide(
            absval, scales[:, None], out=prob, where=nonzero[:, None]
        )
        # caller-side draws: every backend sees the same RNG stream
        rand = ws.array("tern.rand", lanes, np.float64)
        rng.random(out=rand)
        fire = ws.array("tern.fire", lanes, bool)
        np.less(rand, prob, out=fire)

        # codes: 0 = zero, 1 = +s, 2 = -s (padding is zero -> code 0)
        codes = ws.array("tern.codes", plan.padded, np.uint32)
        plane = codes.reshape(lanes)
        negative = ws.array("tern.neg", lanes, bool)
        np.signbit(buckets, out=negative)
        minus = ws.array("tern.minus", lanes, bool)
        np.logical_and(fire, negative, out=minus)
        plane.fill(0)
        np.add(plane, 1, out=plane, where=fire)
        np.add(plane, 1, out=plane, where=minus)

        words = ws.array(
            "tern.words",
            bitpack.packed_words(plan.padded, _CODE_BITS),
            np.uint32,
        )
        bitpack.pack_into(codes, _CODE_BITS, words, workspace=ws, check=False)
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={"scales": scales, "words": words},
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
        # accumulate in the contiguous bucket layout, un-bucket once
        return BucketSumDecoder(self, shape, workspace)

    def _decode_values(
        self,
        message: EncodedTensor,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Decoded bucket matrix, before the bucket-order permutation."""
        ws = workspace if workspace is not None else EncodeWorkspace()
        bucket_size = int(message.meta["bucket_size"])
        scales = np.asarray(message.payload["scales"], dtype=np.float32)
        lanes = (scales.shape[0], bucket_size)
        count = lanes[0] * lanes[1]
        words = np.ascontiguousarray(
            message.payload["words"], dtype=np.uint32
        )
        expected = bitpack.packed_words(count, _CODE_BITS)
        if words.ndim != 1 or words.size != expected:
            raise ValueError(
                f"expected {expected} packed words for bucket geometry "
                f"{lanes}, got shape {words.shape}"
            )
        codes = bitpack.unpack_into(words, count, _CODE_BITS, workspace=ws)
        values = ws.array("tern.dec.values", lanes)
        np.take(_TERN_LUT, codes.reshape(lanes), out=values)
        values *= scales[:, None]
        return values

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from .base import MESSAGE_HEADER_BYTES

        buckets = self.group_count(shape)
        bucket_size = self.effective_bucket(math.prod(shape))
        code_words = bitpack.packed_words(
            buckets * bucket_size, _CODE_BITS
        )
        return MESSAGE_HEADER_BYTES + 4 * buckets + 4 * code_words
