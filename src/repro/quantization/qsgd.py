"""QSGD stochastic quantization (Alistarh et al., NIPS 2017; Section 2.3).

Values are stochastically rounded to a small set of levels so that the
quantizer is *unbiased* — ``E[Q(v)] = v`` — which is what guarantees
SGD convergence without error feedback.  Two level layouts from the
paper's artefact (Section 3.2.2) are provided:

``sign``
    One bit stores the sign; the remaining ``bits - 1`` bits address
    ``s = 2**(bits-1) - 1`` uniformly spaced magnitude levels in
    ``[0, scale]`` (level 0 encodes an exact zero).  This is the layout
    of the original QSGD paper.

``grid``
    The interval ``[-scale, scale]`` is divided into ``2**bits - 1``
    equal intervals whose ``2**bits`` endpoints are the levels.

Scaling per bucket is either the 2-norm (sparse-friendly, the original
paper's choice) or the infinity norm (lower variance; the paper found
it more accurate and uses it by default).  Bucketing bounds the
variance added per scale factor: the paper's tuned bucket sizes are
128 (2-bit), 512 (4- and 8-bit) and 8192 (16-bit).
"""

from __future__ import annotations

import math

import numpy as np

from . import bitpack, kernels
from .base import BucketSumDecoder, EncodedTensor, Quantizer, SumDecoder
from .bucketing import bucket_plan, from_buckets_into, to_buckets_into
from .workspace import EncodeWorkspace

__all__ = ["Qsgd", "DEFAULT_BUCKET_SIZES"]

#: bucket sizes tuned for accuracy in the paper (Section 4.4)
DEFAULT_BUCKET_SIZES = {2: 128, 4: 512, 8: 512, 16: 8192}

_VARIANTS = ("sign", "grid")
_NORMS = ("inf", "l2")


def _default_bucket_size(bits: int) -> int:
    return DEFAULT_BUCKET_SIZES.get(bits, 512)


class Qsgd(Quantizer):
    """Stochastic uniform quantization with per-bucket scaling."""

    requires_error_feedback = False

    def __init__(
        self,
        bits: int,
        bucket_size: int | None = None,
        norm: str = "inf",
        variant: str = "sign",
    ):
        if not 2 <= bits <= 16:
            raise ValueError(f"QSGD bits must be in [2, 16], got {bits}")
        if norm not in _NORMS:
            raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
        if variant not in _VARIANTS:
            raise ValueError(
                f"variant must be one of {_VARIANTS}, got {variant!r}"
            )
        self.bits = bits
        self.bucket_size = (
            bucket_size if bucket_size is not None else _default_bucket_size(bits)
        )
        if self.bucket_size < 1:
            raise ValueError(
                f"bucket_size must be >= 1, got {self.bucket_size}"
            )
        self.norm = norm
        self.variant = variant
        self.name = f"qsgd{bits}"
        self.nominal_bits = float(bits)

    def effective_bucket(self, count: int) -> int:
        """Bucket size actually used for a ``count``-element tensor.

        Capped at the tensor size so that small matrices form a single
        bucket instead of being padded out to the nominal size (CNTK
        reshapes the matrix, it never pads beyond it).
        """
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
        kern = kernels.active()

        buckets = ws.array("qsgd.buckets", lanes)
        to_buckets_into(grad, bucket_size, buckets)
        scales = ws.array("qsgd.scales", plan.n_buckets)
        if self.norm == "inf":
            abs_buckets = kern.absmax_scales(buckets, scales, ws)
        else:
            # l2 scales are computed with numpy under *every* backend:
            # the pairwise summation order of the axis-1 reduce is part
            # of the reference bit pattern, so it is not re-implemented
            # in the compiled kernels (see kernels._numpy)
            work = ws.array("qsgd.work", lanes)
            np.square(buckets, out=work)
            work.sum(axis=1, out=scales)
            np.sqrt(scales, out=scales)
            abs_buckets = None

        # the stochastic-rounding draws are made here, with the run's
        # generator, and passed into the kernel: every backend consumes
        # the identical RNG stream, which is what makes trajectories
        # backend-independent
        rand = ws.array("qsgd.rand", lanes, np.float64)
        rng.random(out=rand)
        # fused quantize+pack: the code plane is wire-intermediate only,
        # so codes are emitted straight into the packed words without a
        # round trip through a full uint32 scratch plane
        words = ws.array(
            "qsgd.words", bitpack.packed_words(plan.padded, self.bits),
            np.uint32,
        )
        if self.variant == "sign":
            kern.quantize_sign_packed(
                buckets, scales, self.bits, rand, words, ws, abs_buckets
            )
        else:
            kern.quantize_grid_packed(
                buckets, scales, self.bits, rand, words, ws
            )
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={"scales": scales, "words": words},
            meta={
                "bits": self.bits,
                "bucket_size": bucket_size,
                "variant": self.variant,
            },
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
        bits, variant, scales, lanes = self._decode_meta(message)
        words = self._check_words(message.payload["words"], lanes, bits)
        values = ws.array("qsgd.dec.values", lanes)
        kern = kernels.active()
        if variant == "sign":
            kern.dequantize_sign_packed(words, scales, bits, values, False, ws)
        else:
            kern.dequantize_grid_packed(words, scales, bits, values, False, ws)
        return values

    def _decode_acc_into(
        self,
        message: EncodedTensor,
        acc: np.ndarray | None,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Fused decode-accumulate into the bucket-layout accumulator.

        Called by :class:`~repro.quantization.base.BucketSumDecoder`:
        decoded values are added straight into ``acc`` (allocated zeroed
        when ``None``) without materializing the decoded tensor, saving
        one full pass over the bucket matrix per peer.  Bit-identical to
        ``acc += _decode_values(message)`` — same operands, same order.
        """
        ws = workspace if workspace is not None else EncodeWorkspace()
        bits, variant, scales, lanes = self._decode_meta(message)
        if acc is None:
            acc = (
                ws.zeros("sumdec.bucket_acc", lanes)
                if workspace is not None
                else np.zeros(lanes, dtype=np.float32)
            )
        elif acc.shape != lanes:
            raise ValueError(
                f"accumulator shape {acc.shape} does not match the "
                f"message bucket geometry {lanes}"
            )
        words = self._check_words(message.payload["words"], lanes, bits)
        kern = kernels.active()
        if variant == "sign":
            kern.dequantize_sign_packed(words, scales, bits, acc, True, ws)
        else:
            kern.dequantize_grid_packed(words, scales, bits, acc, True, ws)
        return acc

    @staticmethod
    def _decode_meta(
        message: EncodedTensor,
    ) -> tuple[int, str, np.ndarray, tuple[int, int]]:
        """Parse the wire metadata shared by the decode paths."""
        bits = int(message.meta["bits"])
        bucket_size = int(message.meta["bucket_size"])
        variant = str(message.meta["variant"])
        scales = np.asarray(message.payload["scales"], dtype=np.float32)
        return bits, variant, scales, (scales.shape[0], bucket_size)

    @staticmethod
    def _check_words(
        words: np.ndarray, lanes: tuple[int, int], bits: int
    ) -> np.ndarray:
        """Validate the packed payload against the bucket geometry.

        The fused unpack+dequantize kernels index ``words`` by geometry
        instead of going through :func:`bitpack.unpack_into`, so its
        size check moves here.
        """
        words = np.ascontiguousarray(words, dtype=np.uint32)
        expected = bitpack.packed_words(lanes[0] * lanes[1], bits)
        if words.ndim != 1 or words.size != expected:
            raise ValueError(
                f"expected {expected} packed words for bucket geometry "
                f"{lanes} at {bits} bits, got shape {words.shape}"
            )
        return words

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from .base import MESSAGE_HEADER_BYTES

        buckets = self.group_count(shape)
        bucket_size = self.effective_bucket(math.prod(shape))
        code_words = bitpack.packed_words(buckets * bucket_size, self.bits)
        return MESSAGE_HEADER_BYTES + 4 * buckets + 4 * code_words
