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

from . import kernels
from .bucketed import BucketedCodec

__all__ = ["Qsgd", "DEFAULT_BUCKET_SIZES"]

#: bucket sizes tuned for accuracy in the paper (Section 4.4)
DEFAULT_BUCKET_SIZES = {2: 128, 4: 512, 8: 512, 16: 8192}

_VARIANTS = ("sign", "grid")
_NORMS = ("inf", "l2")


class Qsgd(BucketedCodec):
    """Stochastic uniform quantization with per-bucket scaling.

    The level rule is the compiled QSGD kernels: quantize fused with
    the pack on encode, unpack fused with the dequantize (and the
    accumulate) on decode.
    """

    tag = "qsgd"
    meta_keys = ("bits", "bucket_size", "variant")

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
            bucket_size if bucket_size is not None
            else DEFAULT_BUCKET_SIZES.get(bits, 512)
        )
        if self.bucket_size < 1:
            raise ValueError(
                f"bucket_size must be >= 1, got {self.bucket_size}"
            )
        self.norm = norm
        self.variant = variant
        self.name = f"qsgd{bits}"
        self.nominal_bits = float(bits)

    def _quantize(self, buckets, scales, levels, rand, words, ws, abs_buckets):
        kern = kernels.active()
        if self.variant == "sign":
            kern.quantize_sign_packed(
                buckets, scales, self.bits, rand, words, ws, abs_buckets
            )
        else:
            kern.quantize_grid_packed(
                buckets, scales, self.bits, rand, words, ws
            )

    def _dequantize(self, message, bits, scales, words, out, accumulate, ws):
        kern = kernels.active()
        if message.meta["variant"] == "sign":
            return kern.dequantize_sign_packed(
                words, scales, bits, out, accumulate, ws
            )
        return kern.dequantize_grid_packed(
            words, scales, bits, out, accumulate, ws
        )
