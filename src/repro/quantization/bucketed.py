"""One skeleton for the bucketed codecs: QSGD, TernGrad, Dettmers-8, aqsgd.

The four schemes are one family.  QSGD (arXiv:1610.02132) rounds each
value stochastically onto uniform levels of a per-bucket scale;
TernGrad (arXiv:1705.07878) is its one-level, max-norm member with an
optional clipping pre-pass; Dettmers' dynamic tree (arXiv:1511.04561)
and the Lloyd-Max ``aqsgd<b>`` place their levels non-uniformly.
:class:`BucketedCodec` runs the shared pipeline once, and a scheme
declares four parts:

- a pre-pass (``clip``): none, or clipping to ``clip * sigma`` of the
  whole tensor;
- a scale rule (``norm``): ``"inf"`` (bucket absmax, a backend kernel)
  or ``"l2"`` (numpy's pairwise sum under every backend, because its
  summation order is part of the reference bit pattern);
- a level rule: :meth:`~BucketedCodec._quantize` writes the codes from
  the buckets, the scales and the uniform draws;
  :meth:`~BucketedCodec._dequantize` reads them back, by default
  through the code -> multiplier table :meth:`~BucketedCodec._lut`
  times the bucket scale;
- a code slot width (``bits``), packed little-endian into the uint32
  ``words`` section, or one byte per code in a ``codes`` section.

The skeleton owns the rest: the bucket plan, the workspace tags (one
dtype per tag, prefixed with the codec's ``tag``, so several codecs can
share one arena), the caller-side uniform draw, the message layout, the
one payload-vs-geometry check that every decode path runs, the
closed-form wire size and the fused :class:`BucketSumDecoder`.

The draw is one ``rng.random`` fill of a ``(n_buckets, bucket_size)``
float64 block per encode (every kernel backend consumes the identical
stream).  When it is the encode's only draw (:meth:`BucketedCodec.
draw_lanes`), an exchange may make it ahead, in the same order and size,
and pass the block in as ``uniforms``: the bits are the same, and
:class:`~repro.comm.base.GradientExchange` uses this to fill the next
rank's block on a helper thread while this rank encodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import bitpack, kernels
from .base import MESSAGE_HEADER_BYTES, EncodedTensor, Quantizer, SumDecoder
from .bucketing import bucket_count, bucket_plan, from_buckets_into, to_buckets_into
from .workspace import EncodeWorkspace

__all__ = ["BucketedCodec", "BucketSumDecoder"]


class BucketedCodec(Quantizer):
    """Bucket -> scale -> round onto levels -> pack, declared per scheme."""

    #: workspace tag prefix
    tag = "bucketed"
    #: code width in bits (the slot is the next divisor of 32)
    bits = 8
    #: payload section of the codes: packed uint32 ``"words"`` or one
    #: uint8 per code in ``"codes"``
    section = "words"
    #: scale rule: ``"inf"`` or ``"l2"``
    norm = "inf"
    #: pre-pass: clip to ``clip * sigma`` before scaling (``None``: off)
    clip: float | None = None
    #: whether the level rule consumes uniform draws
    stochastic = True
    #: whether each message ships its ``2**(bits-1)`` fitted magnitude
    #: levels (sign in the code's low bit), drawn by :meth:`_fit`
    fits_levels = False
    #: attribute names copied into the message meta, in order
    meta_keys: tuple[str, ...] = ("bucket_size",)
    bucket_size: int | None = None

    def effective_bucket(self, count: int, shape: tuple[int, ...] = ()) -> int:
        """Bucket size actually used for a ``count``-element tensor.

        ``bucket_size=None`` scales the whole tensor with one factor; a
        finite size is capped at the tensor size, so small matrices form
        one bucket instead of being padded out (CNTK reshapes the
        matrix, it never pads beyond it).
        """
        if self.bucket_size is None:
            return max(1, count)
        return max(1, min(self.bucket_size, count))

    def group_count(self, shape: tuple[int, ...]) -> int:
        count = math.prod(shape)
        return bucket_count(count, self.effective_bucket(count, shape))

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        # closed form: the fabric prices every chunk through this
        count = math.prod(shape)
        bucket_size = self.effective_bucket(count, shape)
        buckets = bucket_count(count, bucket_size)
        codes = buckets * bucket_size
        if self.section == "words":
            codes = 4 * bitpack.packed_words(codes, self.bits)
        levels = 4 << (self.bits - 1) if self.fits_levels else 0
        return MESSAGE_HEADER_BYTES + 4 * buckets + codes + levels

    def draw_lanes(self, shape: tuple[int, ...]) -> tuple[int, int] | None:
        # the level rule's uniforms are the encode's only draw unless
        # the levels are fitted (from the same generator) first
        size = self.effective_bucket(math.prod(shape), shape)
        drawn = self.stochastic and not self.fits_levels
        return (bucket_count(math.prod(shape), size), size) if drawn else None

    # -- encode ---------------------------------------------------------
    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
        uniforms: np.ndarray | None = None,
    ) -> EncodedTensor:
        """``uniforms``: this encode's block of :meth:`draw_lanes`
        uniforms, already drawn from ``rng`` (the exchange draws them
        ahead); ``None`` draws them here."""
        ws = workspace if workspace is not None else EncodeWorkspace()
        tag = self.tag
        grad = np.asarray(grad)
        bucket_size = self.effective_bucket(grad.size, grad.shape)
        plan = bucket_plan(grad.size, bucket_size)
        lanes = (plan.n_buckets, bucket_size)

        buckets = ws.array(f"{tag}.buckets", lanes)
        to_buckets_into(grad, bucket_size, buckets)
        if self.clip is not None and grad.size:
            # clip to c * sigma of the *whole* tensor (the padding
            # zeros are excluded from the moment estimate)
            flat = buckets.reshape(-1)[: grad.size]
            sigma = float(np.std(flat.astype(np.float64)))
            if sigma > 0.0:
                np.clip(
                    buckets, -self.clip * sigma, self.clip * sigma,
                    out=buckets,
                )
        scales = ws.array(f"{tag}.scales", plan.n_buckets)
        abs_buckets = self._scale(buckets, scales, ws)
        payload = {"scales": scales}
        if self.stochastic:
            rng = rng if rng is not None else np.random.default_rng()
            if self.fits_levels:
                payload["levels"] = self._fit(buckets, scales, rng, ws)
            # the stochastic-rounding draws are made with the run's
            # generator, outside the level rule: every backend consumes
            # the identical RNG stream, which is what makes trajectories
            # backend-independent
            if uniforms is None:
                uniforms = ws.array(f"{tag}.rand", lanes, np.float64)
                rng.random(out=uniforms)
        if self.section == "words":
            codes = ws.array(
                f"{tag}.words", bitpack.packed_words(plan.padded, self.bits),
                np.uint32,
            )
        else:
            codes = ws.array(f"{tag}.codes", plan.padded, np.uint8)
        self._quantize(
            buckets, scales, payload.get("levels"), uniforms, codes, ws,
            abs_buckets,
        )
        payload[self.section] = codes
        meta = {
            key: bucket_size if key == "bucket_size" else getattr(self, key)
            for key in self.meta_keys
        }
        return EncodedTensor(self.name, grad.shape, payload, meta)

    def _scale(self, buckets, scales, ws) -> np.ndarray | None:
        """Fill ``scales``; returns ``|buckets|`` when it was materialized."""
        if self.norm == "inf":
            return kernels.active().absmax_scales(buckets, scales, ws)
        work = ws.array(f"{self.tag}.work", buckets.shape)
        np.square(buckets, out=work)
        work.sum(axis=1, out=scales)
        np.sqrt(scales, out=scales)
        return None

    def _fit(self, buckets, scales, rng, ws) -> np.ndarray:
        """The message's magnitude levels (``fits_levels`` codecs only)."""
        raise NotImplementedError

    def _quantize(self, buckets, scales, levels, rand, codes, ws, abs_buckets):
        """Level rule, encode side: write the codes section ``codes``.

        ``rand`` holds one uniform draw per bucket lane (``None`` for a
        deterministic rule); ``abs_buckets`` is ``|buckets|`` when the
        scale rule materialized it, else ``None``.
        """
        raise NotImplementedError

    # -- decode ---------------------------------------------------------
    def _parse(self, message: EncodedTensor):
        """``(bits, scales, lanes, codes)``, the payload checked against
        its bucket geometry: the kernels index by geometry, so a short
        or mismatched section is named here instead of read past."""
        meta, payload = message.meta, message.payload
        bits = int(meta.get("bits", self.bits))
        scales = np.asarray(payload["scales"], dtype=np.float32)
        lanes = (scales.shape[0], int(meta["bucket_size"]))
        count = lanes[0] * lanes[1]
        if self.section == "words":
            codes = np.ascontiguousarray(payload["words"], dtype=np.uint32)
            expected, what = bitpack.packed_words(count, bits), "packed words"
        else:
            codes = np.ascontiguousarray(payload["codes"], dtype=np.uint8)
            expected, what = count, "byte codes"
        if codes.ndim != 1 or codes.size != expected:
            raise ValueError(
                f"expected {expected} {what} for bucket geometry {lanes} "
                f"at {bits} bits, got shape {codes.shape}"
            )
        if self.fits_levels:
            levels = np.shape(payload["levels"])
            if levels != (1 << (bits - 1),):
                raise ValueError(
                    f"expected {1 << (bits - 1)} levels for {bits}-bit "
                    f"codes, got shape {levels}"
                )
        return bits, scales, lanes, codes

    def _lut(self, message: EncodedTensor) -> np.ndarray:
        """Code -> multiplier of the bucket scale (default level rule)."""
        raise NotImplementedError

    def _dequantize(self, message, bits, scales, codes, out, accumulate, ws):
        """Level rule, decode side: bucket values into (or onto) ``out``."""
        if self.section == "words":
            codes = bitpack.unpack_into(codes, out.size, bits, workspace=ws)
        values = ws.array(f"{self.tag}.dec.values", out.shape) if accumulate else out
        np.take(self._lut(message), codes.reshape(out.shape), out=values)
        values *= scales[:, None]
        if accumulate:
            out += values
        return out

    def _decode_values(
        self,
        message: EncodedTensor,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Decoded bucket matrix, before the bucket-order permutation."""
        ws = workspace if workspace is not None else EncodeWorkspace()
        bits, scales, lanes, codes = self._parse(message)
        values = ws.array(f"{self.tag}.dec.values", lanes)
        return self._dequantize(message, bits, scales, codes, values, False, ws)

    def _decode_acc_into(
        self,
        message: EncodedTensor,
        acc: np.ndarray | None,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Decode-accumulate into the bucket-layout accumulator ``acc``
        (zeroed in the arena when ``None``), without materializing the
        decoded matrix when the level rule fuses the add.  Bit-identical
        to ``acc += _decode_values(message)``: same operands, same order.
        """
        ws = workspace if workspace is not None else EncodeWorkspace()
        bits, scales, lanes, codes = self._parse(message)
        if acc is None:
            acc = ws.zeros("sumdec.bucket_acc", lanes)
        elif acc.shape != lanes:
            raise ValueError(
                f"accumulator shape {acc.shape} does not match the "
                f"message bucket geometry {lanes}; all messages in one "
                f"exchange must share the same bucket layout"
            )
        return self._dequantize(message, bits, scales, codes, acc, True, ws)

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


class BucketSumDecoder(SumDecoder):
    """Sum decoder that accumulates in the bucket layout.

    Decoded bucket matrices are accumulated contiguously (a fast dense
    add, fused into the decode kernel where the level rule has one) and
    the bucket-to-gradient permutation runs once in :meth:`result`
    instead of once per rank.  A permutation is an elementwise
    bijection, so it commutes with the per-element sum:
    ``unbucket(sum_r values_r) == sum_r unbucket(values_r)`` exactly,
    bit for bit, because each element still accumulates the same
    float32 operands in the same order.
    """

    def _start(self) -> None:
        return None  # allocated on the first add: geometry comes from msg 0

    def add(self, message: EncodedTensor) -> None:
        self._acc = self.codec._decode_acc_into(
            message, self._acc, self.workspace
        )

    def result(self) -> np.ndarray:
        out = self.workspace.array("sumdec.out", self.shape)
        if self._acc is None:  # no messages were added
            out.fill(0.0)
            return out
        return from_buckets_into(self._acc, self.shape, out)
