"""Pure-numpy reference kernel backend.

This module *is* the specification: every other backend must reproduce
its output byte-for-byte, including float32 rounding and signed zeros.
The implementations are the vectorized op sequences that previously
lived inline in :mod:`repro.quantization.bitpack`,
:mod:`repro.quantization.qsgd` and :mod:`repro.quantization.onebit`;
moving them here (unchanged) lets the compiled backends be validated
against a single reference.

Two arithmetic-order rules every port must follow:

* Each numpy ufunc call is one float32 rounding step.  A port must
  perform the same steps in the same order — e.g. the sign-variant
  decode is ``((1 - 2*signbit) * level) / s * scale``, three separate
  roundings, never a fused multiply-add.
* Stochastic rounding compares the float64 uniform draw against the
  float32 probability promoted to float64 (numpy's ``rand < prob``).
  The draws are always passed in by the caller, never generated here,
  so all backends consume the RNG stream identically.

l2-norm bucket scales are deliberately *not* part of the backend
interface: numpy's pairwise summation order is part of the reference
bit pattern, so :mod:`repro.quantization.bucketed` computes l2 scales with
numpy for every backend.  The infinity norm is order-independent and
is implemented by each backend.  The 1bitSGD means are the exception:
the C backend reproduces numpy's float32 pairwise row sum (see the
header of ``_kernels.c``), pinned against numpy's own reduction by
``tests/quantization/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

name = "numpy"

_WORD_BITS = 32
_DIVISORS_OF_32 = (1, 2, 4, 8, 16, 32)
#: slot width -> codes per 32-bit word
_LANES_FOR_SLOT = {slot: _WORD_BITS // slot for slot in _DIVISORS_OF_32}
#: slot width -> uint32 shift table for the lanes of one word
_SHIFTS_FOR_SLOT = {
    slot: (np.arange(_WORD_BITS // slot, dtype=np.uint32) * slot).astype(
        np.uint32
    )
    for slot in _DIVISORS_OF_32
}
#: slot width -> lane mask
_MASK_FOR_SLOT = {
    slot: np.uint32((1 << slot) - 1) if slot < 32 else np.uint32(0xFFFFFFFF)
    for slot in _DIVISORS_OF_32
}
#: code width (1..32) -> storage slot width; index 0 is a sentinel
_SLOT_FOR_WIDTH = (0,) + tuple(
    next(d for d in _DIVISORS_OF_32 if d >= w) for w in range(1, 33)
)


def _scratch(ws, tag, shape, dtype=np.float32):
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.array(tag, shape, dtype)


# -- bucket permutation -------------------------------------------------


def bucketize(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """F-order flatten of ``grad`` into the padded flat buffer ``out``.

    ``out`` is the C-contiguous float32 backing of the
    ``(n_buckets, bucket_size)`` bucket matrix; the tail past
    ``grad.size`` is zeroed (zeros quantize to zero under every scheme,
    so padding never perturbs the reconstruction).
    """
    n = grad.size
    flat = out.reshape(-1)
    if n:
        flat[:n].reshape(grad.shape[::-1])[...] = grad.T
    flat[n:] = 0.0
    return out


def unbucketize(
    buckets: np.ndarray,
    shape: tuple[int, ...],
    out: np.ndarray,
    accumulate: bool = False,
) -> np.ndarray:
    """Inverse permutation: bucket layout back to ``shape``, into ``out``."""
    n = int(np.prod(shape)) if shape else 1
    # same elements as writing `buckets` into `out.T`, but oriented so
    # the contiguous operand is the destination (strided reads are
    # roughly 2x cheaper than strided read-modify-writes)
    src = buckets.reshape(-1)[:n].reshape(shape[::-1]).T
    if accumulate:
        np.add(out, src, out=out)
    else:
        out[...] = src
    return out


# -- per-bucket infinity norm ------------------------------------------


def absmax_scales(buckets: np.ndarray, scales: np.ndarray, ws) -> np.ndarray | None:
    """``scales[b] = max |buckets[b, :]|``.

    Returns the ``|buckets|`` scratch when the backend materializes one
    (the sign-variant quantizer reuses it), else ``None``.
    """
    work = _scratch(ws, "qsgd.work", buckets.shape)
    np.abs(buckets, out=work)
    work.max(axis=1, out=scales)
    return work


# -- QSGD stochastic quantization --------------------------------------


def _safe_scales(scales: np.ndarray, ws) -> np.ndarray:
    """``where(scales > 0, scales, 1.0)`` without temporaries."""
    positive = _scratch(ws, "qsgd.posmask", scales.shape, bool)
    np.greater(scales, 0.0, out=positive)
    safe = _scratch(ws, "qsgd.safe", scales.shape)
    safe.fill(1.0)
    np.copyto(safe, scales, where=positive)
    return safe


def quantize_sign(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    codes: np.ndarray,
    ws,
    abs_buckets: np.ndarray | None = None,
) -> np.ndarray:
    """Sign-variant QSGD codes: ``(level << 1) | signbit`` per element."""
    s = (1 << (bits - 1)) - 1
    lanes = buckets.shape
    safe = _safe_scales(scales, ws)
    # ratio = clip(|buckets| / safe, 0, 1) * s, computed in place; fmax
    # sends a NaN ratio (a NaN element, or inf/inf) to level 0
    if abs_buckets is not None:
        ratio = abs_buckets  # caller already materialized |buckets|
    else:
        ratio = _scratch(ws, "qsgd.ratio", lanes)
        np.abs(buckets, out=ratio)
    np.divide(ratio, safe[:, None], out=ratio)
    np.fmax(ratio, 0.0, out=ratio)
    np.minimum(ratio, 1.0, out=ratio)
    np.multiply(ratio, s, out=ratio)
    low = _scratch(ws, "qsgd.low", lanes)
    np.floor(ratio, out=low)
    prob = ratio  # ratio is dead after this: reuse as prob buffer
    np.subtract(ratio, low, out=prob)
    rounded = _scratch(ws, "qsgd.round", lanes, bool)
    np.less(rand, prob, out=rounded)
    level = low
    np.add(low, rounded, out=level)
    np.minimum(level, s, out=level)
    codes[...] = level
    negative = rounded  # bool scratch, reused
    np.less(buckets, 0.0, out=negative)
    np.left_shift(codes, 1, out=codes)
    np.bitwise_or(codes, negative, out=codes)
    zero = _scratch(ws, "qsgd.zeromask", scales.shape, bool)
    np.equal(scales, 0.0, out=zero)
    codes[zero, :] = 0
    return codes


def quantize_grid(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    codes: np.ndarray,
    ws,
) -> np.ndarray:
    """Grid-variant QSGD codes indexing the endpoints of [-scale, scale]."""
    n_levels = 1 << bits
    lanes = buckets.shape
    step = _scratch(ws, "qsgd.step", scales.shape)
    np.multiply(2.0, scales, out=step)
    np.divide(step, n_levels - 1, out=step)
    positive = _scratch(ws, "qsgd.posmask", scales.shape, bool)
    np.greater(step, 0.0, out=positive)
    safe_step = _scratch(ws, "qsgd.safe", scales.shape)
    safe_step.fill(1.0)
    np.copyto(safe_step, step, where=positive)
    position = _scratch(ws, "qsgd.ratio", lanes)
    np.add(buckets, scales[:, None], out=position)
    np.divide(position, safe_step[:, None], out=position)
    # a position below zero (l2 scaling) codes 0 either way; fmax also
    # sends NaN there
    np.fmax(position, 0.0, out=position)
    low = _scratch(ws, "qsgd.low", lanes)
    np.floor(position, out=low)
    prob = position
    np.subtract(position, low, out=prob)
    rounded = _scratch(ws, "qsgd.round", lanes, bool)
    np.less(rand, prob, out=rounded)
    index = low
    np.add(low, rounded, out=index)
    np.clip(index, 0, n_levels - 1, out=index)
    codes[...] = index
    zero = _scratch(ws, "qsgd.zeromask", scales.shape, bool)
    np.equal(scales, 0.0, out=zero)
    codes[zero, :] = 0
    return codes


# -- bit packing --------------------------------------------------------


def pack(codes: np.ndarray, slot: int, out: np.ndarray, ws) -> np.ndarray:
    """Pack in-range codes into uint32 words (little-endian lanes)."""
    per_word = _LANES_FOR_SLOT[slot]
    n_words = out.shape[0]
    if codes.size == n_words * per_word and codes.dtype == np.uint32:
        # transposed lane layout: each lane's shift writes a contiguous
        # row, and the OR-reduce runs down axis 0 over long contiguous
        # rows, which NumPy vectorizes (~3x faster than the axis-1
        # reduce over per-word groups).  OR is commutative, so the
        # packed words are bit-identical either way.
        lanes = _scratch(ws, "bitpack.packT", (per_word, n_words), np.uint32)
        np.left_shift(
            codes.reshape(n_words, per_word).T,
            _SHIFTS_FOR_SLOT[slot][:, None],
            out=lanes,
        )
        np.bitwise_or.reduce(lanes, axis=0, out=out)
        return out
    lanes = _scratch(ws, "bitpack.pack", (n_words, per_word), np.uint32)
    flat = lanes.reshape(-1)
    flat[: codes.size] = codes
    flat[codes.size:] = 0
    np.left_shift(lanes, _SHIFTS_FOR_SLOT[slot], out=lanes)
    np.bitwise_or.reduce(lanes, axis=1, out=out)
    return out


def unpack(
    words: np.ndarray,
    count: int,
    slot: int,
    ws,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unpack ``count`` codes; returns ``out`` or a lane-scratch view."""
    per_word = _LANES_FOR_SLOT[slot]
    lanes = _scratch(ws, "bitpack.unpack", (words.size, per_word), np.uint32)
    np.right_shift(words[:, None], _SHIFTS_FOR_SLOT[slot], out=lanes)
    np.bitwise_and(lanes, _MASK_FOR_SLOT[slot], out=lanes)
    view = lanes.reshape(-1)[:count]
    if out is None:
        return view
    out[...] = view
    return out


# -- fused quantize+pack / unpack+dequantize ---------------------------
#
# The QSGD code plane never reaches the wire: the encoder packs it
# immediately and the decoder unpacks it immediately.  The fused entry
# points let compiled backends skip materializing it; the reference
# *defines* them as the composition of the unfused kernels above, so
# "fused == composed" is the bit-identity contract, not an
# approximation.


def quantize_sign_packed(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    words: np.ndarray,
    ws,
    abs_buckets: np.ndarray | None = None,
) -> np.ndarray:
    """Sign-variant codes packed straight into ``words``."""
    codes = _scratch(ws, "qsgd.codes", buckets.shape, np.uint32)
    quantize_sign(buckets, scales, bits, rand, codes, ws, abs_buckets)
    return pack(codes.reshape(-1), _SLOT_FOR_WIDTH[bits], words, ws)


def quantize_grid_packed(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    words: np.ndarray,
    ws,
) -> np.ndarray:
    """Grid-variant codes packed straight into ``words``."""
    codes = _scratch(ws, "qsgd.codes", buckets.shape, np.uint32)
    quantize_grid(buckets, scales, bits, rand, codes, ws)
    return pack(codes.reshape(-1), _SLOT_FOR_WIDTH[bits], words, ws)


def dequantize_sign_packed(
    words: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    """Sign-variant decode of packed ``words`` into the bucket matrix."""
    codes = unpack(words, out.size, _SLOT_FOR_WIDTH[bits], ws)
    return dequantize_sign(
        codes.reshape(out.shape), scales, bits, out, accumulate, ws
    )


def dequantize_grid_packed(
    words: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    """Grid-variant decode of packed ``words`` into the bucket matrix."""
    codes = unpack(words, out.size, _SLOT_FOR_WIDTH[bits], ws)
    return dequantize_grid(
        codes.reshape(out.shape), scales, bits, out, accumulate, ws
    )


# -- QSGD decode (optionally fused with accumulation) -------------------


def dequantize_sign(
    codes: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    """``((1 - 2*signbit) * level) / s * scale`` per element, into ``out``."""
    s = (1 << (bits - 1)) - 1
    lanes = codes.shape
    values = _scratch(ws, "qsgd.dec.values", lanes) if accumulate else out
    ints = _scratch(ws, "qsgd.dec.ints", lanes, np.uint32)
    level = _scratch(ws, "qsgd.dec.level", lanes)
    np.right_shift(codes, 1, out=ints)
    level[...] = ints
    np.bitwise_and(codes, 1, out=ints)
    values[...] = ints
    # sign = 1 - 2 * signbit; buckets = sign * level / s * scale
    np.multiply(2.0, values, out=values)
    np.subtract(1.0, values, out=values)
    np.multiply(values, level, out=values)
    np.divide(values, s, out=values)
    np.multiply(values, scales[:, None], out=values)
    if accumulate:
        np.add(out, values, out=out)
    return out


def dequantize_grid(
    codes: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    """``code * step - scale`` per element (zero buckets decode to +0)."""
    n_levels = 1 << bits
    lanes = codes.shape
    values = _scratch(ws, "qsgd.dec.values", lanes) if accumulate else out
    step = _scratch(ws, "qsgd.dec.step", scales.shape)
    np.multiply(2.0, scales, out=step)
    np.divide(step, n_levels - 1, out=step)
    values[...] = codes
    np.multiply(values, step[:, None], out=values)
    np.subtract(values, scales[:, None], out=values)
    zero = _scratch(ws, "qsgd.dec.zeromask", scales.shape, bool)
    np.equal(scales, 0.0, out=zero)
    values[zero, :] = 0.0
    if accumulate:
        np.add(out, values, out=out)
    return out


# -- 1bitSGD: sign bits + pos/neg means, and their decode ---------------
#
# The op sequence below is the one `onebit.py` ran inline; the caller
# owns the message layout and passes the three output arrays in.  Each
# group's sign bits occupy a whole number of 32-bit words, so the bit
# plane is padded to ``padded_len`` lanes per group before packing.


def _masked_row_means(groups, select, means, ws, tag):
    """``means[g]`` = mean of ``groups[g]`` over ``select`` (0 if empty)."""
    n_groups = groups.shape[0]
    masked = _scratch(ws, "1bit.masked", groups.shape)
    masked.fill(0.0)
    np.copyto(masked, groups, where=select)
    sums = _scratch(ws, f"1bit.{tag}.sum", n_groups)
    masked.sum(axis=1, out=sums)
    counts = _scratch(ws, f"1bit.{tag}.count", n_groups, np.int64)
    select.sum(axis=1, out=counts)
    nonempty = _scratch(ws, f"1bit.{tag}.nonempty", n_groups, bool)
    np.greater(counts, 0, out=nonempty)
    means.fill(0.0)
    np.divide(sums, counts, out=means, where=nonempty)
    return means


def onebit_encode(groups, valid_count, avg_pos, avg_neg, words, ws):
    """1bitSGD encode of the ``(n_groups, group_len)`` view ``groups``.

    Fills ``avg_pos`` / ``avg_neg`` (per-group means of the entries
    ``>= 0`` and ``< 0``) and ``words`` (one sign bit per entry, set for
    ``>= 0``, group-major).  Only the first ``valid_count`` entries in
    row-major order count towards the means (``None``: all of them).
    """
    n_groups, group_len = groups.shape
    positive = _scratch(ws, "1bit.positive", groups.shape, bool)
    np.greater_equal(groups, 0.0, out=positive)
    full = valid_count is None or valid_count >= n_groups * group_len
    if full:
        pos_valid = positive
        neg_valid = _scratch(ws, "1bit.negvalid", groups.shape, bool)
        np.logical_not(positive, out=neg_valid)
    else:
        # zero-padded bucket matrix: exclude padding from the averages
        valid = _scratch(ws, "1bit.valid", groups.shape, bool)
        vflat = valid.reshape(-1)
        vflat[:valid_count] = True
        vflat[valid_count:] = False
        pos_valid = _scratch(ws, "1bit.posvalid", groups.shape, bool)
        np.logical_and(positive, valid, out=pos_valid)
        neg_valid = _scratch(ws, "1bit.negvalid", groups.shape, bool)
        np.logical_not(positive, out=neg_valid)
        np.logical_and(neg_valid, valid, out=neg_valid)
    _masked_row_means(groups, pos_valid, avg_pos, ws, "pos")
    _masked_row_means(groups, neg_valid, avg_neg, ws, "neg")

    padded_len = -(-group_len // _WORD_BITS) * _WORD_BITS
    padded = _scratch(ws, "1bit.padded", (n_groups, padded_len), np.uint32)
    padded[:, :group_len] = positive
    padded[:, group_len:] = 0
    return pack(padded.reshape(-1), 1, words, ws)


def onebit_decode(avg_pos, avg_neg, words, out, accumulate, ws):
    """``bit ? avg_pos : avg_neg`` per entry into the ``(n_groups,
    group_len)`` view ``out``; with ``accumulate``, added to it."""
    n_groups, group_len = out.shape
    padded_len = -(-group_len // _WORD_BITS) * _WORD_BITS
    bits = unpack(words, n_groups * padded_len, 1, ws)
    sign_bits = bits.reshape(n_groups, padded_len)[:, :group_len]
    positive = _scratch(ws, "1bit.dec.positive", out.shape, bool)
    np.not_equal(sign_bits, 0, out=positive)
    values = _scratch(ws, "1bit.dec.values", out.shape) if accumulate else out
    values[...] = avg_neg[:, None]
    np.copyto(values, np.broadcast_to(avg_pos[:, None], values.shape),
              where=positive)
    if accumulate:
        np.add(out, values, out=out)
    return out
