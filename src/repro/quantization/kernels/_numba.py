"""Numba backend: the ``_impls`` loop kernels under ``@njit(cache=True)``.

Importing this module requires numba; the registry treats an
ImportError here as "backend unavailable" and falls through.  The jit
is applied lazily per function signature on first call and cached on
disk (``cache=True``), so repeat runs skip compilation.

``fastmath`` stays off (the default): LLVM would otherwise be free to
contract multiplies and adds into FMAs and reassociate reductions,
both of which break bit-identity with the numpy reference.  See
``_impls`` for the float32 arithmetic contract the loops encode.

Like the C backend, inputs the loop kernels cannot handle fall back to
the numpy reference, which is bit-identical by definition.
"""

from __future__ import annotations

import numba
import numpy as np

from . import _impls, _numpy

name = "numba"

_jit = numba.njit(cache=True)

_transpose = _jit(_impls.transpose_f32)
_untranspose = _jit(_impls.untranspose_f32)
_absmax = _jit(_impls.absmax_rows)
_quant_sign = _jit(_impls.quant_sign)
_quant_grid = _jit(_impls.quant_grid)
_pack = _jit(_impls.pack_words)
_unpack = _jit(_impls.unpack_words)
_dequant_sign = _jit(_impls.dequant_sign)
_dequant_grid = _jit(_impls.dequant_grid)


def _f32c(a: np.ndarray) -> bool:
    return a.dtype == np.float32 and a.flags.c_contiguous


def bucketize(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    n = grad.size
    if grad.ndim == 2 and n and _f32c(grad):
        flat = out.reshape(-1)
        _transpose(grad, flat[:n])
        flat[n:] = 0.0
        return out
    return _numpy.bucketize(grad, out)


def unbucketize(
    buckets: np.ndarray,
    shape: tuple[int, ...],
    out: np.ndarray,
    accumulate: bool = False,
) -> np.ndarray:
    n = int(np.prod(shape)) if shape else 1
    if (
        not accumulate
        and len(shape) == 2
        and n
        and _f32c(out)
        and out.shape == tuple(shape)
        and _f32c(buckets)
    ):
        _untranspose(buckets.reshape(-1)[:n], out)
        return out
    return _numpy.unbucketize(buckets, shape, out, accumulate)


def absmax_scales(buckets: np.ndarray, scales: np.ndarray, ws) -> np.ndarray | None:
    if _f32c(buckets) and _f32c(scales):
        _absmax(buckets, scales)
        return None
    return _numpy.absmax_scales(buckets, scales, ws)


def quantize_sign(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    codes: np.ndarray,
    ws,
    abs_buckets: np.ndarray | None = None,
) -> np.ndarray:
    if _f32c(buckets) and rand.flags.c_contiguous and codes.flags.c_contiguous:
        _quant_sign(buckets, scales, bits, rand, codes)
        return codes
    return _numpy.quantize_sign(
        buckets, scales, bits, rand, codes, ws, abs_buckets
    )


def quantize_grid(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    codes: np.ndarray,
    ws,
) -> np.ndarray:
    if _f32c(buckets) and rand.flags.c_contiguous and codes.flags.c_contiguous:
        _quant_grid(buckets, scales, bits, rand, codes)
        return codes
    return _numpy.quantize_grid(buckets, scales, bits, rand, codes, ws)


def pack(codes: np.ndarray, slot: int, out: np.ndarray, ws) -> np.ndarray:
    if codes.dtype == np.uint32 and codes.flags.c_contiguous:
        _pack(codes, codes.size, slot, out, out.shape[0])
        return out
    return _numpy.pack(codes, slot, out, ws)


def unpack(
    words: np.ndarray,
    count: int,
    slot: int,
    ws,
    out: np.ndarray | None = None,
) -> np.ndarray:
    per_word = 32 // slot
    if ws is None:
        lanes = np.empty((words.size, per_word), dtype=np.uint32)
    else:
        lanes = ws.array("bitpack.unpack", (words.size, per_word), np.uint32)
    _unpack(words, words.size, slot, lanes.reshape(-1))
    view = lanes.reshape(-1)[:count]
    if out is None:
        return view
    out[...] = view
    return out


# -- fused quantize+pack / unpack+dequantize ---------------------------
#
# Composed from this backend's own loop kernels through the workspace
# code-plane scratch: the jitted loops already avoid numpy temporaries,
# so a dedicated fused loop would only save the (cached) scratch pass.
# Composition keeps the numba surface identical to the other backends
# without adding untestable jit code paths.


def _codes_scratch(ws, shape):
    if ws is None:
        return np.empty(shape, dtype=np.uint32)
    return ws.array("qsgd.codes", shape, np.uint32)


def quantize_sign_packed(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    words: np.ndarray,
    ws,
    abs_buckets: np.ndarray | None = None,
) -> np.ndarray:
    codes = _codes_scratch(ws, buckets.shape)
    quantize_sign(buckets, scales, bits, rand, codes, ws, abs_buckets)
    return pack(codes.reshape(-1), _numpy._SLOT_FOR_WIDTH[bits], words, ws)


def quantize_grid_packed(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    words: np.ndarray,
    ws,
) -> np.ndarray:
    codes = _codes_scratch(ws, buckets.shape)
    quantize_grid(buckets, scales, bits, rand, codes, ws)
    return pack(codes.reshape(-1), _numpy._SLOT_FOR_WIDTH[bits], words, ws)


def dequantize_sign_packed(
    words: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    codes = unpack(words, out.size, _numpy._SLOT_FOR_WIDTH[bits], ws)
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
    codes = unpack(words, out.size, _numpy._SLOT_FOR_WIDTH[bits], ws)
    return dequantize_grid(
        codes.reshape(out.shape), scales, bits, out, accumulate, ws
    )


# 1bitSGD has no loop kernel here: both entry points are the reference
onebit_encode = _numpy.onebit_encode
onebit_decode = _numpy.onebit_decode


def dequantize_sign(
    codes: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    if codes.flags.c_contiguous and _f32c(out):
        _dequant_sign(codes, scales, bits, out, accumulate)
        return out
    return _numpy.dequantize_sign(codes, scales, bits, out, accumulate, ws)


def dequantize_grid(
    codes: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    if codes.flags.c_contiguous and _f32c(out):
        _dequant_grid(codes, scales, bits, out, accumulate)
        return out
    return _numpy.dequantize_grid(codes, scales, bits, out, accumulate, ws)
