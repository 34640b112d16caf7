"""C extension backend: ``_kernels.c`` compiled at import, via ctypes.

The shared object is built once per source+flags+machine fingerprint
and cached under ``$REPRO_KERNELS_CACHE`` (default
``~/.cache/repro-kernels``), so the compiler runs only on the first
import after a kernel change.  The build is atomic (compile to a
temporary file, ``os.replace`` into place) so concurrent worker
processes never load a half-written library.

``-ffp-contract=off`` is load-bearing: it forbids fusing the decode's
``acc += v * scale`` into an FMA, which would skip a float32 rounding
step and break bit-identity with the numpy reference.  See the header
comment in ``_kernels.c`` for the full arithmetic contract.

Arrays are passed as raw data pointers (``c_void_p``) rather than
through :func:`numpy.ctypeslib.ndpointer`: the ndpointer ``from_param``
validation costs a few microseconds per argument, which at ~140
array arguments per training step is real money.  The dtype and
contiguity checks it performed live in each wrapper's eligibility
guard instead, and pointers are cached per array object (the hot-path
arrays are long-lived workspace arena buffers, so the cache hits every
step).  The cache requires that arrays are never resized in place
(``ndarray.resize``) — nothing in this codebase does, and ordinary
numpy code never does either.

Inputs the C kernels cannot handle (non-contiguous, wrong dtype,
higher-rank tensors) fall back to the numpy reference implementation,
which is bit-identical by definition — so this module is safe to use
as a drop-in for any call pattern the reference accepts.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import weakref
from pathlib import Path

import numpy as np

from . import _numpy

name = "cext"

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = (
    "-O3",
    "-march=native",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-fno-trapping-math",
    "-shared",
    "-fPIC",
)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _build() -> Path:
    source = _SOURCE.read_text()
    fingerprint = hashlib.sha256(
        "\x00".join(
            (source, " ".join(_CFLAGS), platform.machine(), platform.system())
        ).encode()
    ).hexdigest()[:16]
    cached = _cache_dir() / f"repro_kernels_{fingerprint}.so"
    if cached.exists():
        return cached
    cached.parent.mkdir(parents=True, exist_ok=True)
    cc = os.environ.get("CC", "cc")
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix="build_", dir=str(cached.parent)
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compile failed ({cc}): {proc.stderr[-2000:]}"
            )
        os.replace(tmp, cached)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return cached


_lib = ctypes.CDLL(str(_build()))

_i64 = ctypes.c_int64
_ptr_t = ctypes.c_void_p

_lib.repro_transpose_f32.argtypes = [_ptr_t, _i64, _i64, _ptr_t]
_lib.repro_transpose_f32.restype = None
_lib.repro_absmax_rows.argtypes = [_ptr_t, _i64, _i64, _ptr_t]
_lib.repro_absmax_rows.restype = None
for _fn in (_lib.repro_quant_sign, _lib.repro_quant_grid):
    _fn.argtypes = [_ptr_t, _ptr_t, _i64, _i64, _i64, _ptr_t, _ptr_t]
    _fn.restype = None
_lib.repro_pack.argtypes = [_ptr_t, _i64, _i64, _ptr_t, _i64]
_lib.repro_pack.restype = None
_lib.repro_unpack.argtypes = [_ptr_t, _i64, _i64, _ptr_t]
_lib.repro_unpack.restype = None
for _fn in (
    _lib.repro_dequant_sign,
    _lib.repro_dequant_sign_acc,
    _lib.repro_dequant_grid,
    _lib.repro_dequant_grid_acc,
):
    _fn.argtypes = [_ptr_t, _ptr_t, _i64, _i64, _i64, _ptr_t]
    _fn.restype = None
for _fn in (_lib.repro_quant_sign_pack, _lib.repro_quant_grid_pack):
    _fn.argtypes = [_ptr_t, _ptr_t, _i64, _i64, _i64, _i64, _ptr_t, _ptr_t]
    _fn.restype = None
for _fn in (
    _lib.repro_words_dequant_sign,
    _lib.repro_words_dequant_sign_acc,
    _lib.repro_words_dequant_grid,
    _lib.repro_words_dequant_grid_acc,
):
    _fn.argtypes = [_ptr_t, _ptr_t, _i64, _i64, _i64, _i64, _ptr_t]
    _fn.restype = None
_lib.repro_onebit_encode.argtypes = [
    _ptr_t, _i64, _i64, _i64, _i64, _i64, _ptr_t, _ptr_t, _ptr_t,
]
_lib.repro_onebit_encode.restype = ctypes.c_int
for _fn in (_lib.repro_onebit_decode, _lib.repro_onebit_decode_acc):
    _fn.argtypes = [_ptr_t, _ptr_t, _ptr_t, _i64, _i64, _ptr_t, _i64, _i64]
    _fn.restype = None

#: code width (1..32) -> storage slot width (next divisor of 32)
_SLOT_FOR_WIDTH = _numpy._SLOT_FOR_WIDTH

#: id(array) -> (weakref guard, data pointer).  The weakref both
#: confirms the id still names the same live object (ids are recycled)
#: and evicts the entry when the array dies.
_ptr_cache: dict[int, tuple] = {}


def _ptr(a: np.ndarray) -> int:
    """Data pointer of ``a``, cached by object identity.

    The hot path passes the same long-lived arena buffers every step;
    caching skips the ~1.4us ``a.ctypes.data`` attribute walk per
    argument.  Safe because nothing may resize an ndarray in place
    while it is in use here (see module docstring).
    """
    key = id(a)
    hit = _ptr_cache.get(key)
    if hit is not None and hit[0]() is a:
        return hit[1]
    entry = (
        weakref.ref(a, lambda _r, _k=key: _ptr_cache.pop(_k, None)),
        a.ctypes.data,
    )
    _ptr_cache[key] = entry
    return entry[1]


def _f32c(a: np.ndarray) -> bool:
    return a.dtype == np.float32 and a.flags.c_contiguous


def _u32c(a: np.ndarray) -> bool:
    return a.dtype == np.uint32 and a.flags.c_contiguous


def _f64c(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def _f32_strides(a: np.ndarray) -> tuple[int, int] | None:
    """Element strides of an aligned 2-D float32 view, else ``None``."""
    if a.dtype != np.float32 or a.ndim != 2 or not a.flags.aligned:
        return None
    gs, es = a.strides
    if gs % 4 or es % 4:
        return None
    return gs // 4, es // 4


# -- bucket permutation -------------------------------------------------


def bucketize(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    n = grad.size
    if grad.ndim == 2 and n and _f32c(grad) and _f32c(out):
        # the transpose writes the first n lanes of out's flat buffer
        _lib.repro_transpose_f32(
            _ptr(grad), grad.shape[0], grad.shape[1], _ptr(out)
        )
        out.reshape(-1)[n:] = 0.0
        return out
    # 1-D flattens are a plain memcpy (numpy already optimal); other
    # ranks/dtypes take the reference strided copy
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
        rows, cols = shape
        # the F-order unflatten of the first n bucket lanes into
        # (rows, cols) is the transpose of those lanes viewed as a
        # (cols, rows) matrix
        _lib.repro_transpose_f32(_ptr(buckets), cols, rows, _ptr(out))
        return out
    return _numpy.unbucketize(buckets, shape, out, accumulate)


# -- per-bucket infinity norm ------------------------------------------


def absmax_scales(buckets: np.ndarray, scales: np.ndarray, ws) -> np.ndarray | None:
    if _f32c(buckets) and _f32c(scales):
        _lib.repro_absmax_rows(
            _ptr(buckets), buckets.shape[0], buckets.shape[1], _ptr(scales)
        )
        return None  # no |buckets| scratch is materialized
    return _numpy.absmax_scales(buckets, scales, ws)


# -- QSGD stochastic quantization --------------------------------------


def quantize_sign(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    codes: np.ndarray,
    ws,
    abs_buckets: np.ndarray | None = None,
) -> np.ndarray:
    if _f32c(buckets) and _f32c(scales) and _f64c(rand) and _u32c(codes):
        _lib.repro_quant_sign(
            _ptr(buckets), _ptr(scales), buckets.shape[0], buckets.shape[1],
            bits, _ptr(rand), _ptr(codes),
        )
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
    if _f32c(buckets) and _f32c(scales) and _f64c(rand) and _u32c(codes):
        _lib.repro_quant_grid(
            _ptr(buckets), _ptr(scales), buckets.shape[0], buckets.shape[1],
            bits, _ptr(rand), _ptr(codes),
        )
        return codes
    return _numpy.quantize_grid(buckets, scales, bits, rand, codes, ws)


# -- bit packing --------------------------------------------------------


def pack(codes: np.ndarray, slot: int, out: np.ndarray, ws) -> np.ndarray:
    if _u32c(codes) and _u32c(out):
        _lib.repro_pack(_ptr(codes), codes.size, slot, _ptr(out), out.shape[0])
        return out
    return _numpy.pack(codes, slot, out, ws)


def unpack(
    words: np.ndarray,
    count: int,
    slot: int,
    ws,
    out: np.ndarray | None = None,
) -> np.ndarray:
    if not _u32c(words):
        return _numpy.unpack(words, count, slot, ws, out)
    per_word = 32 // slot
    if ws is None:
        lanes = np.empty((words.size, per_word), dtype=np.uint32)
    else:
        lanes = ws.array("bitpack.unpack", (words.size, per_word), np.uint32)
    _lib.repro_unpack(_ptr(words), words.size, slot, _ptr(lanes))
    view = lanes.reshape(-1)[:count]
    if out is None:
        return view
    out[...] = view
    return out


# -- fused quantize+pack / unpack+dequantize ---------------------------
#
# The fused C kernels stage codes through an L1-resident tile instead
# of round-tripping the full uint32 code plane through memory.  They
# require each bucket to start on a word boundary
# (bucket_size % per_word == 0 — true for every tuned bucket size);
# anything else composes the unfused kernels, which is bit-identical.


def _fused_ok(lanes: np.ndarray, slot: int) -> bool:
    return lanes.ndim == 2 and lanes.shape[1] % (32 // slot) == 0


def quantize_sign_packed(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    words: np.ndarray,
    ws,
    abs_buckets: np.ndarray | None = None,
) -> np.ndarray:
    slot = _SLOT_FOR_WIDTH[bits]
    if (
        _f32c(buckets)
        and _f32c(scales)
        and _f64c(rand)
        and _u32c(words)
        and _fused_ok(buckets, slot)
    ):
        _lib.repro_quant_sign_pack(
            _ptr(buckets), _ptr(scales), buckets.shape[0], buckets.shape[1],
            bits, slot, _ptr(rand), _ptr(words),
        )
        return words
    codes = _numpy._scratch(ws, "qsgd.codes", buckets.shape, np.uint32)
    quantize_sign(buckets, scales, bits, rand, codes, ws, abs_buckets)
    return pack(codes.reshape(-1), slot, words, ws)


def quantize_grid_packed(
    buckets: np.ndarray,
    scales: np.ndarray,
    bits: int,
    rand: np.ndarray,
    words: np.ndarray,
    ws,
) -> np.ndarray:
    slot = _SLOT_FOR_WIDTH[bits]
    if (
        _f32c(buckets)
        and _f32c(scales)
        and _f64c(rand)
        and _u32c(words)
        and _fused_ok(buckets, slot)
    ):
        _lib.repro_quant_grid_pack(
            _ptr(buckets), _ptr(scales), buckets.shape[0], buckets.shape[1],
            bits, slot, _ptr(rand), _ptr(words),
        )
        return words
    codes = _numpy._scratch(ws, "qsgd.codes", buckets.shape, np.uint32)
    quantize_grid(buckets, scales, bits, rand, codes, ws)
    return pack(codes.reshape(-1), slot, words, ws)


def dequantize_sign_packed(
    words: np.ndarray,
    scales: np.ndarray,
    bits: int,
    out: np.ndarray,
    accumulate: bool,
    ws,
) -> np.ndarray:
    slot = _SLOT_FOR_WIDTH[bits]
    if (
        _u32c(words)
        and _f32c(scales)
        and _f32c(out)
        and _fused_ok(out, slot)
    ):
        fn = (
            _lib.repro_words_dequant_sign_acc
            if accumulate
            else _lib.repro_words_dequant_sign
        )
        fn(_ptr(words), _ptr(scales), out.shape[0], out.shape[1], bits,
           slot, _ptr(out))
        return out
    codes = unpack(words, out.size, slot, ws)
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
    slot = _SLOT_FOR_WIDTH[bits]
    if (
        _u32c(words)
        and _f32c(scales)
        and _f32c(out)
        and _fused_ok(out, slot)
    ):
        fn = (
            _lib.repro_words_dequant_grid_acc
            if accumulate
            else _lib.repro_words_dequant_grid
        )
        fn(_ptr(words), _ptr(scales), out.shape[0], out.shape[1], bits,
           slot, _ptr(out))
        return out
    codes = unpack(words, out.size, slot, ws)
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
    if _u32c(codes) and _f32c(scales) and _f32c(out):
        fn = _lib.repro_dequant_sign_acc if accumulate else _lib.repro_dequant_sign
        fn(_ptr(codes), _ptr(scales), codes.shape[0], codes.shape[1], bits,
           _ptr(out))
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
    if _u32c(codes) and _f32c(scales) and _f32c(out):
        fn = _lib.repro_dequant_grid_acc if accumulate else _lib.repro_dequant_grid
        fn(_ptr(codes), _ptr(scales), codes.shape[0], codes.shape[1], bits,
           _ptr(out))
        return out
    return _numpy.dequantize_grid(codes, scales, bits, out, accumulate, ws)


# -- 1bitSGD --------------------------------------------------------------
#
# Both kernels address groups through (group, element) strides, so the
# column-wise codec's transposed matrix views are read and written in
# place; any other layout or dtype takes the reference.


def _onebit_ok(n_groups, group_len, avg_pos, avg_neg, words) -> bool:
    """Dtypes, layouts and sizes the C kernels index by (else: reference)."""
    return (
        _f32c(avg_pos) and _f32c(avg_neg) and _u32c(words)
        and avg_pos.size == avg_neg.size == n_groups
        and words.size == n_groups * -(-group_len // 32)
    )


def onebit_encode(groups, valid_count, avg_pos, avg_neg, words, ws):
    strides = _f32_strides(groups)
    if strides is None or not _onebit_ok(*groups.shape, avg_pos, avg_neg, words):
        return _numpy.onebit_encode(groups, valid_count, avg_pos, avg_neg, words, ws)
    count = groups.size if valid_count is None else valid_count
    if _lib.repro_onebit_encode(_ptr(groups), *groups.shape, *strides, count,
                                _ptr(avg_pos), _ptr(avg_neg), _ptr(words)):
        raise MemoryError("1bit encode: cannot allocate the staging tile")
    return words


def onebit_decode(avg_pos, avg_neg, words, out, accumulate, ws):
    strides = _f32_strides(out)
    if strides is None or not (
        out.flags.writeable and _onebit_ok(*out.shape, avg_pos, avg_neg, words)
    ):
        return _numpy.onebit_decode(avg_pos, avg_neg, words, out, accumulate, ws)
    fn = _lib.repro_onebit_decode_acc if accumulate else _lib.repro_onebit_decode
    fn(_ptr(avg_pos), _ptr(avg_neg), _ptr(words), *out.shape, _ptr(out), *strides)
    return out
