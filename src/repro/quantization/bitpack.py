"""Bit-packing of small integer codes into 32-bit words.

The paper's CNTK artefact packs quantized values into C++ unsigned
integers so that a column of ``n`` 1-bit codes occupies ``ceil(n / 32)``
words (Section 3.2.1).  This module provides the same wire format for
arbitrary code widths from 1 to 32 bits: codes are laid out
little-endian within each word, i.e. code ``i`` occupies bits
``[(i * width) % 32, (i * width) % 32 + width)`` of word
``(i * width) // 32`` when ``width`` divides 32.

Widths that do not divide 32 are rounded up to the next divisor of 32
(e.g. 3-bit codes are stored in 4-bit slots).  This matches the
alignment behaviour of the CNTK kernels, which only ever emit
power-of-two slot widths, and keeps unpacking branch-free.

Hot-path forms: :func:`pack_into` and :func:`unpack_into` validate the
request and dispatch the lane arithmetic to the active kernel backend
(:mod:`repro.quantization.kernels`): the C extension's loops, or the
vectorized numpy reference — bit-identical by test.  Lane scratch comes from the caller's
:class:`~repro.quantization.workspace.EncodeWorkspace`, so
steady-state packing performs no allocations with any backend.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .workspace import EncodeWorkspace

__all__ = [
    "slot_width",
    "packed_words",
    "pack",
    "unpack",
    "pack_into",
    "unpack_into",
]

_WORD_BITS = 32
_DIVISORS_OF_32 = (1, 2, 4, 8, 16, 32)

#: width (1..32) -> storage slot width; index 0 is a sentinel.  The
#: divisor scan runs once here instead of on every pack/unpack call.
_SLOT_FOR_WIDTH = (0,) + tuple(
    next(d for d in _DIVISORS_OF_32 if d >= w) for w in range(1, 33)
)
#: slot width -> codes per 32-bit word
_LANES_FOR_SLOT = {slot: _WORD_BITS // slot for slot in _DIVISORS_OF_32}


def slot_width(width: int) -> int:
    """Return the storage slot width for ``width``-bit codes.

    The slot is the smallest divisor of 32 that can hold ``width`` bits,
    so that codes never straddle a word boundary.
    """
    if not 1 <= width <= _WORD_BITS:
        raise ValueError(f"code width must be in [1, 32], got {width}")
    return _SLOT_FOR_WIDTH[width]


def packed_words(count: int, width: int) -> int:
    """Number of uint32 words needed to store ``count`` codes."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    per_word = _LANES_FOR_SLOT[slot_width(width)]
    return -(-count // per_word)  # ceil division


def pack_into(
    codes: np.ndarray,
    width: int,
    out: np.ndarray,
    workspace: EncodeWorkspace | None = None,
    check: bool = True,
) -> np.ndarray:
    """Pack integer codes into the caller-provided uint32 buffer ``out``.

    Args:
        codes: 1-D array of integers, each in ``[0, 2**width)``.
        width: nominal code width in bits.
        out: uint32 buffer of length ``packed_words(len(codes), width)``.
        workspace: arena for any lane scratch (allocates when ``None``).
        check: validate the code range.  Encoders whose codes are
            in-range by construction pass ``False`` to skip the scan.
    """
    codes = np.ascontiguousarray(codes)
    if codes.ndim != 1:
        raise ValueError(f"codes must be 1-D, got shape {codes.shape}")
    slot = slot_width(width)
    if check and codes.size:
        limit = 1 << width
        if codes.min() < 0 or codes.max() >= limit:
            raise ValueError(f"codes out of range for width {width}")

    n_words = packed_words(codes.size, width)
    if out.shape != (n_words,) or out.dtype != np.uint32:
        raise ValueError(
            f"out must be uint32 of shape ({n_words},), got "
            f"{out.dtype} {out.shape}"
        )
    return kernels.active().pack(codes, slot, out, workspace)


def unpack_into(
    words: np.ndarray,
    count: int,
    width: int,
    out: np.ndarray | None = None,
    workspace: EncodeWorkspace | None = None,
) -> np.ndarray:
    """Unpack ``count`` codes from ``words`` without fresh allocations.

    With ``out`` given, the codes are copied into it.  Without ``out``,
    returns a contiguous uint32 *view* into the lane scratch (drawn
    from ``workspace`` when provided) that stays valid until the next
    ``unpack_into`` call on the same workspace.
    """
    words = np.ascontiguousarray(words, dtype=np.uint32)
    if words.ndim != 1:
        raise ValueError(f"words must be 1-D, got shape {words.shape}")
    slot = slot_width(width)
    expected = packed_words(count, width)
    if words.size != expected:
        raise ValueError(
            f"expected {expected} words for {count} codes of width {width}, "
            f"got {words.size}"
        )
    return kernels.active().unpack(words, count, slot, workspace, out)


def pack(codes: np.ndarray, width: int) -> np.ndarray:
    """Pack an array of non-negative integer codes into uint32 words.

    Allocating form of :func:`pack_into`.

    Args:
        codes: 1-D array of integers, each in ``[0, 2**width)``.
        width: nominal code width in bits.

    Returns:
        1-D ``uint32`` array of length ``packed_words(len(codes), width)``.
    """
    codes = np.ascontiguousarray(codes)
    if codes.ndim != 1:
        raise ValueError(f"codes must be 1-D, got shape {codes.shape}")
    out = np.empty(packed_words(codes.size, width), dtype=np.uint32)
    return pack_into(codes, width, out)


def unpack(words: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack`.

    Allocating form of :func:`unpack_into`.

    Args:
        words: packed ``uint32`` array.
        count: number of codes originally packed.
        width: nominal code width in bits.

    Returns:
        1-D ``uint32`` array of ``count`` codes.
    """
    out = np.empty(count, dtype=np.uint32)
    return unpack_into(words, count, width, out)
