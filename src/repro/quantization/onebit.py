"""1bitSGD quantization (Seide et al., Interspeech 2014; paper Section 2.2).

Each quantization group (a matrix column for the stock CNTK scheme, a
bucket for the reshaped variant) is reduced to two scale floats —
``avg+``, the mean of its non-negative entries, and ``avg-``, the mean
of its negative entries — plus one sign bit per entry.  Reconstruction
replaces every entry by the average matching its sign.

The stock CNTK implementation quantizes *per column* of the gradient
matrix, where the first tensor dimension is the row and all remaining
dimensions are flattened onto columns.  On convolutional layers this
yields columns of length 1-3, so the two scale floats per column wipe
out the compression — the performance artefact the paper fixes with
reshaping (Section 3.2.2, "Reshaped 1bitSGD").

1bitSGD is biased, so it must run under :class:`~repro.quantization.base.
ErrorFeedback`; ``requires_error_feedback`` is set accordingly.

The arithmetic lives in the kernel backends
(:mod:`repro.quantization.kernels`: ``onebit_encode`` /
``onebit_decode``, numpy reference plus a compiled C pass); this module
owns the group geometry and the message layout.  The ``*_into`` forms
draw their outputs (and any backend scratch) from an
:class:`~repro.quantization.workspace.EncodeWorkspace`, so the hot
path performs no per-call allocations; the plain ``encode`` /
``decode`` are :class:`~repro.quantization.base.Quantizer`'s, the same
forms over a throwaway arena.
"""

from __future__ import annotations

import math

import numpy as np

from . import bitpack, kernels
from .base import EncodedTensor, Quantizer
from .workspace import EncodeWorkspace

__all__ = ["OneBitSgd", "encode_groups_into", "decode_groups_into"]


def encode_groups_into(
    groups: np.ndarray,
    valid_count: int | None = None,
    workspace: EncodeWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-bit encode a ``(n_groups, group_len)`` matrix of values.

    Returns ``(avg_pos, avg_neg, words)`` where ``avg_pos``/``avg_neg``
    are per-group float32 scale vectors and ``words`` is the packed
    sign-bit payload (one padded word run per group, group-major).  All
    three (and every intermediate) live in the arena when one is
    provided, valid until the next encode on the same workspace.
    ``groups`` may be any strided view (the column-wise codec passes a
    transpose).

    Args:
        valid_count: total number of real elements when ``groups`` is a
            zero-padded bucket matrix (row-major contiguous).  Padded
            positions are excluded from the averages so they cannot
            dilute the scale factors; their sign bits are still packed
            (the decoder's caller crops them).
    """
    ws = workspace if workspace is not None else EncodeWorkspace()
    groups = np.asarray(groups)
    if groups.ndim != 2:
        raise ValueError(f"groups must be 2-D, got shape {groups.shape}")
    n_groups, group_len = groups.shape
    avg_pos = ws.array("1bit.pos.avg", n_groups)
    avg_neg = ws.array("1bit.neg.avg", n_groups)
    words = ws.array(
        "1bit.words", n_groups * bitpack.packed_words(group_len, 1), np.uint32
    )
    kernels.active().onebit_encode(
        groups, valid_count, avg_pos, avg_neg, words, ws
    )
    return avg_pos, avg_neg, words


def _decode_into(avg_pos, avg_neg, words, out, accumulate, ws):
    """Decode into the ``(n_groups, group_len)`` view ``out``."""
    n_groups, group_len = out.shape
    expected = n_groups * bitpack.packed_words(group_len, 1)
    if words.shape != (expected,):
        raise ValueError(
            f"expected {expected} words for {n_groups} groups of "
            f"{group_len} sign bits, got shape {words.shape}"
        )
    return kernels.active().onebit_decode(
        avg_pos, avg_neg, words, out, accumulate, ws
    )


def decode_groups_into(
    avg_pos: np.ndarray,
    avg_neg: np.ndarray,
    words: np.ndarray,
    group_len: int,
    workspace: EncodeWorkspace | None = None,
) -> np.ndarray:
    """Inverse of :func:`encode_groups_into`.

    Returns a ``(n_groups, group_len)`` float32 array drawn from the
    arena (valid until the next decode on the same workspace).
    """
    ws = workspace if workspace is not None else EncodeWorkspace()
    values = ws.array("1bit.dec.values", (avg_pos.shape[0], group_len))
    return _decode_into(avg_pos, avg_neg, words, values, False, ws)


class OneBitSgd(Quantizer):
    """Stock CNTK 1bitSGD: column-wise 1-bit quantization.

    The gradient tensor is viewed as a matrix whose rows are the first
    tensor dimension and whose columns flatten the rest, exactly as
    CNTK lays out objects without dynamic dimensions (Section 3.2.2).
    """

    name = "1bit"
    nominal_bits = 1.0
    requires_error_feedback = True

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        grad = np.asarray(grad, dtype=np.float32)
        rows = grad.shape[0] if grad.ndim else 1
        # explicit column count: reshape(rows, -1) cannot infer a
        # dimension when the tensor is empty
        cols = grad.size // rows if rows else 0
        matrix = grad.reshape(rows, cols)
        # groups are the matrix columns: one (avg+, avg-) pair per column
        avg_pos, avg_neg, words = encode_groups_into(
            matrix.T, workspace=workspace
        )
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={
                "avg_pos": avg_pos,
                "avg_neg": avg_neg,
                "words": words,
            },
            meta={"rows": rows},
        )

    def decode_into(
        self,
        message: EncodedTensor,
        out: np.ndarray,
        accumulate: bool = False,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        rows = int(message.meta["rows"])
        if out.size == 0:
            return out
        ws = workspace if workspace is not None else EncodeWorkspace()
        cols = out.size // rows
        if out.ndim == 2 and out.shape == (rows, cols):
            matrix = out  # strided 2-D views are written in place
        elif out.flags.c_contiguous:
            matrix = out.reshape(rows, cols)
        else:
            # trailing axes that cannot merge without a copy: decode
            # into scratch, then write the result back through `out`
            scratch = ws.array("1bit.dec.out", (rows, cols))
            self.decode_into(message, scratch, workspace=ws)
            if accumulate:
                out += scratch.reshape(out.shape)
            else:
                out[...] = scratch.reshape(out.shape)
            return out
        p = message.payload
        # groups are the matrix columns
        _decode_into(p["avg_pos"], p["avg_neg"], p["words"], matrix.T,
                     accumulate, ws)
        return out

    def group_count(self, shape: tuple[int, ...]) -> int:
        """One group per column: everything past the first dimension."""
        rows = shape[0] if shape else 1
        return math.prod(shape) // rows if rows else 0

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from .base import MESSAGE_HEADER_BYTES

        rows = shape[0] if shape else 1
        cols = self.group_count(shape)
        words_per_col = bitpack.packed_words(rows, 1)
        return MESSAGE_HEADER_BYTES + cols * (8 + 4 * words_per_col)