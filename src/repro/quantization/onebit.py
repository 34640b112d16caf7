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

The ``*_into`` forms draw every intermediate (sign planes, masked
sums, packed words, reconstruction scratch) from an
:class:`~repro.quantization.workspace.EncodeWorkspace`, so the hot
path performs no per-call allocations; the plain forms are thin
wrappers over them.
"""

from __future__ import annotations

import math

import numpy as np

from . import bitpack
from .base import EncodedTensor, Quantizer
from .workspace import EncodeWorkspace

__all__ = ["OneBitSgd", "encode_groups", "decode_groups"]


def _padded_length(group_len: int) -> int:
    """Group length rounded up to a whole number of 32-bit words."""
    return bitpack.packed_words(group_len, 1) * 32


def _masked_row_means(
    groups: np.ndarray,
    select: np.ndarray,
    ws: EncodeWorkspace,
    tag: str,
) -> np.ndarray:
    """Mean of ``groups`` over ``select`` per row (0 for empty rows)."""
    n_groups = groups.shape[0]
    masked = ws.array("1bit.masked", groups.shape)
    masked.fill(0.0)
    np.copyto(masked, groups, where=select)
    sums = ws.array(f"1bit.{tag}.sum", n_groups)
    masked.sum(axis=1, out=sums)
    counts = ws.array(f"1bit.{tag}.count", n_groups, np.int64)
    select.sum(axis=1, out=counts)
    nonempty = ws.array(f"1bit.{tag}.nonempty", n_groups, bool)
    np.greater(counts, 0, out=nonempty)
    means = ws.zeros(f"1bit.{tag}.avg", n_groups)
    np.divide(sums, counts, out=means, where=nonempty)
    return means


def encode_groups_into(
    groups: np.ndarray,
    valid_count: int | None = None,
    workspace: EncodeWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-bit encode a ``(n_groups, group_len)`` matrix of values.

    Workspace form of :func:`encode_groups`: all three returned arrays
    (and every intermediate) live in the arena when one is provided,
    valid until the next encode on the same workspace.
    """
    ws = workspace if workspace is not None else EncodeWorkspace()
    groups = np.asarray(groups)
    if groups.ndim != 2:
        raise ValueError(f"groups must be 2-D, got shape {groups.shape}")
    n_groups, group_len = groups.shape

    positive = ws.array("1bit.positive", groups.shape, bool)
    np.greater_equal(groups, 0.0, out=positive)
    full = valid_count is None or valid_count >= n_groups * group_len
    if full:
        pos_valid = positive
        neg_valid = ws.array("1bit.negvalid", groups.shape, bool)
        np.logical_not(positive, out=neg_valid)
    else:
        # zero-padded bucket matrix: exclude padding from the averages
        valid = ws.array("1bit.valid", groups.shape, bool)
        vflat = valid.reshape(-1)
        vflat[:valid_count] = True
        vflat[valid_count:] = False
        pos_valid = ws.array("1bit.posvalid", groups.shape, bool)
        np.logical_and(positive, valid, out=pos_valid)
        neg_valid = ws.array("1bit.negvalid", groups.shape, bool)
        np.logical_not(positive, out=neg_valid)
        np.logical_and(neg_valid, valid, out=neg_valid)
    avg_pos = _masked_row_means(groups, pos_valid, ws, "pos")
    avg_neg = _masked_row_means(groups, neg_valid, ws, "neg")

    padded_len = _padded_length(group_len)
    padded = ws.array("1bit.padded", (n_groups, padded_len), np.uint32)
    padded[:, :group_len] = positive
    padded[:, group_len:] = 0
    words = ws.array(
        "1bit.words", bitpack.packed_words(n_groups * padded_len, 1),
        np.uint32,
    )
    bitpack.pack_into(
        padded.reshape(-1), 1, words, workspace=ws, check=False
    )
    return avg_pos, avg_neg, words


def encode_groups(
    groups: np.ndarray, valid_count: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-bit encode a ``(n_groups, group_len)`` matrix of values.

    Returns ``(avg_pos, avg_neg, words)`` where ``avg_pos``/``avg_neg``
    are per-group float32 scale vectors and ``words`` is the packed
    sign-bit payload (one padded word run per group, group-major).

    Args:
        valid_count: total number of real elements when ``groups`` is a
            zero-padded bucket matrix (row-major contiguous).  Padded
            positions are excluded from the averages so they cannot
            dilute the scale factors; their sign bits are still packed
            (the decoder's caller crops them).
    """
    return encode_groups_into(groups, valid_count)


def decode_groups_into(
    avg_pos: np.ndarray,
    avg_neg: np.ndarray,
    words: np.ndarray,
    group_len: int,
    workspace: EncodeWorkspace | None = None,
) -> np.ndarray:
    """Workspace form of :func:`decode_groups`.

    Returns a ``(n_groups, group_len)`` float32 array drawn from the
    arena (valid until the next decode on the same workspace).
    """
    ws = workspace if workspace is not None else EncodeWorkspace()
    n_groups = avg_pos.shape[0]
    padded_len = _padded_length(group_len)
    bits = bitpack.unpack_into(
        words, n_groups * padded_len, width=1, workspace=ws
    )
    sign_bits = bits.reshape(n_groups, padded_len)[:, :group_len]
    positive = ws.array("1bit.dec.positive", (n_groups, group_len), bool)
    np.not_equal(sign_bits, 0, out=positive)
    values = ws.array("1bit.dec.values", (n_groups, group_len))
    values[...] = avg_neg[:, None]
    np.copyto(values, np.broadcast_to(avg_pos[:, None], values.shape),
              where=positive)
    return values


def decode_groups(
    avg_pos: np.ndarray,
    avg_neg: np.ndarray,
    words: np.ndarray,
    group_len: int,
) -> np.ndarray:
    """Inverse of :func:`encode_groups`; returns ``(n_groups, group_len)``."""
    return decode_groups_into(avg_pos, avg_neg, words, group_len).copy()


class OneBitSgd(Quantizer):
    """Stock CNTK 1bitSGD: column-wise 1-bit quantization.

    The gradient tensor is viewed as a matrix whose rows are the first
    tensor dimension and whose columns flatten the rest, exactly as
    CNTK lays out objects without dynamic dimensions (Section 3.2.2).
    """

    name = "1bit"
    nominal_bits = 1.0
    requires_error_feedback = True

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
        rows = int(message.meta["rows"])
        if out.size == 0:
            return out
        columns = decode_groups_into(
            message.payload["avg_pos"],
            message.payload["avg_neg"],
            message.payload["words"],
            group_len=rows,
            workspace=workspace,
        )
        if out.ndim == 2 and out.shape[0] == rows:
            target = out  # strided 2-D views are written in place
        else:
            target = out.reshape(rows, -1)
        if accumulate:
            target += columns.T
        else:
            target[...] = columns.T
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