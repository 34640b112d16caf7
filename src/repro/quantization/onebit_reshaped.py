"""Reshaped 1bitSGD ("1bitSGD*", paper Section 3.2.2).

Identical arithmetic to :class:`~repro.quantization.onebit.OneBitSgd`,
but the gradient is first flattened and regrouped into fixed-size
buckets (the QSGD reshaping technique), so the two scale floats are
amortized over ``bucket_size`` entries regardless of the tensor's
column layout.  This fixes the stock implementation's performance
artefact on convolutional layers, at the cost of a new hyperparameter:
the paper uses bucket size 64 to preserve accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from .base import EncodedTensor, Quantizer
from .bucketing import bucket_plan, from_buckets_into, to_buckets_into
from .onebit import decode_groups_into, encode_groups_into
from .workspace import EncodeWorkspace

__all__ = ["OneBitSgdReshaped"]

DEFAULT_BUCKET_SIZE = 64


class OneBitSgdReshaped(Quantizer):
    """1bitSGD over reshaped buckets instead of matrix columns."""

    nominal_bits = 1.0
    requires_error_feedback = True

    def __init__(self, bucket_size: int = DEFAULT_BUCKET_SIZE):
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
        self.bucket_size = bucket_size
        self.name = "1bit*"

    def effective_bucket(self, count: int) -> int:
        """Bucket size used for a ``count``-element tensor (capped)."""
        return max(1, min(self.bucket_size, count))

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        ws = workspace if workspace is not None else EncodeWorkspace()
        grad = np.asarray(grad, dtype=np.float32)
        bucket_size = self.effective_bucket(grad.size)
        plan = bucket_plan(grad.size, bucket_size)
        buckets = ws.array("1bit*.buckets", (plan.n_buckets, bucket_size))
        to_buckets_into(grad, bucket_size, buckets)
        avg_pos, avg_neg, words = encode_groups_into(
            buckets, valid_count=grad.size, workspace=ws
        )
        return EncodedTensor(
            scheme=self.name,
            shape=grad.shape,
            payload={
                "avg_pos": avg_pos,
                "avg_neg": avg_neg,
                "words": words,
            },
            meta={"bucket_size": bucket_size},
        )

    def decode_into(
        self,
        message: EncodedTensor,
        out: np.ndarray,
        accumulate: bool = False,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        bucket_size = int(message.meta["bucket_size"])
        buckets = decode_groups_into(
            message.payload["avg_pos"],
            message.payload["avg_neg"],
            message.payload["words"],
            group_len=bucket_size,
            workspace=workspace,
        )
        return from_buckets_into(buckets, message.shape, out, accumulate)

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        from . import bitpack
        from .base import MESSAGE_HEADER_BYTES

        buckets = self.group_count(shape)
        bucket_size = self.effective_bucket(math.prod(shape))
        words_per_bucket = bitpack.packed_words(bucket_size, 1)
        return MESSAGE_HEADER_BYTES + buckets * (8 + 4 * words_per_bucket)
