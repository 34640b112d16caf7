"""Gradient quantization schemes from the paper.

The registry maps the scheme names used throughout the paper's tables
("32bit", "1bit", "1bit*", "qsgd2" ... "qsgd16") to constructors, so
experiment configurations can name schemes as strings.
"""

from __future__ import annotations

from .adaptive import AdaptiveQsgd, lloyd_max_levels
from .base import (
    MESSAGE_HEADER_BYTES,
    EncodedTensor,
    ErrorFeedback,
    Quantizer,
)
from .bucketed import BucketedCodec
from .bucketing import (
    BucketPlan,
    bucket_count,
    bucket_plan,
    from_buckets,
    from_buckets_into,
    to_buckets,
    to_buckets_into,
)
from . import kernels
from .dettmers8 import Dettmers8, dynamic_tree_values
from .fullprec import FullPrecision
from .onebit import OneBitSgd
from .onebit_reshaped import OneBitSgdReshaped
from .policy import QuantizationPolicy, passthrough_threshold
from .qsgd import DEFAULT_BUCKET_SIZES, Qsgd
from .terngrad import TernGrad
from .topk import TopK
from .workspace import EncodeWorkspace

__all__ = [
    "MESSAGE_HEADER_BYTES",
    "EncodedTensor",
    "ErrorFeedback",
    "Quantizer",
    "BucketedCodec",
    "FullPrecision",
    "OneBitSgd",
    "OneBitSgdReshaped",
    "Qsgd",
    "AdaptiveQsgd",
    "TernGrad",
    "Dettmers8",
    "dynamic_tree_values",
    "TopK",
    "lloyd_max_levels",
    "QuantizationPolicy",
    "passthrough_threshold",
    "bucket_count",
    "bucket_plan",
    "BucketPlan",
    "to_buckets",
    "to_buckets_into",
    "from_buckets",
    "from_buckets_into",
    "EncodeWorkspace",
    "DEFAULT_BUCKET_SIZES",
    "SCHEME_NAMES",
    "EXTENSION_SCHEME_PREFIXES",
    "EXTENSION_SCHEME_EXAMPLES",
    "make_quantizer",
    "validate_scheme",
    "kernels",
]

#: scheme names in the order the paper's figures list them, followed by
#: the related-work schemes of the widened zoo (TernGrad and Dettmers'
#: 8-bit dynamic tree / columnwise variants)
SCHEME_NAMES = (
    "32bit",
    "qsgd16",
    "qsgd8",
    "qsgd4",
    "qsgd2",
    "1bit*",
    "1bit",
    "terngrad",
    "dettmers8",
    "dettmers8c",
)

#: extension schemes from the paper's Sections 2.3 / 7 (non-uniform
#: levels and sparse top-k) plus parameterized zoo variants, accepted
#: by make_quantizer but not part of the main study grid
EXTENSION_SCHEME_PREFIXES = ("aqsgd", "topk", "terngrad")

#: concrete parameter syntax per extension prefix, quoted verbatim by
#: the unknown-scheme error so callers see how to spell a variant
EXTENSION_SCHEME_EXAMPLES = (
    "aqsgd<bits> (Lloyd-Max levels, e.g. 'aqsgd4')",
    "topk<density> (sparse top-k, e.g. 'topk0.01' keeps 1%)",
    "terngrad<clip> (clipped ternary, e.g. 'terngrad2.5' clips at "
    "2.5 sigma)",
)


def make_quantizer(
    name: str,
    bucket_size: int | None = None,
    norm: str = "inf",
    variant: str = "sign",
) -> Quantizer:
    """Construct a quantizer from its paper-style scheme name.

    Args:
        name: one of :data:`SCHEME_NAMES`.
        bucket_size: overrides the scheme's tuned default bucket size
            (ignored by "32bit" and column-wise "1bit").
        norm / variant: QSGD's scaling norm and level layout (ignored
            by every other scheme).
    """
    if name == "32bit":
        return FullPrecision()
    if name == "1bit":
        return OneBitSgd()
    if name == "1bit*":
        if bucket_size is None:
            return OneBitSgdReshaped()
        return OneBitSgdReshaped(bucket_size=bucket_size)
    if name.startswith("qsgd") and name[len("qsgd"):].isdigit():
        bits = int(name[len("qsgd"):])
        return Qsgd(bits, bucket_size, norm, variant)
    if name.startswith("aqsgd") and name[len("aqsgd"):].isdigit():
        bits = int(name[len("aqsgd"):])
        if bucket_size is None:
            return AdaptiveQsgd(bits)
        return AdaptiveQsgd(bits, bucket_size=bucket_size)
    if name.startswith("topk"):
        try:
            density = float(name[len("topk"):])
        except ValueError:
            density = None
        if density is not None:
            return TopK(density)
    if name == "terngrad":
        return TernGrad(bucket_size=bucket_size)
    if name.startswith("terngrad"):
        try:
            clip = float(name[len("terngrad"):])
        except ValueError:
            clip = None
        if clip is not None:
            return TernGrad(bucket_size=bucket_size, clip=clip)
    if name == "dettmers8":
        return Dettmers8("tree", bucket_size=bucket_size)
    if name == "dettmers8c":
        return Dettmers8("column", bucket_size=bucket_size)
    raise ValueError(
        f"unknown scheme {name!r}; expected one of {SCHEME_NAMES} "
        "or an extension scheme: "
        + "; ".join(EXTENSION_SCHEME_EXAMPLES)
    )


def validate_scheme(name: str) -> str:
    """``name`` if :func:`make_quantizer` accepts it, else its ValueError.

    The one definition of "a valid scheme name" — registry names and
    the extension syntaxes alike — shared by :class:`TrainingConfig`,
    the CLI (as an argparse ``type=``) and the serve job body.
    """
    make_quantizer(name)
    return name
