"""``decode_into`` writes through every output layout, for every scheme.

``decode_into(message, out)`` must land in ``out`` whatever its
strides.  A decode into a view whose trailing axes cannot merge without
a copy (an F-ordered tensor, a sliced last axis) must not write into a
temporary and drop the result.  The grid is generated from the scheme
registry: every ``SCHEME_NAMES`` entry plus the example spelled out for
each extension syntax, so a new scheme joins it by registering.
"""

import re

import numpy as np
import pytest

from repro.quantization import (
    EXTENSION_SCHEME_EXAMPLES,
    SCHEME_NAMES,
    EncodeWorkspace,
    make_quantizer,
)

EXAMPLES = tuple(
    re.search(r"e\.g\. '([^']+)'", text).group(1)
    for text in EXTENSION_SCHEME_EXAMPLES
)
SCHEMES = SCHEME_NAMES + EXAMPLES

#: layout name -> (tensor shape, factory for a zeroed out of that shape)
LAYOUTS = {
    "f-ordered": ((3, 4, 5), lambda: np.zeros((5, 4, 3), np.float32).T),
    "last-axis-sliced": (
        (3, 4, 5),
        lambda: np.zeros((3, 4, 9), np.float32)[..., 2:7],
    ),
    "transposed-2d": ((12, 10), lambda: np.zeros((10, 12), np.float32).T),
}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def test_registry_examples_are_found():
    assert len(EXAMPLES) == len(EXTENSION_SCHEME_EXAMPLES)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("accumulate", [False, True], ids=["set", "acc"])
def test_decode_into_writes_through_strided_out(scheme, layout, accumulate):
    shape, make_out = LAYOUTS[layout]
    codec = make_quantizer(scheme)
    grad = np.random.default_rng(7).normal(size=shape).astype(np.float32)
    message = codec.encode(grad, np.random.default_rng(8))
    decoded = codec.decode(message)
    base = np.random.default_rng(9).normal(size=shape).astype(np.float32)

    out = make_out()
    assert out.shape == shape and not out.flags.c_contiguous
    out[...] = base
    result = codec.decode_into(
        message, out, accumulate=accumulate, workspace=EncodeWorkspace()
    )
    assert result is out
    want = base + decoded if accumulate else decoded
    np.testing.assert_array_equal(_bits(out), _bits(want))
