"""Workspace arena semantics and zero-allocation kernel bit-identity.

The refactor's core contract: every scheme's ``encode_into`` /
``decode_into`` out-parameter form produces *bit-identical* messages
and reconstructions to the allocating ``encode`` / ``decode`` pair, and
``decode_into(..., accumulate=True)`` equals decode-then-sum exactly.
These tests pin that contract for every scheme in the package.
"""

import numpy as np
import pytest

from repro.comm import make_exchange
from repro.quantization import EncodeWorkspace, kernels, make_quantizer

ALL_SCHEMES = [
    "32bit",
    "qsgd2",
    "qsgd4",
    "qsgd8",
    "qsgd16",
    "1bit",
    "1bit*",
    "aqsgd4",
    "topk0.05",
]

SHAPES = [(64, 64), (7, 13), (33,), (3, 4, 5)]


def _grad(shape, seed=0):
    return (
        np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    )


class TestArena:
    def test_same_key_returns_same_storage(self):
        ws = EncodeWorkspace()
        a = ws.array("t", (4, 5))
        b = ws.array("t", (4, 5))
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_distinct_shapes_do_not_collide(self):
        ws = EncodeWorkspace()
        a = ws.array("t", (4, 5))
        b = ws.array("t", (5, 4))
        assert a is not b
        assert len(ws) == 2

    def test_dtype_reuse_under_one_tag_raises(self):
        ws = EncodeWorkspace()
        ws.array("t", (8,), np.float32)
        with pytest.raises(ValueError, match="dtype"):
            ws.array("t", (8,), np.uint32)

    def test_clear_forgets_tag_dtypes(self):
        ws = EncodeWorkspace()
        ws.array("t", (8,), np.float32)
        ws.clear()
        buf = ws.array("t", (8,), np.uint32)
        assert buf.dtype == np.uint32

    def test_malformed_shapes_raise_clear_errors(self):
        ws = EncodeWorkspace()
        with pytest.raises(TypeError, match="integers"):
            ws.array("t", (4, 2.0))
        with pytest.raises(TypeError, match="integers"):
            ws.array("t", (True, 3))
        with pytest.raises(ValueError, match=">= 0"):
            ws.array("t", (4, -1))

    def test_numpy_integer_dims_are_normalized(self):
        ws = EncodeWorkspace()
        a = ws.array("t", (np.int64(4), np.int32(5)))
        b = ws.array("t", (4, 5))
        assert a is b

    def test_zeros_refills_every_request(self):
        ws = EncodeWorkspace()
        buf = ws.zeros("z", (3,))
        buf[...] = 7.0
        again = ws.zeros("z", (3,))
        assert again is buf
        np.testing.assert_array_equal(again, 0.0)

    def test_clear_drops_buffers_and_counters(self):
        ws = EncodeWorkspace()
        ws.array("t", (2,))
        ws.clear()
        assert len(ws) == 0
        assert ws.nbytes == 0
        assert ws.hits == 0 and ws.misses == 0

    def test_nbytes_accounts_for_held_buffers(self):
        ws = EncodeWorkspace()
        ws.array("t", (16,), np.float32)
        assert ws.nbytes == 64


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("shape", SHAPES)
class TestKernelBitIdentity:
    def test_encode_into_matches_encode(self, scheme, shape):
        codec = make_quantizer(scheme)
        grad = _grad(shape, seed=3)
        ref = codec.encode(grad, np.random.default_rng(11))
        ws = EncodeWorkspace()
        msg = codec.encode_into(grad, np.random.default_rng(11), ws)
        assert msg.scheme == ref.scheme
        assert msg.shape == ref.shape
        assert msg.nbytes == ref.nbytes
        assert set(msg.payload) == set(ref.payload)
        for name, arr in ref.payload.items():
            np.testing.assert_array_equal(
                np.asarray(msg.payload[name]), np.asarray(arr)
            )

    def test_decode_into_matches_decode(self, scheme, shape):
        codec = make_quantizer(scheme)
        grad = _grad(shape, seed=4)
        message = codec.encode(grad, np.random.default_rng(12))
        ref = codec.decode(message)
        ws = EncodeWorkspace()
        out = np.empty(shape, dtype=np.float32)
        codec.decode_into(message, out, workspace=ws)
        np.testing.assert_array_equal(out, ref)

    def test_accumulate_equals_decode_then_sum(self, scheme, shape):
        codec = make_quantizer(scheme)
        grad = _grad(shape, seed=5)
        message = codec.encode(grad, np.random.default_rng(13))
        base = _grad(shape, seed=6)
        ref = base + codec.decode(message)
        ws = EncodeWorkspace()
        acc = base.copy()
        codec.decode_into(message, acc, accumulate=True, workspace=ws)
        np.testing.assert_array_equal(acc, ref)


@pytest.mark.parametrize("scheme", ["qsgd4", "aqsgd4", "32bit", "qsgd2"])
def test_sum_decoder_matches_rank_order_dense_sum(scheme):
    """sum_decoder (incl. the bucket-space override) == zeros-then-add."""
    codec = make_quantizer(scheme)
    shape = (48, 30)
    messages = [
        codec.encode(_grad(shape, seed=20 + r), np.random.default_rng(r))
        for r in range(4)
    ]
    ref = np.zeros(shape, dtype=np.float32)
    for message in messages:
        ref += codec.decode(message)
    for ws in (None, EncodeWorkspace()):
        decoder = codec.sum_decoder(shape, ws)
        for message in messages:
            decoder.add(message)
        np.testing.assert_array_equal(decoder.result(), ref)


def test_sum_decoder_empty_stream_is_zero():
    codec = make_quantizer("qsgd4")
    for ws in (None, EncodeWorkspace()):
        decoder = codec.sum_decoder((5, 7), ws)
        np.testing.assert_array_equal(
            decoder.result(), np.zeros((5, 7), np.float32)
        )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_steady_state_performs_no_new_arena_allocations(scheme):
    """After one warmup round, the arena stops allocating entirely."""
    codec = make_quantizer(scheme)
    grad = _grad((40, 24), seed=9)
    ws = EncodeWorkspace()
    out = np.empty(grad.shape, dtype=np.float32)

    def round_trip(seed):
        message = codec.encode_into(grad, np.random.default_rng(seed), ws)
        codec.decode_into(message, out, workspace=ws)

    round_trip(0)
    misses = ws.misses
    for seed in range(1, 4):
        round_trip(seed)
    assert ws.misses == misses, "hot path allocated after warmup"
    assert ws.hits > 0


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_every_codec_shares_one_arena(backend):
    """Codec tags keep one dtype each, so one arena serves them all.

    The adaptive policy routes qsgd8, qsgd4 and terngrad layers through
    one step arena; a tag reused with a second dtype would raise there.
    """
    from repro.quantization import EXTENSION_SCHEME_EXAMPLES, SCHEME_NAMES

    ws = EncodeWorkspace()
    grad = _grad((40, 24), seed=4)
    out = np.empty(grad.shape, dtype=np.float32)
    extensions = [e.split()[0] for e in EXTENSION_SCHEME_EXAMPLES]
    schemes = list(SCHEME_NAMES) + [
        e.replace("<bits>", "4").replace("<density>", "0.05")
        .replace("<clip>", "2.5") for e in extensions
    ]
    with kernels.use_backend(backend):
        for scheme in schemes:
            codec = make_quantizer(scheme)
            message = codec.encode_into(grad, np.random.default_rng(0), ws)
            codec.decode_into(message, out, workspace=ws)
            decoder = codec.sum_decoder(grad.shape, ws)
            decoder.add(codec.encode_into(grad, np.random.default_rng(1), ws))
            decoder.result()


#: the only 1bit arena entries the compiled path keeps: the message
#: itself.  Every other ``1bit.*`` tag (masked copies, sign planes,
#: padded lanes, sums, counts) is reference-path scratch.
ONEBIT_MESSAGE_TAGS = {"1bit.pos.avg", "1bit.neg.avg", "1bit.words"}


@pytest.mark.skipif(
    "cext" not in kernels.available_backends(), reason="no C compiler"
)
def test_cext_onebit_mpi_step_allocates_nothing_after_warmup():
    """1bit x mpi on the C kernels: no arena misses, no reference scratch."""
    exchange = make_exchange("mpi", 2)
    codec = make_quantizer("1bit")
    ws = EncodeWorkspace()
    shapes = [(64, 30), (8, 3, 3, 3), (30,)]

    def step(seed):
        rng = np.random.default_rng(seed)
        for i, shape in enumerate(shapes):
            tensors = [_grad(shape, seed=seed + r) for r in range(2)]
            exchange.exchange(f"w{i}", tensors, codec, rng, workspace=ws)

    with kernels.use_backend("cext"):
        step(0)
        misses = ws.misses
        for seed in range(1, 4):
            step(seed)
    assert ws.misses == misses, "hot path allocated after warmup"
    tags = {key[0] for key in ws._buffers if isinstance(key[0], str)}
    assert {t for t in tags if t.startswith("1bit.")} <= ONEBIT_MESSAGE_TAGS
    assert not {t for t in tags if t.startswith("bitpack.")}
