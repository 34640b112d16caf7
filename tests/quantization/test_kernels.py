"""Bit-identity and registry tests for the kernel backend layer.

The compiled backend (the C extension) exists purely for speed:
their contract is that every byte they produce — packed code words,
scale vectors, decoded tensors, fused accumulations — is identical to
the pure-numpy reference, including the stochastic-rounding decisions
(the uniform draws are made by the caller and passed in, so all
backends consume the same RNG stream).  These tests enforce that
contract over the full scheme×bits×bucket×shape grid (and the 1bitSGD
group-length × layout grid) against the compiled backend when it
loads in this environment, and pin the selection rules of the
registry itself.
"""

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.data import make_image_dataset
from repro.models import tiny_alexnet
from repro.quantization import OneBitSgd, bitpack, kernels, make_quantizer
from repro.quantization.base import EncodedTensor
from repro.quantization.kernels import _numpy as ref_backend
from repro.quantization.onebit import decode_groups_into, encode_groups_into
from repro.quantization.qsgd import Qsgd
from repro.quantization.workspace import EncodeWorkspace

BACKENDS = kernels.available_backends()
#: compiled backends to check against the reference; a skip marker
#: stands in so the grid reports as skipped (not silently absent) in
#: environments without a C compiler
COMPILED = [name for name in BACKENDS if name != "numpy"] or [
    pytest.param(
        "numpy", marks=pytest.mark.skip(reason="no compiled backend")
    )
]

SHAPES = [
    (1,),
    (7,),
    (128,),
    (513,),
    (1, 1),
    (3, 5),
    (37, 53),
    (64, 64),
    (2, 3, 4),
]


def _gradient(shape, seed, zero_run=False):
    grad = (
        np.random.default_rng(seed)
        .normal(scale=2.0, size=shape)
        .astype(np.float32)
    )
    if zero_run and grad.size:
        # zero a prefix long enough to produce all-zero buckets, the
        # branch where scale == 0 and every code must collapse to 0
        flat = grad.reshape(-1)
        flat[: max(1, flat.size // 2)] = 0.0
    return grad


def _bits_equal(a, b):
    """Bit-pattern equality for float32 arrays (catches signed zeros)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32)
    )


def _roundtrip(backend, variant, norm, bits, shape, bucket, zero_run):
    """Encode/decode/sum-decode one gradient under ``backend``."""
    with kernels.use_backend(backend):
        codec = Qsgd(bits, bucket_size=bucket, norm=norm, variant=variant)
        ws = EncodeWorkspace()
        grad = _gradient(shape, seed=17, zero_run=zero_run)

        message = codec.encode_into(grad, np.random.default_rng(23), ws)
        words = message.payload["words"].copy()
        scales = message.payload["scales"].copy()
        decoded = np.empty(shape, dtype=np.float32)
        codec.decode_into(message, decoded, workspace=ws)

        decoder = codec.sum_decoder(shape, ws)
        for seed in (1, 2, 3):
            decoder.add(
                codec.encode_into(grad, np.random.default_rng(seed), ws)
            )
        summed = decoder.result().copy()
    return words, scales, decoded, summed


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("variant", ["sign", "grid"])
@pytest.mark.parametrize("norm", ["inf", "l2"])
@pytest.mark.parametrize("bits", [2, 4, 8, 16])
@pytest.mark.parametrize("bucket", [None, 64])
@pytest.mark.parametrize("zero_run", [False, True])
def test_qsgd_grid_bit_identity(backend, variant, norm, bits, bucket, zero_run):
    """Words, scales, decode and sum-decode match numpy on every cell."""
    for shape in SHAPES:
        got = _roundtrip(backend, variant, norm, bits, shape, bucket, zero_run)
        want = _roundtrip("numpy", variant, norm, bits, shape, bucket, zero_run)
        assert np.array_equal(got[0], want[0]), (shape, "words")
        assert _bits_equal(got[1], want[1]), (shape, "scales")
        assert _bits_equal(got[2], want[2]), (shape, "decode")
        assert _bits_equal(got[3], want[3]), (shape, "sum-decode")


@pytest.mark.parametrize("backend", COMPILED)
def test_pack_unpack_bit_identity(backend):
    rng = np.random.default_rng(3)
    for width in range(1, 33):
        for count in (0, 1, 7, 31, 32, 33, 100):
            codes = rng.integers(
                0, 1 << width, size=count, dtype=np.uint64
            )
            with kernels.use_backend("numpy"):
                want_words = bitpack.pack(codes, width)
            with kernels.use_backend(backend):
                words = bitpack.pack(codes, width)
                recovered = bitpack.unpack(words, count, width)
            assert np.array_equal(words, want_words), (width, count)
            assert np.array_equal(recovered, codes), (width, count)


@pytest.mark.parametrize("backend", COMPILED)
def test_subnormal_scales_stay_bit_identical(backend):
    # a subnormal inf-norm makes the grid step underflow to zero while
    # the scale stays positive: the safe-step substitution must match
    # the numpy reference exactly
    grad = np.full((300,), 1e-41, dtype=np.float32)
    grad[::3] *= -1.0
    for variant in ("sign", "grid"):
        codec = Qsgd(4, variant=variant)
        with kernels.use_backend("numpy"):
            want = codec.decode(codec.encode(grad, np.random.default_rng(5)))
        with kernels.use_backend(backend):
            got = codec.decode(codec.encode(grad, np.random.default_rng(5)))
        assert _bits_equal(got, want), variant


@pytest.mark.parametrize("backend", COMPILED)
def test_fused_accumulate_matches_zeros_then_add(backend):
    # BucketSumDecoder's fused decode-accumulate path must equal the
    # materialize-then-add path bit for bit, first add included
    codec = Qsgd(4)
    shape = (48, 30)
    grad = _gradient(shape, seed=9)
    messages = [
        codec.encode(grad, np.random.default_rng(r)) for r in range(3)
    ]
    with kernels.use_backend(backend):
        acc = None
        for message in messages:
            acc = codec._decode_acc_into(message, acc)
        want = np.zeros_like(acc)
        for message in messages:
            want += codec._decode_values(message)
    assert _bits_equal(acc, want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["sign", "grid"])
# bucket sizes word-aligned for every slot (64), aligned only for the
# wider slots (24), and never aligned (7) — the last two force the
# fused kernels' composed fallback
@pytest.mark.parametrize("bucket_size", [64, 24, 7])
def test_fused_packed_kernels_match_composition(backend, variant, bucket_size):
    """quantize_*_packed / dequantize_*_packed == unfused compose, bitwise.

    The fused entry points exist so compiled backends can skip
    materializing the code plane; the reference defines them as the
    exact composition of quantize+pack and unpack+dequantize, so every
    backend's fused output must match its own composed output bit for
    bit (zero-scale buckets and the accumulate variant included).
    """
    bits = 4
    slot = bitpack.slot_width(bits)
    lanes = (6, bucket_size)
    buckets = np.random.default_rng(11).normal(size=lanes).astype(np.float32)
    buckets[2, :] = 0.0  # zero-scale bucket
    scales = np.abs(buckets).max(axis=1)
    rand = np.random.default_rng(12).random(lanes)
    n_words = bitpack.packed_words(lanes[0] * lanes[1], bits)

    with kernels.use_backend(backend) as kern:
        ws = EncodeWorkspace()
        codes = np.empty(lanes, dtype=np.uint32)
        if variant == "sign":
            kern.quantize_sign(buckets, scales, bits, rand, codes, ws)
        else:
            kern.quantize_grid(buckets, scales, bits, rand, codes, ws)
        want_words = np.empty(n_words, dtype=np.uint32)
        kern.pack(codes.reshape(-1), slot, want_words, ws)

        words = np.empty(n_words, dtype=np.uint32)
        if variant == "sign":
            kern.quantize_sign_packed(buckets, scales, bits, rand, words, ws)
        else:
            kern.quantize_grid_packed(buckets, scales, bits, rand, words, ws)
        assert np.array_equal(words, want_words)

        want = np.empty(lanes, dtype=np.float32)
        out = np.empty(lanes, dtype=np.float32)
        if variant == "sign":
            kern.dequantize_sign(codes, scales, bits, want, False, ws)
            kern.dequantize_sign_packed(words, scales, bits, out, False, ws)
        else:
            kern.dequantize_grid(codes, scales, bits, want, False, ws)
            kern.dequantize_grid_packed(words, scales, bits, out, False, ws)
        assert _bits_equal(out, want)

        want_acc = np.zeros(lanes, dtype=np.float32)
        acc = np.zeros(lanes, dtype=np.float32)
        for _ in range(2):
            if variant == "sign":
                kern.dequantize_sign(codes, scales, bits, want_acc, True, ws)
                kern.dequantize_sign_packed(
                    words, scales, bits, acc, True, ws
                )
            else:
                kern.dequantize_grid(codes, scales, bits, want_acc, True, ws)
                kern.dequantize_grid_packed(
                    words, scales, bits, acc, True, ws
                )
        assert _bits_equal(acc, want_acc)


# -- 1bitSGD -------------------------------------------------------------

#: crosses numpy's pairwise thresholds (8 and 128, then the recursive
#: split) and the 32-bit word boundaries of the sign plane
ONEBIT_GROUP_LENGTHS = (
    list(range(1, 10)) + [15, 16, 17, 31, 32, 33, 127, 128, 129]
    + [255, 256, 257, 512] + list(range(1000, 1101))
)


def _onebit_groups(group_len, n_groups, seed):
    """Groups with +-0.0, NaN, +-inf and all-zero groups mixed in."""
    rng = np.random.default_rng(seed)
    groups = rng.normal(size=(n_groups, group_len)).astype(np.float32)
    specials = np.array(
        [0.0, -0.0, np.nan, np.inf, -np.inf], dtype=np.float32
    )
    hit = rng.random(groups.shape) < 0.05
    groups[hit] = rng.choice(specials, size=int(hit.sum()))
    groups[1] = rng.choice(specials[:2], size=group_len)  # all-zero group
    groups[2][rng.random(group_len) < 0.5] = -0.0
    # an all -0.0 group sums to -0.0 pairwise; the reduction's initial
    # +0.0 turns that into +0.0 before the division
    groups[3] = -0.0
    return groups


def _onebit_run(backend, groups, valid_count, target):
    """Encode, decode (set) and decode onto a non-zero ``target`` view."""
    with kernels.use_backend(backend):
        ws = EncodeWorkspace()
        avg_pos, avg_neg, words = (
            a.copy() for a in encode_groups_into(groups, valid_count, ws)
        )
        values = decode_groups_into(
            avg_pos, avg_neg, words, groups.shape[1], ws
        ).copy()
        target[...] = np.arange(target.size).reshape(target.shape) - 7.5
        kernels.active().onebit_decode(avg_pos, avg_neg, words, target,
                                       True, ws)
    return avg_pos, avg_neg, words, values, target.copy()


def _assert_onebit_equal(backend, groups, valid_count, make_target, case):
    got = _onebit_run(backend, groups, valid_count, make_target())
    want = _onebit_run("numpy", groups, valid_count, make_target())
    for name, a, b in zip(("avg_pos", "avg_neg", "words", "decode",
                           "accumulate"), got, want):
        assert _bits_equal(a, b), (case, name)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("group_len", ONEBIT_GROUP_LENGTHS)
def test_onebit_bit_identity(backend, group_len):
    """Means, words, decode and decode-accumulate match numpy bitwise.

    Contiguous groups (the reshaped codec's buckets), column slices
    ``m[:, lo:hi].T`` of a wider matrix (the column-wise codec under
    the mpi exchange, decoded back into the matching column slice),
    and zero-padded buckets whose tail counts on neither side.
    """
    groups = _onebit_groups(group_len, 5, seed=group_len)
    _assert_onebit_equal(
        backend, groups, None,
        lambda: np.empty(groups.shape, np.float32), "contiguous",
    )

    matrix = _onebit_groups(group_len, 40, seed=group_len + 1).T.copy()
    columns = matrix[:, 7:30].T
    _assert_onebit_equal(
        backend, columns, None,
        lambda: np.empty((group_len, 40), np.float32)[:, 7:30].T,
        "column slice",
    )

    for short in {0, 1, group_len - 1, group_len + 3}:
        valid = max(0, groups.size - short)
        padded = groups.copy()
        padded.reshape(-1)[valid:] = 0.0
        _assert_onebit_equal(
            backend, padded, valid,
            lambda: np.empty(groups.shape, np.float32), f"valid {valid}",
        )


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("side", ["pos", "neg"])
def test_onebit_sums_match_numpy_reduction(backend, side):
    """The compiled masked sums equal numpy's own ``masked.sum(axis=1)``.

    With a power-of-two count on one side the float64 division is exact
    and so is the rescale, so ``mean * count`` *is* that side's float32
    sum.  This compares against numpy's reduction itself, not a port of
    it: a numpy release that sums rows in another order fails here.
    """
    rng = np.random.default_rng(5)
    for group_len in ONEBIT_GROUP_LENGTHS:
        count = 1 << (group_len.bit_length() - 1)
        mags = rng.uniform(0.5, 2.0, size=(3, group_len)).astype(np.float32)
        signs = np.where(np.arange(group_len) < count, 1.0, -1.0)
        if side == "neg":
            signs = -signs
        groups = (mags * rng.permuted(np.tile(signs, (3, 1)), axis=1)).astype(
            np.float32
        )
        keep = groups >= 0 if side == "pos" else groups < 0
        masked = np.where(keep, groups, np.float32(0.0))
        want = masked.sum(axis=1)

        with kernels.use_backend(backend):
            avg_pos, avg_neg, _ = encode_groups_into(groups)
        mean = avg_pos if side == "pos" else avg_neg
        got = mean * np.float32(count)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (
            group_len
        )


@pytest.mark.parametrize("backend", COMPILED)
def test_onebit_ineligible_inputs_take_the_reference(backend):
    """float64 groups and unaligned views fall back, bit-identically."""
    groups = _onebit_groups(40, 6, seed=3)
    raw = np.zeros(groups.size * 4 + 1, np.uint8)
    unaligned = raw[1:].view(np.float32).reshape(groups.shape)
    unaligned[...] = groups
    for case in (groups.astype(np.float64), unaligned):
        _assert_onebit_equal(
            backend, case, None,
            lambda: np.empty(groups.shape, np.float32), str(case.dtype),
        )


@pytest.mark.parametrize("backend", COMPILED)
def test_onebit_mpi_training_digest_matches_reference(backend):
    """1bit x mpi x K=2, three steps: equal history digests per backend."""
    data = make_image_dataset(
        num_classes=4, train_samples=48, test_samples=16, image_size=8,
        noise=0.8, seed=0,
    )

    def digest(name):
        config = TrainingConfig(
            scheme="1bit", exchange="mpi", world_size=2, batch_size=16,
            lr=0.05, seed=3, engine="sequential",
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        with kernels.use_backend(name):
            history = ParallelTrainer(model, config).fit(
                data.train_x, data.train_y, data.test_x, data.test_y,
                epochs=1,
            )
        return history.digest()

    assert digest(backend) == digest("numpy")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", ["words", "avg_pos", "avg_neg"])
def test_onebit_decode_rejects_short_payload(backend, field):
    """A payload array one entry short raises; no kernel reads past it."""
    codec = OneBitSgd()
    message = codec.encode(_gradient((40, 6), seed=3))
    bad = EncodedTensor(
        scheme=message.scheme,
        shape=message.shape,
        payload={**message.payload, field: message.payload[field][:-1]},
        meta=message.meta,
    )
    with kernels.use_backend(backend), pytest.raises(ValueError):
        codec.decode(bad)


#: bucketed codec -> the payload section carrying its codes
BUCKETED_CODE_SECTIONS = {
    "qsgd4": "words",
    "qsgd8-grid": "words",
    "terngrad": "words",
    "dettmers8": "codes",
    "aqsgd4": "words",
}
#: corruption -> (payload edit, the section the error must name)
PAYLOAD_CORRUPTIONS = {
    "codes-short": lambda p, codes: ({codes: p[codes][:-1]}, codes),
    "scales-mismatch": lambda p, codes: ({"scales": p["scales"][:-1]}, codes),
    "levels-short": lambda p, codes: ({"levels": p["levels"][:-1]}, "levels"),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "codec_key, corruption",
    [
        (codec_key, corruption)
        for codec_key in BUCKETED_CODE_SECTIONS
        for corruption in PAYLOAD_CORRUPTIONS
        if corruption != "levels-short" or codec_key.startswith("aqsgd")
    ],
)
def test_bucketed_decode_rejects_corrupt_payload(backend, codec_key, corruption):
    # a payload that disagrees with its bucket geometry is named with a
    # ValueError on every decode path, never indexed out of bounds
    scheme, _, variant = codec_key.partition("-")
    kwargs = {"variant": variant} if variant else {}
    codec = make_quantizer(scheme, bucket_size=64, **kwargs)
    message = codec.encode(
        _gradient((16, 16), seed=3), np.random.default_rng(0)
    )
    edit, named = PAYLOAD_CORRUPTIONS[corruption](
        message.payload, BUCKETED_CODE_SECTIONS[codec_key]
    )
    bad = EncodedTensor(
        scheme=message.scheme,
        shape=message.shape,
        payload={**message.payload, **edit},
        meta=message.meta,
    )
    decoders = {
        "decode": codec.decode,
        "decode_into": lambda m: codec.decode_into(
            m, np.zeros(m.shape, np.float32), True, EncodeWorkspace()
        ),
        "sum_decoder": lambda m: codec.sum_decoder(m.shape).add(m),
    }
    with kernels.use_backend(backend):
        for path, decode in decoders.items():
            with pytest.raises(ValueError, match=named):
                decode(bad)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("codec_key", sorted(BUCKETED_CODE_SECTIONS))
def test_nan_gradient_poisons_its_bucket_under_every_backend(backend, codec_key):
    # the absmax scale propagates a NaN like numpy's max: its bucket
    # decodes to NaN on every backend and the other buckets stay finite
    scheme, _, variant = codec_key.partition("-")
    kwargs = {"variant": variant} if variant else {}
    codec = make_quantizer(scheme, bucket_size=64, **kwargs)
    grad = _gradient((16, 16), seed=3)
    grad[5, 2] = np.nan  # column-major position 37: the first bucket
    with kernels.use_backend(backend), np.errstate(invalid="ignore"):
        decoded = codec.decode(codec.encode(grad, np.random.default_rng(0)))
    flat = decoded.ravel(order="F")
    assert np.isnan(flat[:64]).all()
    assert np.isfinite(flat[64:]).all()


def test_bucket_sum_decoder_rejects_mismatched_geometry():
    codec = Qsgd(4)
    decoder = codec.sum_decoder((8, 8))
    rng = np.random.default_rng(0)
    decoder.add(codec.encode(_gradient((8, 8), seed=1), rng))
    other = codec.encode(_gradient((100,), seed=2), rng)
    with pytest.raises(ValueError, match="geometry"):
        decoder.add(other)


class TestRegistry:
    def test_numpy_backend_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_active_is_cached(self):
        assert kernels.active() is kernels.active()

    def test_use_backend_pins_and_restores(self):
        before = kernels.backend_name()
        with kernels.use_backend("numpy") as module:
            assert module.name == "numpy"
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before

    def test_set_backend_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("cuda")

    def test_forced_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        with pytest.raises(ValueError, match="unknown backend"):
            kernels._select()

    def test_forced_valid_backend_is_selected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert kernels._select().name == "numpy"

    def test_retired_backend_name_is_unknown(self, monkeypatch):
        # numba was a backend once; a stale env value must be refused
        # like any other unknown name, before anything loads
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        with pytest.raises(ValueError, match="choose from cext, numpy"):
            kernels.requested_backend()

    def test_requested_backend_loads_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", " CEXT ")

        def no_load(name):
            raise AssertionError(f"{name} was loaded")

        monkeypatch.setattr(kernels, "_try_load", no_load)
        assert kernels.requested_backend() == "cext"
        monkeypatch.delenv("REPRO_KERNELS")
        assert kernels.requested_backend() == ""

    def test_forced_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "cext")

        def unavailable(name):
            kernels._load_errors[name] = ImportError("not installed")
            return None

        monkeypatch.setattr(kernels, "_try_load", unavailable)
        with pytest.raises(RuntimeError, match="cext"):
            kernels._select()

    def test_set_backend_unavailable_raises(self, monkeypatch):
        def unavailable(name):
            kernels._load_errors[name] = ImportError("not installed")
            return None

        monkeypatch.setattr(kernels, "_try_load", unavailable)
        with pytest.raises(RuntimeError, match="not available"):
            kernels.set_backend("cext")

    def test_auto_selection_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)

        def numpy_only(name):
            if name == "numpy":
                return ref_backend
            kernels._load_errors[name] = ImportError("not installed")
            return None

        monkeypatch.setattr(kernels, "_try_load", numpy_only)
        assert kernels._select().name == "numpy"
