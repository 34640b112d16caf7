"""Property-based tests for the quantized wire format.

The grid tests elsewhere pin exact values on chosen examples; these
tests assert the *laws* every scheme must satisfy on arbitrary inputs —
Alistarh et al.'s QSGD guarantees (bounded per-element error from the
level spacing, unbiasedness of the stochastic rounding), exact wire
sizes, the error-feedback telescoping identity, and the bit-packing
roundtrip — including the degenerate shapes (empty, scalar,
non-multiple-of-bucket lengths) real layers never produce but the
format must survive.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    SCHEME_NAMES,
    ErrorFeedback,
    bitpack,
    dynamic_tree_values,
    kernels,
    make_quantizer,
)

from .feedback import feed_back

# Every law below must hold under every kernel backend — the compiled
# QSGD/bitpack kernels included (notably the error-feedback telescoping
# identity, which compounds per-step decode results across a stream).
# The whole module runs once per available backend; a REPRO_KERNELS pin
# (as in the numpy-only CI jobs) restricts the run to that backend.
_FORCED = os.environ.get("REPRO_KERNELS", "").strip().lower()
BACKENDS = (_FORCED,) if _FORCED else kernels.available_backends()


@pytest.fixture(scope="module", params=BACKENDS, autouse=True)
def kernel_backend(request):
    with kernels.use_backend(request.param):
        yield request.param

ALL_SCHEMES = st.sampled_from(SCHEME_NAMES)
QSGD_SCHEMES = st.sampled_from(["qsgd16", "qsgd8", "qsgd4", "qsgd2"])
EF_SCHEMES = st.sampled_from(["1bit", "1bit*", "qsgd4", "qsgd2", "terngrad"])
DETTMERS_SCHEMES = st.sampled_from(["dettmers8", "dettmers8c"])

# shapes that exercise the wire format's corners: empty tensors,
# scalars, 1-D lengths straddling every default bucket size, and
# small matrices/conv-like stacks (first dim = rows for 1bit)
SHAPES = st.one_of(
    st.just(()),
    st.just((0,)),
    st.just((0, 3)),
    st.just((4, 0)),
    st.tuples(st.integers(1, 600)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(
        st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)
    ),
)


def gradient(shape, seed):
    return (
        np.random.default_rng(seed)
        .normal(scale=2.0, size=shape)
        .astype(np.float32)
    )


def qsgd_levels(scheme):
    bits = int(scheme.removeprefix("qsgd"))
    return 2 ** (bits - 1) - 1


class TestRoundtripErrorBounds:
    @settings(max_examples=60, deadline=None)
    @given(scheme=ALL_SCHEMES, shape=SHAPES, seed=st.integers(0, 99))
    def test_decode_preserves_shape_and_finiteness(
        self, scheme, shape, seed
    ):
        grad = gradient(shape, seed)
        quantizer = make_quantizer(scheme)
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        assert decoded.shape == grad.shape
        assert decoded.dtype == np.float32
        assert np.isfinite(decoded).all()

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 99))
    def test_fullprec_roundtrip_is_exact(self, shape, seed):
        grad = gradient(shape, seed)
        quantizer = make_quantizer("32bit")
        decoded = quantizer.decode(quantizer.encode(grad))
        assert np.array_equal(decoded, grad)

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=QSGD_SCHEMES, shape=SHAPES, seed=st.integers(0, 99)
    )
    def test_qsgd_error_bounded_by_level_spacing(
        self, scheme, shape, seed
    ):
        # stochastic rounding lands on one of the two levels bracketing
        # each entry, so per-element error < scale / levels; the scale
        # is a per-bucket max (inf norm), bounded by the global max
        grad = gradient(shape, seed)
        quantizer = make_quantizer(scheme)
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        if grad.size == 0:
            return
        spacing = np.abs(grad).max() / qsgd_levels(scheme)
        assert np.abs(decoded - grad).max() <= spacing * (1 + 1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(["1bit", "1bit*"]),
        shape=SHAPES,
        seed=st.integers(0, 99),
    )
    def test_onebit_error_bounded_by_value_range(
        self, scheme, shape, seed
    ):
        # each entry is replaced by the mean of its sign group, which
        # lies inside the group's value range
        grad = gradient(shape, seed)
        quantizer = make_quantizer(scheme)
        decoded = quantizer.decode(quantizer.encode(grad))
        if grad.size == 0:
            return
        spread = float(grad.max() - grad.min())
        assert np.abs(decoded - grad).max() <= spread * (1 + 1e-5)


class TestTernGrad:
    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 99))
    def test_error_bounded_by_bucket_max(self, shape, seed):
        # every entry lands on 0 or +/-s where s is its bucket's max
        # magnitude, so per-element error never exceeds s
        grad = gradient(shape, seed)
        quantizer = make_quantizer("terngrad")
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        if grad.size == 0:
            return
        absmax = float(np.abs(grad).max())
        assert np.abs(decoded - grad).max() <= absmax * (1 + 1e-5)

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 99))
    def test_decoded_values_are_ternary(self, shape, seed):
        # the decoded tensor takes at most three distinct values per
        # bucket: {-s, 0, +s}
        grad = gradient(shape, seed)
        quantizer = make_quantizer("terngrad")
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        if grad.size == 0:
            return
        absmax = float(np.abs(grad).max())
        flat = np.abs(decoded.reshape(-1))
        on_scale = np.isclose(flat, absmax, rtol=1e-6)
        at_zero = flat == 0.0
        assert np.all(on_scale | at_zero)

    @settings(max_examples=8, deadline=None)
    @given(length=st.integers(1, 40), seed=st.integers(0, 20))
    def test_unbiased_without_clipping(self, length, seed):
        # E[decode(encode(g))] == g: each entry fires +/-s with
        # probability |g|/s, so the expectation is exactly g (TernGrad
        # Theorem 1; holds only with gradient clipping off)
        grad = gradient((length,), seed)
        quantizer = make_quantizer("terngrad")
        trials = 400
        total = np.zeros_like(grad, dtype=np.float64)
        for trial in range(trials):
            message = quantizer.encode(
                grad, np.random.default_rng(seed * trials + trial)
            )
            total += quantizer.decode(message)
        scale = float(np.abs(grad).max())
        # each decode is s*Bernoulli with variance <= s^2/4, so the
        # empirical mean's standard error is <= s / (2 sqrt(trials))
        tolerance = 6.0 * scale / (2.0 * np.sqrt(trials)) + 1e-7
        assert np.abs(total / trials - grad).max() <= tolerance

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 300)),
            st.tuples(st.integers(1, 10), st.integers(1, 10)),
        ),
        seed=st.integers(0, 99),
        clip=st.floats(0.5, 5.0),
    )
    def test_clipped_variant_stays_bounded(self, shape, seed, clip):
        # clipping caps magnitudes at clip*sigma before scaling, so the
        # decoded values never exceed the clipped bucket max
        grad = gradient(shape, seed)
        quantizer = make_quantizer(f"terngrad{clip}")
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        sigma = float(np.std(grad.astype(np.float64)))
        bound = min(
            float(np.abs(grad).max()),
            clip * sigma if sigma > 0 else float(np.abs(grad).max()),
        )
        assert np.abs(decoded).max() <= bound * (1 + 1e-5)


class TestDettmersDynamicTree:
    @settings(max_examples=30, deadline=None)
    @given(bits=st.integers(3, 8))
    def test_code_to_value_mapping_is_strictly_monotone(self, bits):
        # the dynamic tree's defining property: magnitude codes map to
        # strictly increasing values, anchored at 0 and 1.0
        values = dynamic_tree_values(bits)
        assert values.size == 2 ** (bits - 1)
        assert values[0] == 0.0
        assert values[-1] == 1.0
        assert np.all(np.diff(values) > 0)
        assert np.all(values >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=DETTMERS_SCHEMES, shape=SHAPES, seed=st.integers(0, 99)
    )
    def test_error_bounded_by_widest_level_gap(self, scheme, shape, seed):
        # nearest-level rounding on the normalized magnitude: the error
        # is at most half the widest gap between adjacent tree levels,
        # times the (per-bucket, hence <= global) max-magnitude scale
        grad = gradient(shape, seed)
        quantizer = make_quantizer(scheme)
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        if grad.size == 0:
            return
        levels = dynamic_tree_values(8)
        widest = float(np.diff(levels).max())
        absmax = float(np.abs(grad).max())
        bound = absmax * (widest / 2.0) * (1 + 1e-5) + 1e-12
        assert np.abs(decoded - grad).max() <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=DETTMERS_SCHEMES, shape=SHAPES, seed=st.integers(0, 99)
    )
    def test_roundtrip_preserves_sign(self, scheme, shape, seed):
        # the sign bit rides in the high code bit: decoded entries are
        # zero or carry the original sign
        grad = gradient(shape, seed)
        quantizer = make_quantizer(scheme)
        decoded = quantizer.decode(
            quantizer.encode(grad, np.random.default_rng(seed + 1))
        )
        nonzero = decoded != 0.0
        assert np.all(
            np.sign(decoded[nonzero]) == np.sign(grad[nonzero])
        )


class TestQsgdUnbiasedness:
    @settings(max_examples=8, deadline=None)
    @given(
        scheme=QSGD_SCHEMES,
        length=st.integers(1, 40),
        seed=st.integers(0, 20),
    )
    def test_decode_mean_converges_to_gradient(
        self, scheme, length, seed
    ):
        # E[decode(encode(g))] == g for QSGD's stochastic rounding; the
        # empirical mean over many independent rounding streams must
        # approach g at the 1/sqrt(n) rate
        grad = gradient((length,), seed)
        quantizer = make_quantizer(scheme)
        trials = 400
        total = np.zeros_like(grad, dtype=np.float64)
        for trial in range(trials):
            message = quantizer.encode(
                grad, np.random.default_rng(seed * trials + trial)
            )
            total += quantizer.decode(message)
        spacing = np.abs(grad).max() / qsgd_levels(scheme)
        # rounding error is uniform within one level gap, so the mean's
        # standard error is < spacing / sqrt(trials); 6 sigma of margin
        tolerance = 6.0 * spacing / np.sqrt(trials) + 1e-7
        assert np.abs(total / trials - grad).max() <= tolerance


class TestEncodedNbytes:
    @settings(max_examples=80, deadline=None)
    @given(scheme=ALL_SCHEMES, shape=SHAPES, seed=st.integers(0, 99))
    def test_predicted_size_matches_actual_message(
        self, scheme, shape, seed
    ):
        grad = gradient(shape, seed)
        quantizer = make_quantizer(scheme)
        message = quantizer.encode(
            grad, np.random.default_rng(seed + 1)
        )
        assert message.nbytes == quantizer.encoded_nbytes(shape)


class TestErrorFeedbackInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        scheme=EF_SCHEMES,
        shape=st.one_of(
            st.tuples(st.integers(1, 300)),
            st.tuples(st.integers(1, 10), st.integers(1, 10)),
        ),
        seed=st.integers(0, 99),
        rounds=st.integers(1, 4),
    )
    def test_transmitted_plus_residual_equals_original(
        self, scheme, shape, seed, rounds
    ):
        # each round: corrected = grad + residual_prev, and
        # residual_new = corrected - decoded, so
        # decoded + residual_new == grad + residual_prev (up to fp)
        codec = make_quantizer(scheme)
        feedback = ErrorFeedback()
        rng = np.random.default_rng(seed + 1)
        for round_index in range(rounds):
            grad = gradient(shape, seed * 10 + round_index)
            residual_prev = feedback.residual("w", grad).copy()
            decoded = feed_back(feedback, codec, "w", grad, rng)
            residual_new = feedback.residual("w", grad)
            np.testing.assert_allclose(
                decoded + residual_new,
                grad + residual_prev,
                rtol=1e-5,
                atol=1e-5,
            )

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=EF_SCHEMES,
        length=st.integers(1, 200),
        seed=st.integers(0, 99),
    )
    def test_telescoping_identity_over_a_stream(
        self, scheme, length, seed
    ):
        # sum_t decoded_t == sum_t grad_t - residual_T exactly (up to
        # fp accumulation): the bias cancels over the stream
        codec = make_quantizer(scheme)
        feedback = ErrorFeedback()
        rng = np.random.default_rng(seed + 1)
        grads = [gradient((length,), seed * 10 + t) for t in range(5)]
        decoded_sum = np.zeros(length, dtype=np.float64)
        for grad in grads:
            decoded_sum += feed_back(feedback, codec, "w", grad, rng)
        expected = np.sum(grads, axis=0, dtype=np.float64)
        expected -= feedback.residuals["w"]
        np.testing.assert_allclose(
            decoded_sum, expected, rtol=1e-4, atol=1e-4
        )


class TestBitpackRoundtrip:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, 32),
        count=st.integers(0, 200),
        seed=st.integers(0, 99),
    )
    def test_pack_unpack_roundtrip(self, width, count, seed):
        codes = np.random.default_rng(seed).integers(
            0, 2**width, size=count, dtype=np.uint64
        )
        words = bitpack.pack(codes, width)
        assert words.size == bitpack.packed_words(count, width)
        recovered = bitpack.unpack(words, count, width)
        assert recovered.size == count
        assert np.array_equal(recovered, codes)

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 32), count=st.integers(0, 200))
    def test_extreme_codes_survive(self, width, count):
        # all-zeros and all-max are the patterns sign/carry bugs eat
        top = (1 << width) - 1
        for value in (0, top):
            codes = np.full(count, value, dtype=np.uint64)
            recovered = bitpack.unpack(
                bitpack.pack(codes, width), count, width
            )
            assert np.array_equal(recovered, codes)
