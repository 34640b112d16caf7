"""Tests for the extension codecs: top-k sparsification and
non-uniform-level (adaptive) QSGD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    AdaptiveQsgd,
    ErrorFeedback,
    Qsgd,
    TopK,
    lloyd_max_levels,
    make_quantizer,
)
from repro.quantization.base import Quantizer

from .feedback import feed_back


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        codec = TopK(density=0.375)  # 3 of 8 survive
        grad = np.array([0.1, -5.0, 0.2, 4.0, -0.3, 0.1, 0.05, 3.0],
                        dtype=np.float32)
        decoded = codec.roundtrip(grad)
        kept = np.nonzero(decoded)[0]
        np.testing.assert_array_equal(sorted(kept), [1, 3, 7])

    def test_kept_values_exact(self):
        codec = TopK(density=0.5)
        rng = np.random.default_rng(0)
        grad = rng.normal(size=64).astype(np.float32)
        decoded = codec.roundtrip(grad)
        kept = decoded != 0
        np.testing.assert_array_equal(decoded[kept], grad[kept])

    def test_density_one_is_lossless(self):
        codec = TopK(density=1.0)
        rng = np.random.default_rng(1)
        grad = rng.normal(size=(8, 8)).astype(np.float32)
        np.testing.assert_array_equal(codec.roundtrip(grad), grad)

    def test_at_least_one_survivor(self):
        codec = TopK(density=0.001)
        grad = np.array([1.0, 2.0], dtype=np.float32)
        assert np.count_nonzero(codec.roundtrip(grad)) == 1

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            TopK(0.0)
        with pytest.raises(ValueError):
            TopK(1.5)

    def test_wire_size_is_8_bytes_per_survivor(self):
        codec = TopK(density=0.1)
        grad = np.zeros(1000, dtype=np.float32)
        assert codec.encode(grad).nbytes == 20 + 8 * 100

    def test_analytic_nbytes_matches_encoding(self):
        codec = TopK(density=0.1)
        for shape in [(1000,), (13, 7), (3,)]:
            assert codec.encoded_nbytes(shape) == Quantizer.encoded_nbytes(
                codec, shape
            )

    def test_paper_relatedwork_argument(self):
        # >10% density (as the paper measured on Inception) costs more
        # bits per element than dense 4-bit QSGD
        dense = Qsgd(4, bucket_size=512)
        sparse = TopK(density=0.10)
        grad = np.random.default_rng(2).normal(size=100_000).astype(
            np.float32
        )
        rng = np.random.default_rng(3)
        assert (
            sparse.encode(grad, rng).bits_per_element
            > dense.encode(grad, rng).bits_per_element
        )

    def test_error_feedback_recovers_dropped_mass(self):
        codec = TopK(density=0.1)
        feedback = ErrorFeedback()
        grad = np.linspace(0.1, 1.0, 50).astype(np.float32)
        total = np.zeros_like(grad)
        rounds = 200
        for _ in range(rounds):
            total += feed_back(feedback, codec, "w", grad)
        # small coordinates are sent in cycles; the cycle amplitude
        # bounds the deviation of the running mean
        np.testing.assert_allclose(total / rounds, grad, atol=0.06)

    def test_registry_name(self):
        codec = make_quantizer("topk0.05")
        assert isinstance(codec, TopK)
        assert codec.density == 0.05


class TestLloydMaxLevels:
    def test_endpoints_pinned(self):
        levels = lloyd_max_levels(np.random.default_rng(0).random(500), 8)
        assert levels[0] == 0.0
        assert levels[-1] >= 1.0

    def test_levels_increasing(self):
        levels = lloyd_max_levels(np.random.default_rng(1).random(500), 8)
        assert (np.diff(levels) > 0).all()

    def test_adapts_to_skewed_distribution(self):
        # most mass near zero: interior levels must crowd low
        skewed = np.random.default_rng(2).random(2000) ** 4
        levels = lloyd_max_levels(skewed, 8)
        uniform = np.linspace(0, 1, 8)
        assert levels[1:-1].mean() < uniform[1:-1].mean()

    def test_empty_sample_gives_uniform(self):
        levels = lloyd_max_levels(np.zeros(0), 4)
        np.testing.assert_allclose(levels, np.linspace(0, 1, 4))

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            lloyd_max_levels(np.ones(4), 1)


class TestAdaptiveQsgd:
    def test_roundtrip_shape(self):
        codec = AdaptiveQsgd(4, bucket_size=64)
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(16, 16)).astype(np.float32)
        assert codec.roundtrip(grad, rng).shape == grad.shape

    def test_nearly_unbiased(self):
        codec = AdaptiveQsgd(4, bucket_size=128)
        rng = np.random.default_rng(1)
        grad = rng.normal(size=256).astype(np.float32)
        total = np.zeros_like(grad, dtype=np.float64)
        n = 300
        for i in range(n):
            total += codec.roundtrip(grad, np.random.default_rng(i))
        assert np.abs(total / n - grad).max() < 0.25

    def test_never_expands_values(self):
        codec = AdaptiveQsgd(4, bucket_size=32)
        rng = np.random.default_rng(2)
        grad = rng.normal(size=128).astype(np.float32)
        decoded = codec.roundtrip(grad, np.random.default_rng(3))
        assert np.abs(decoded).max() <= np.abs(grad).max() + 1e-5

    def test_zero_vector(self):
        codec = AdaptiveQsgd(4)
        grad = np.zeros(64, dtype=np.float32)
        np.testing.assert_array_equal(
            codec.roundtrip(grad, np.random.default_rng(0)), 0.0
        )

    def test_lower_error_than_uniform_on_heavytailed_gradients(self):
        # the point of adaptive levels: better fit to the magnitude
        # distribution (the paper found the gain insignificant for
        # training, which EXPERIMENTS.md revisits)
        rng = np.random.default_rng(4)
        grad = (rng.standard_t(df=2, size=16384)).astype(np.float32)
        uniform = Qsgd(4, bucket_size=16384, norm="inf")
        adaptive = AdaptiveQsgd(4, bucket_size=16384)
        err_uniform = np.square(
            uniform.roundtrip(grad, np.random.default_rng(5)) - grad
        ).mean()
        err_adaptive = np.square(
            adaptive.roundtrip(grad, np.random.default_rng(5)) - grad
        ).mean()
        assert err_adaptive < err_uniform

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            AdaptiveQsgd(1)
        with pytest.raises(ValueError):
            AdaptiveQsgd(16)

    def test_registry_name(self):
        codec = make_quantizer("aqsgd4", bucket_size=64)
        assert isinstance(codec, AdaptiveQsgd)
        assert codec.bucket_size == 64

    @settings(max_examples=20, deadline=None)
    @given(bits=st.sampled_from([2, 4, 8]), seed=st.integers(0, 100))
    def test_roundtrip_property(self, bits, seed):
        codec = AdaptiveQsgd(bits, bucket_size=32)
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=96).astype(np.float32)
        decoded = codec.roundtrip(grad, np.random.default_rng(seed + 1))
        assert decoded.shape == grad.shape
        assert np.isfinite(decoded).all()


class TestUnknownSchemeError:
    def test_message_enumerates_builtin_schemes(self):
        from repro.quantization import SCHEME_NAMES

        with pytest.raises(ValueError) as excinfo:
            make_quantizer("float8")
        text = str(excinfo.value)
        assert "'float8'" in text
        for name in SCHEME_NAMES:
            assert name in text

    def test_message_shows_extension_syntax_examples(self):
        # the error must teach the parameterized spellings, with a
        # concrete example for each extension family
        with pytest.raises(ValueError) as excinfo:
            make_quantizer("nope")
        text = str(excinfo.value)
        assert "aqsgd4" in text
        assert "topk0.01" in text
        assert "terngrad2.5" in text

    def test_extension_examples_are_constructible(self):
        # every example the error advertises must actually parse
        from repro.quantization import EXTENSION_SCHEME_EXAMPLES

        for example in EXTENSION_SCHEME_EXAMPLES:
            spelling = example.split()[0].replace("<bits>", "4")
            spelling = spelling.replace("<density>", "0.01")
            spelling = spelling.replace("<clip>", "2.5")
            assert isinstance(make_quantizer(spelling), Quantizer)

    def test_malformed_extension_parameter_still_raises(self):
        with pytest.raises(ValueError):
            make_quantizer("terngradfoo")
        with pytest.raises(ValueError):
            make_quantizer("aqsgdx")
        with pytest.raises(ValueError):
            make_quantizer("topkzz")
        # a clip that parses as a float but is not finite would make
        # every decode NaN: refused at construction like a negative one
        for name in ("terngradnan", "terngradinf"):
            with pytest.raises(ValueError, match="clip"):
                make_quantizer(name)
