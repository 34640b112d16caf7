"""Tests for the small-matrix passthrough policy."""

import numpy as np
import pytest

from repro.quantization import (
    FullPrecision,
    Qsgd,
    QuantizationPolicy,
    passthrough_threshold,
)


class TestPassthroughThreshold:
    def test_empty_inventory(self):
        assert passthrough_threshold([]) == 0

    def test_single_matrix_never_skipped(self):
        assert passthrough_threshold([1000]) == 0

    def test_coverage_rule(self):
        # biases are 1% of params here; they may all be skipped
        sizes = [10, 10, 10, 10000, 10000]
        threshold = passthrough_threshold(sizes, coverage=0.99)
        quantized = sum(s for s in sizes if s >= threshold)
        assert quantized / sum(sizes) > 0.99

    def test_paper_rule_on_realistic_model(self):
        # "we always quantize more than 99% of all parameters"
        from repro.models.specs import get_network

        spec = get_network("ResNet50")
        sizes = [layer.size for layer in spec.layers]
        threshold = passthrough_threshold(sizes)
        quantized = sum(s for s in sizes if s >= threshold)
        assert quantized / sum(sizes) > 0.99
        # and it does actually skip the tiny matrices
        assert threshold > 1

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            passthrough_threshold([10], coverage=0.0)
        with pytest.raises(ValueError):
            passthrough_threshold([10], coverage=1.5)


class TestQuantizationPolicy:
    def test_routes_small_to_fullprec(self):
        policy = QuantizationPolicy(Qsgd(4), threshold=100)
        assert isinstance(policy.codec_for(99), FullPrecision)
        assert isinstance(policy.codec_for(100), Qsgd)

    def test_zero_threshold_quantizes_everything(self):
        policy = QuantizationPolicy(Qsgd(4), threshold=0)
        assert isinstance(policy.codec_for(1), Qsgd)

    def test_encode_decode_roundtrip_through_policy(self):
        policy = QuantizationPolicy(Qsgd(8, bucket_size=64), threshold=50)
        small = np.ones(10, dtype=np.float32)
        codec = policy.codec_for(small.size)
        message = codec.encode(small, np.random.default_rng(0))
        assert message.scheme == "32bit"
        np.testing.assert_array_equal(codec.decode(message), small)

        rng = np.random.default_rng(1)
        large = rng.normal(size=256).astype(np.float32)
        codec = policy.codec_for(large.size)
        message = codec.encode(large, np.random.default_rng(2))
        assert message.scheme == "qsgd8"
        decoded = codec.decode(message)
        assert np.abs(decoded - large).mean() < 0.1

    def test_for_model_constructor(self):
        sizes = [10, 10, 100000]
        policy = QuantizationPolicy.for_model(Qsgd(4), sizes)
        assert isinstance(policy.codec_for(10), FullPrecision)
        assert isinstance(policy.codec_for(100000), Qsgd)
