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
        policy = QuantizationPolicy(
            Qsgd(4), [("b", 99, "bias"), ("W", 100_000, "fc")]
        )
        assert policy.threshold == 100
        assert isinstance(policy.table["b"], FullPrecision)
        assert policy.table["W"] is policy.quantizer

    def test_zero_threshold_quantizes_everything(self):
        policy = QuantizationPolicy(
            Qsgd(4), [("b", 1, "bias"), ("W", 1000, "fc")], coverage=1.0
        )
        assert policy.threshold == 0
        assert all(isinstance(c, Qsgd) for c in policy.table.values())

    def test_encode_decode_roundtrip_through_policy(self):
        policy = QuantizationPolicy(
            Qsgd(8, bucket_size=64),
            [("small", 10, "bias"), ("large", 256, "fc"),
             ("huge", 2_000, "fc")],
        )
        small = np.ones(10, dtype=np.float32)
        codec = policy.table["small"]
        message = codec.encode(small, np.random.default_rng(0))
        assert message.scheme == "32bit"
        np.testing.assert_array_equal(codec.decode(message), small)

        rng = np.random.default_rng(1)
        large = rng.normal(size=256).astype(np.float32)
        codec = policy.table["large"]
        message = codec.encode(large, np.random.default_rng(2))
        assert message.scheme == "qsgd8"
        decoded = codec.decode(message)
        assert np.abs(decoded - large).mean() < 0.1

    def test_for_model_constructor(self):
        # the table covers the model's inventory, one shared codec
        # instance per route
        inventory = [("a", 10, "bias"), ("b", 10, "bias"), ("W", 100000, "fc")]
        policy = QuantizationPolicy(Qsgd(4), inventory)
        assert list(policy.table) == ["a", "b", "W"]
        assert policy.table["a"] is policy.table["b"] is policy.fullprec
        assert policy.table["W"] is policy.quantizer

    def test_kinds_override_ships_other_kinds_at_full_precision(self):
        inventory = [("conv1.W", 50_000, "conv"), ("fc1.W", 50_000, "fc")]
        policy = QuantizationPolicy(Qsgd(4), inventory, quantize_kinds=("fc",))
        assert policy.table["conv1.W"] is policy.fullprec
        assert policy.table["fc1.W"] is policy.quantizer

    def test_kinds_override_outranks_the_adaptive_table(self):
        # the override is applied when the table is built, over an
        # adopted (carried) assignment table too
        inventory = [("conv1.W", 50_000, "conv"), ("fc1.W", 50_000, "fc")]
        policy = QuantizationPolicy(
            Qsgd(4), inventory, adaptive=True, quantize_kinds=("conv",)
        )
        assert policy.assignments == {"conv1.W": "qsgd8", "fc1.W": "terngrad"}
        assert policy.table["conv1.W"].name == "qsgd8"
        assert policy.table["fc1.W"] is policy.fullprec
        policy.adopt({"conv1.W": "qsgd2", "fc1.W": "qsgd2"})
        assert policy.table["conv1.W"].name == "qsgd2"
        assert policy.table["fc1.W"] is policy.fullprec
