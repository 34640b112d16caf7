"""Tests for the per-matrix cost model."""

import pytest

from repro.models.specs import get_network
from repro.simulator import NetworkCostModel
from repro.simulator.costmodel import cached_cost_model


class TestPayloads:
    def test_fullprec_payload_is_four_bytes_per_param(self):
        spec = get_network("AlexNet")
        cost = NetworkCostModel(spec, "32bit", world_size=8)
        payload = cost.total_whole_bytes
        assert payload == pytest.approx(4 * spec.parameter_count, rel=0.01)

    def test_qsgd4_compresses_roughly_8x(self):
        spec = get_network("AlexNet")
        full = NetworkCostModel(spec, "32bit", world_size=8)
        quant = NetworkCostModel(spec, "qsgd4", world_size=8)
        ratio = full.total_whole_bytes / quant.total_whole_bytes
        assert 7 < ratio < 8.2

    def test_stock_1bit_expands_conv_networks(self):
        # Section 3.2.2: on conv-dominated nets stock 1bitSGD sends
        # MORE bytes than full precision
        spec = get_network("ResNet152")
        full = NetworkCostModel(spec, "32bit", world_size=8)
        onebit = NetworkCostModel(spec, "1bit", world_size=8)
        assert onebit.total_whole_bytes > full.total_whole_bytes

    def test_stock_1bit_compresses_fc_networks(self):
        spec = get_network("AlexNet")
        full = NetworkCostModel(spec, "32bit", world_size=8)
        onebit = NetworkCostModel(spec, "1bit", world_size=8)
        # AlexNet's conv layers barely compress under the column
        # scheme, but the FC mass dominates: ~10x overall
        assert onebit.total_whole_bytes < full.total_whole_bytes / 8

    def test_reshaping_fixes_conv_networks(self):
        # the 1bitSGD* fix: ~up to 4x less data than stock on ResNet
        spec = get_network("ResNet152")
        stock = NetworkCostModel(spec, "1bit", world_size=8)
        reshaped = NetworkCostModel(spec, "1bit*", world_size=8)
        assert stock.total_whole_bytes > 10 * reshaped.total_whole_bytes

    def test_range_bytes_close_to_whole_bytes(self):
        # per-range encoding adds headers/tail-bucket overhead only
        spec = get_network("VGG19")
        cost = NetworkCostModel(spec, "qsgd8", world_size=8)
        assert (
            cost.total_whole_bytes
            <= cost.total_range_bytes
            <= cost.total_whole_bytes * 1.2
        )

    def test_over_99_percent_quantized(self):
        for name in ("AlexNet", "ResNet50", "VGG19", "BN-Inception"):
            cost = NetworkCostModel(get_network(name), "qsgd4", 8)
            assert cost.quantized_fraction > 0.99


class TestWork:
    def test_stock_1bit_has_many_more_groups_on_convnets(self):
        spec = get_network("ResNet152")
        stock = NetworkCostModel(spec, "1bit", world_size=8)
        reshaped = NetworkCostModel(spec, "1bit*", world_size=8)
        assert stock.total_groups > 20 * reshaped.total_groups

    def test_fullprec_does_no_quant_work(self):
        cost = NetworkCostModel(get_network("AlexNet"), "32bit", 8)
        assert cost.quant_work_units(3.0) == 0.0

    def test_work_scales_with_passes(self):
        cost = NetworkCostModel(get_network("AlexNet"), "qsgd4", 8)
        assert cost.quant_work_units(2.0) == pytest.approx(
            2 * cost.quant_work_units(1.0)
        )


class TestGroupCounts:
    # total quantization groups of AlexNet at K=4, as the isinstance
    # ladder this replaced counted them; the calibration depends on them
    @pytest.mark.parametrize(
        "scheme, groups",
        [("32bit", 0), ("1bit", 1164264), ("1bit*", 973952),
         ("qsgd4", 121744)],
    )
    def test_paper_families_keep_their_counts(self, scheme, groups):
        assert cached_cost_model("AlexNet", scheme, 4).total_groups == groups

    @pytest.mark.parametrize(
        "scheme",
        ["1bit", "1bit*", "qsgd4", "aqsgd4", "terngrad", "terngrad2.5",
         "dettmers8", "dettmers8c"],
    )
    @pytest.mark.parametrize("shape", [(16, 16), (7, 13), (128, 65)])
    def test_group_count_is_the_number_of_scales_encoded(self, scheme, shape):
        import numpy as np

        from repro.quantization import make_quantizer

        codec = make_quantizer(scheme, bucket_size=32)
        grad = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        payload = codec.encode(grad, np.random.default_rng(1)).payload
        scales = payload.get("scales", payload.get("avg_pos"))
        assert codec.group_count(shape) == scales.size

    @pytest.mark.parametrize(
        "scheme", ["terngrad", "dettmers8", "dettmers8c", "topk0.01",
                   "aqsgd4"]
    )
    def test_every_codec_is_costable(self, scheme):
        cost = cached_cost_model("AlexNet", scheme, 4)
        assert cost.total_groups > 0
        assert cost.quant_work_units(1.0) > cost.quantized_elements


class TestCache:
    def test_cached_model_reused(self):
        a = cached_cost_model("AlexNet", "qsgd4", 8, None)
        b = cached_cost_model("AlexNet", "qsgd4", 8, None)
        assert a is b

    def test_different_keys_different_models(self):
        a = cached_cost_model("AlexNet", "qsgd4", 8, None)
        b = cached_cost_model("AlexNet", "qsgd4", 4, None)
        assert a is not b
