"""Tests for TrainingConfig validation."""

import pytest

from repro.core import TrainingConfig


class TestValidation:
    def test_defaults_valid(self):
        config = TrainingConfig()
        assert config.scheme == "32bit"
        assert config.world_size == 1

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            TrainingConfig(scheme="qsgd3.5")

    def test_unknown_exchange_rejected(self):
        with pytest.raises(ValueError, match="unknown exchange"):
            TrainingConfig(exchange="carrier-pigeon")

    def test_unknown_exchange_error_lists_choices(self):
        from repro.comm import EXCHANGE_NAMES

        with pytest.raises(ValueError) as err:
            TrainingConfig(exchange="carrier-pigeon")
        for name in EXCHANGE_NAMES:
            assert name in str(err.value)

    def test_unknown_engine_error_lists_choices(self):
        from repro.runtime.engine import ENGINE_NAMES

        with pytest.raises(ValueError) as err:
            TrainingConfig(engine="quantum")
        for name in ENGINE_NAMES:
            assert name in str(err.value)

    def test_world_size_positive(self):
        with pytest.raises(ValueError):
            TrainingConfig(world_size=0)

    def test_batch_at_least_world(self):
        with pytest.raises(ValueError):
            TrainingConfig(world_size=8, batch_size=4)

    def test_label(self):
        config = TrainingConfig(
            scheme="qsgd4", exchange="nccl", world_size=8, batch_size=64
        )
        assert config.label == "qsgd4/nccl/8gpu"

    @pytest.mark.parametrize(
        "scheme", ["32bit", "1bit", "1bit*", "qsgd2", "qsgd4", "qsgd8",
                   "qsgd16"]
    )
    def test_all_paper_schemes_accepted(self, scheme):
        TrainingConfig(scheme=scheme)

    @pytest.mark.parametrize("knob", ["norm", "variant"])
    @pytest.mark.parametrize("scheme", ["qsgd4", "1bit"])
    def test_unknown_qsgd_knob_rejected_at_construction(self, scheme, knob):
        # refused by the config itself, whichever scheme it names --
        # not later by the codec the trainer builds, nor never
        with pytest.raises(ValueError, match=f"unknown {knob} 'bogus'"):
            TrainingConfig(scheme=scheme, **{knob: "bogus"})
        TrainingConfig(scheme=scheme, norm="l2", variant="grid")


class TestAggregationValidation:
    def test_frequency_must_be_positive(self):
        with pytest.raises(ValueError, match="aggregation_frequency"):
            TrainingConfig(aggregation_frequency=0)
        with pytest.raises(ValueError, match="aggregation_frequency"):
            TrainingConfig(aggregation_frequency=-3)

    def test_unknown_sync_mode_error_lists_choices(self):
        from repro.core.config import SYNC_MODE_NAMES

        with pytest.raises(ValueError) as err:
            TrainingConfig(sync_mode="gossip")
        for name in SYNC_MODE_NAMES:
            assert name in str(err.value)

    def test_local_sgd_rejects_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            TrainingConfig(sync_mode="local_sgd", aggregation_frequency=4)

    def test_local_sgd_with_zero_momentum_accepted(self):
        config = TrainingConfig(
            sync_mode="local_sgd", momentum=0.0, aggregation_frequency=4
        )
        assert config.sync_mode == "local_sgd"

    def test_defaults_are_classic_allreduce(self):
        config = TrainingConfig()
        assert config.aggregation_frequency == 1
        assert config.sync_mode == "allreduce"
