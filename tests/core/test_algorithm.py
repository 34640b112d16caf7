"""Tests for the synchronous aggregation step (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import SynchronousStep, TrainingConfig
from repro.nn.module import Parameter


def make_params():
    rng = np.random.default_rng(0)
    return [
        Parameter("big.W", rng.normal(size=(64, 64)).astype(np.float32)),
        Parameter("tiny.b", rng.normal(size=8).astype(np.float32)),
    ]


def make_grads(world_size, shape, seed=0):
    return [
        np.random.default_rng(seed + rank)
        .normal(size=shape)
        .astype(np.float32)
        for rank in range(world_size)
    ]


class TestAggregation:
    def test_fullprec_returns_mean(self):
        params = make_params()
        step = SynchronousStep(
            TrainingConfig(scheme="32bit", world_size=4, batch_size=4),
            params,
        )
        grads = make_grads(4, (64, 64))
        result = step.aggregate("big.W", grads)
        np.testing.assert_allclose(
            result, sum(grads) / 4, rtol=1e-5, atol=1e-5
        )

    def test_small_matrices_bypass_quantizer(self):
        params = make_params()
        step = SynchronousStep(
            TrainingConfig(scheme="qsgd4", world_size=2, batch_size=4),
            params,
        )
        grads = make_grads(2, (8,))
        result = step.aggregate("tiny.b", grads)
        # the bias is below the passthrough threshold: exact mean
        np.testing.assert_allclose(result, sum(grads) / 2, rtol=1e-5)

    def test_quantized_mean_close(self):
        params = make_params()
        step = SynchronousStep(
            TrainingConfig(scheme="qsgd8", world_size=4, batch_size=4),
            params,
        )
        grads = make_grads(4, (64, 64))
        result = step.aggregate("big.W", grads)
        exact = sum(grads) / 4
        assert np.abs(result - exact).mean() < 0.05

    def test_wrong_grad_count_rejected(self):
        step = SynchronousStep(
            TrainingConfig(world_size=4, batch_size=4), make_params()
        )
        with pytest.raises(ValueError):
            step.aggregate("big.W", make_grads(2, (64, 64)))


class TestErrorFeedbackState:
    def test_residuals_accumulate_per_rank(self):
        params = make_params()
        step = SynchronousStep(
            TrainingConfig(scheme="1bit*", world_size=2, batch_size=4),
            params,
        )
        grads = make_grads(2, (64, 64))
        step.aggregate("big.W", grads)
        ranks = step.state_dict()["ranks"]
        assert "big.W" in ranks["0"]["residuals"]
        assert "big.W" in ranks["1"]["residuals"]
        assert not np.array_equal(
            ranks["0"]["residuals"]["big.W"], ranks["1"]["residuals"]["big.W"]
        )

    def test_error_feedback_recovers_mean_over_time(self):
        # constant gradient + biased 1-bit codec: the running mean of
        # aggregates must converge to the true mean thanks to EF
        params = [Parameter("w", np.zeros((32, 32), dtype=np.float32))]
        step = SynchronousStep(
            TrainingConfig(scheme="1bit*", world_size=2, batch_size=4),
            params,
        )
        rng = np.random.default_rng(1)
        fixed = [
            rng.normal(size=(32, 32)).astype(np.float32) for _ in range(2)
        ]
        true_mean = sum(fixed) / 2
        total = np.zeros_like(true_mean)
        rounds = 60
        for _ in range(rounds):
            total += step.aggregate("w", fixed)
        error = np.abs(total / rounds - true_mean).mean()
        assert error < 0.1

    def test_no_residuals_for_unbiased_schemes(self):
        params = make_params()
        step = SynchronousStep(
            TrainingConfig(scheme="qsgd4", world_size=2, batch_size=4),
            params,
        )
        step.aggregate("big.W", make_grads(2, (64, 64)))
        assert not step.state_dict()["ranks"]["0"]["residuals"]


class TestTrafficVisibility:
    def test_comm_bytes_grow_with_precision(self):
        byte_counts = {}
        for scheme in ("32bit", "qsgd8", "qsgd2"):
            params = make_params()
            step = SynchronousStep(
                TrainingConfig(scheme=scheme, world_size=4, batch_size=4),
                params,
            )
            step.aggregate("big.W", make_grads(4, (64, 64)))
            byte_counts[scheme] = step.comm_bytes
        assert byte_counts["32bit"] > byte_counts["qsgd8"]
        assert byte_counts["qsgd8"] > byte_counts["qsgd2"]
