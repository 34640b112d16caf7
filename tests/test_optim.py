"""Tests for SGD with momentum and the LR schedules."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import Sgd, exponential_decay, step_decay


class TestSgd:
    def test_plain_step(self):
        p = Parameter("w", np.array([1.0, 2.0], dtype=np.float32))
        opt = Sgd(lr=0.5, momentum=0.0)
        opt.apply(p, np.array([1.0, 1.0], dtype=np.float32))
        np.testing.assert_allclose(p.data, [0.5, 1.5])

    def test_momentum_accumulates(self):
        p = Parameter("w", np.zeros(1, dtype=np.float32))
        opt = Sgd(lr=1.0, momentum=0.5)
        grad = np.ones(1, dtype=np.float32)
        opt.apply(p, grad)  # v=1, w=-1
        opt.apply(p, grad)  # v=1.5, w=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_weight_decay(self):
        p = Parameter("w", np.array([2.0], dtype=np.float32))
        opt = Sgd(lr=1.0, momentum=0.0, weight_decay=0.1)
        opt.apply(p, np.zeros(1, dtype=np.float32))
        np.testing.assert_allclose(p.data, [1.8])

    def test_momentum_state_per_parameter(self):
        a = Parameter("a", np.zeros(1, dtype=np.float32))
        b = Parameter("b", np.zeros(1, dtype=np.float32))
        opt = Sgd(lr=1.0, momentum=0.9)
        opt.apply(a, np.ones(1, dtype=np.float32))
        opt.apply(b, np.zeros(1, dtype=np.float32))
        np.testing.assert_allclose(b.data, [0.0])

    def test_shape_mismatch_rejected(self):
        p = Parameter("w", np.zeros(2, dtype=np.float32))
        opt = Sgd(lr=0.1)
        with pytest.raises(ValueError):
            opt.apply(p, np.zeros(3, dtype=np.float32))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Sgd(lr=0.0)
        with pytest.raises(ValueError):
            Sgd(lr=0.1, momentum=1.0)



class TestSchedules:
    def test_exponential_decay(self):
        assert exponential_decay(1.0, 0.5, 0) == 1.0
        assert exponential_decay(1.0, 0.5, 2) == 0.25

    def test_constant_when_decay_one(self):
        assert exponential_decay(0.1, 1.0, 50) == 0.1

    def test_step_decay(self):
        assert step_decay(1.0, epoch=0, step=10) == 1.0
        assert step_decay(1.0, epoch=10, step=10) == pytest.approx(0.1)
        assert step_decay(1.0, epoch=25, step=10) == pytest.approx(0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exponential_decay(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            exponential_decay(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            step_decay(1.0, epoch=1, step=0)
