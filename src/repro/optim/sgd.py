"""SGD with momentum — the optimizer of every recipe in the paper."""

from __future__ import annotations

import numpy as np

from ..nn.module import Parameter
from ..statetree import load_arrays

__all__ = ["Sgd"]


class Sgd:
    """Momentum SGD applied per parameter to externally supplied grads.

    In data-parallel training the gradient handed to :meth:`apply` is
    the *aggregated* (averaged) gradient after the collective exchange,
    so momentum state lives once per model, exactly as CNTK applies
    momentum after gradient aggregation.
    """

    def __init__(
        self,
        lr: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[str, np.ndarray] = {}

    def apply(self, param: Parameter, grad: np.ndarray) -> None:
        """Update ``param`` in place using ``grad``."""
        if grad.shape != param.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{param.name} shape {param.data.shape}"
            )
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            velocity = self._velocity.get(param.name)
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = self.momentum * velocity + grad
            self._velocity[param.name] = velocity
            grad = velocity
        param.data -= self.lr * grad

    def state_dict(self) -> dict:
        """Copies of the momentum buffers, by parameter name."""
        return {name: v.copy() for name, v in self._velocity.items()}

    def load_state_dict(self, state: dict) -> None:
        """Adopt :meth:`state_dict` output by value (never by alias)."""
        load_arrays(self._velocity, state)
