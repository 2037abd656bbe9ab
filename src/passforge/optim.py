"""The optimizer and initializer shared by pretraining and PPO."""
from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class DivergenceError(Exception):
    """A loss went non-finite during training."""


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform Glorot/Xavier initialization of a weight matrix."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


class Adam:
    """Per-parameter adaptive steps; update order is fixed (sorted keys) so
    training is bitwise reproducible.  ``t`` counts the steps taken."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for k in sorted(params):
            g = grads[k]
            self.m[k] = BETA1 * self.m[k] + (1 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1 - BETA2) * (g * g)
            m_hat = self.m[k] / (1 - BETA1 ** self.t)
            v_hat = self.v[k] / (1 - BETA2 ** self.t)
            params[k] -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
