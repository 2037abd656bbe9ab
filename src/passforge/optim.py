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
    """Per-parameter adaptive steps.  The moments ``m`` and ``v`` are flat
    vectors over the parameters in sorted-key order, and each step updates
    them in place, so training is bitwise reproducible.  ``t`` counts the
    steps taken."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.keys = sorted(params)
        self.ends = np.cumsum([params[k].size for k in self.keys])
        self.m = np.zeros(self.ends[-1])
        self.v = np.zeros_like(self.m)
        self.t = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        g = np.concatenate([grads[k].ravel() for k in self.keys])
        self.m *= BETA1
        self.m += (1 - BETA1) * g
        self.v *= BETA2
        g *= g
        g *= 1 - BETA2
        self.v += g
        # lr * m_hat / (sqrt(v_hat) + EPS), the divisor in g's storage
        update = self.m / (1 - BETA1 ** self.t)
        update *= self.lr
        np.sqrt(np.divide(self.v, 1 - BETA2 ** self.t, out=g), out=g)
        g += EPS
        update /= g
        for k, part in zip(self.keys, np.split(update, self.ends[:-1])):
            params[k] -= part.reshape(params[k].shape)
