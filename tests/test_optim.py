"""The optimizer shared by pretraining and PPO."""
import numpy as np
import pytest

from passforge.agent import (
    N_ACTIONS, PpoConfig, Trajectory, init_actor_critic, ppo_update,
)
from passforge.embedder import RgcnConfig, TrainPair, init_params, pretrain
from passforge.graphs import build_het_graph
from passforge.optim import BETA1, BETA2, EPS, Adam, DivergenceError


class _KeyedAdam:
    """Adam as it stepped before its moments became flat vectors: one
    update per parameter, in sorted-key order."""

    def __init__(self, params, lr):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for k in sorted(params):
            g = grads[k]
            self.m[k] = BETA1 * self.m[k] + (1 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1 - BETA2) * (g * g)
            m_hat = self.m[k] / (1 - BETA1 ** self.t)
            v_hat = self.v[k] / (1 - BETA2 ** self.t)
            params[k] -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


@pytest.mark.parametrize("make", [
    lambda: init_params(RgcnConfig(), seed=0),
    lambda: init_actor_critic(32, N_ACTIONS, PpoConfig().hidden, seed=0),
], ids=["pretrain", "actor_critic"])
def test_flat_adam_matches_the_per_key_loop(make):
    """Moments and parameters equal the per-key loop's, bit for bit, over
    20 steps of the same gradients, some of them zero or tiny."""
    flat_params, keyed_params = make(), make()
    flat, keyed = Adam(flat_params, 1e-3), _KeyedAdam(keyed_params, 1e-3)
    rng = np.random.default_rng(7)
    for step in range(20):
        grads = {k: rng.normal(scale=10.0 ** -(step % 6), size=v.shape)
                 for k, v in flat_params.items()}
        grads[sorted(grads)[step % len(grads)]][...] = 0.0
        flat.step(flat_params, grads)
        keyed.step(keyed_params, grads)
    keys = sorted(keyed_params)
    assert np.array_equal(flat.m, np.concatenate([keyed.m[k].ravel()
                                                  for k in keys]))
    assert np.array_equal(flat.v, np.concatenate([keyed.v[k].ravel()
                                                  for k in keys]))
    for k in keys:
        assert np.array_equal(flat_params[k], keyed_params[k]), k


def test_non_finite_loss_raises_divergence_from_both_stages(dot_module):
    g = build_het_graph(dot_module)
    with pytest.raises(DivergenceError):
        pretrain([g, g], [TrainPair(0, 1, float("nan"))],
                 RgcnConfig(hidden_dim=6, embed_dim=4))

    params = init_actor_critic(4, N_ACTIONS, (6, 5), seed=0)
    traj = Trajectory(obs=[np.ones(4)], actions=[0], rewards=[float("nan")],
                      values=[0.0], log_probs=[0.0])
    with pytest.raises(DivergenceError):
        ppo_update(params, [traj], PpoConfig(), Adam(params, 1e-3))
