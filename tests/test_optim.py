"""The optimizer shared by pretraining and PPO."""
import numpy as np
import pytest

from passforge.agent import (
    N_ACTIONS, PpoConfig, Trajectory, init_actor_critic, ppo_update,
)
from passforge.embedder import RgcnConfig, TrainPair, pretrain
from passforge.graphs import build_het_graph
from passforge.optim import Adam, DivergenceError


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
