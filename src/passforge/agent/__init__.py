"""PPO policy, pass-ordering environment, and search baselines."""
from .env import ACTIONS, EnvState, N_ACTIONS, PassEnv, STOP_ACTION, reward
from .nets import (
    PpoConfig, init_actor_critic, policy_logits, policy_probs, ppo_loss_grad,
    value,
)
from .ppo import (
    CurvePoint, Trajectory, gae_advantages, infer, ppo_update,
    rollout_episode, train,
)
from .baselines import (
    SearchResult, search_baseline, search_genetic, search_greedy,
    search_random,
)

__all__ = [
    "ACTIONS", "EnvState", "N_ACTIONS", "PassEnv", "STOP_ACTION", "reward",
    "PpoConfig", "init_actor_critic", "policy_logits", "policy_probs",
    "ppo_loss_grad", "value",
    "CurvePoint", "Trajectory", "gae_advantages", "infer", "ppo_update",
    "rollout_episode", "train",
    "SearchResult", "search_baseline", "search_genetic", "search_greedy",
    "search_random",
]
