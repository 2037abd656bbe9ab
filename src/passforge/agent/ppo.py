"""PPO training over the multi-design pass-ordering environment."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir import IrModule
from ..optim import Adam, DivergenceError
from ..qor import OpCostTable
from .env import ACTIONS, N_ACTIONS, PassEnv
from .nets import (
    PpoConfig, init_actor_critic, policy_probs, ppo_loss_grad, value,
)


@dataclass
class Trajectory:
    obs: list[np.ndarray] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)
    design: str = ""
    cycles_ratio: float = 1.0

    @property
    def total_return(self) -> float:
        return float(sum(self.rewards))


def gae_advantages(rewards: list[float], values: list[float], gamma: float,
                   lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and discounted-return targets for one
    terminated episode (bootstrap value 0 at the end)."""
    n = len(rewards)
    adv = np.zeros(n)
    last = 0.0
    for t in range(n - 1, -1, -1):
        next_v = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    returns = adv + np.asarray(values)
    return adv, returns


def rollout_episode(env: PassEnv, params: dict,
                    rng: np.random.Generator) -> Trajectory:
    traj = Trajectory(design=env.design_name)
    state = env.reset()
    l0 = state.cycles_history[0]
    done = False
    while not done:
        probs = policy_probs(params, state.obs)
        action = int(rng.choice(len(probs), p=probs))
        v = value(params, state.obs)
        traj.obs.append(state.obs)
        traj.actions.append(action)
        traj.values.append(v)
        traj.log_probs.append(float(np.log(max(probs[action], 1e-300))))
        state, r, done = env.step(state, action)
        traj.rewards.append(r)
    traj.cycles_ratio = state.best_cycles / l0 if l0 > 0 else 1.0
    return traj


def ppo_update(params: dict, trajectories: list[Trajectory],
               config: PpoConfig, opt: Adam) -> float:
    obs, actions, old_logp, advs, rets = [], [], [], [], []
    for traj in trajectories:
        a, r = gae_advantages(traj.rewards, traj.values, config.gamma,
                              config.gae_lambda)
        obs.extend(traj.obs)
        actions.extend(traj.actions)
        old_logp.extend(traj.log_probs)
        advs.extend(a.tolist())
        rets.extend(r.tolist())
    obs_a = np.asarray(obs)
    act_a = np.asarray(actions)
    logp_a = np.asarray(old_logp)
    adv_a = np.asarray(advs)
    ret_a = np.asarray(rets)
    if adv_a.std() > 1e-8:
        adv_a = (adv_a - adv_a.mean()) / adv_a.std()

    n = len(act_a)
    last_loss = 0.0
    rng = np.random.default_rng(opt.t + config.seed)
    for _ in range(config.epochs_per_update):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            sel = order[start:start + config.minibatch_size]
            batch = {"obs": obs_a[sel], "actions": act_a[sel],
                     "old_logp": logp_a[sel], "advantages": adv_a[sel],
                     "returns": ret_a[sel]}
            loss, grads = ppo_loss_grad(params, batch, config)
            if not np.isfinite(loss):
                raise DivergenceError("non-finite PPO loss")
            opt.step(params, grads)
            last_loss = loss
    return last_loss


@dataclass
class CurvePoint:
    iteration: int
    mean_return: float
    mean_cycles_ratio: float


def train(designs: list[tuple[str, IrModule]], obs_fn, config: PpoConfig,
          seed: int, obs_dim: int, costs=None,
          log_fn=None) -> tuple[dict, list[CurvePoint]]:
    """Round-robin PPO across the design environments; deterministic per seed."""
    rng = np.random.default_rng(seed)
    envs = [PassEnv(name, module, obs_fn,
                    costs=costs if costs is not None else OpCostTable(),
                    max_steps=config.max_episode_len)
            for name, module in designs]
    params = init_actor_critic(obs_dim, N_ACTIONS, config.hidden, seed)
    opt = Adam(params, config.lr)
    curve: list[CurvePoint] = []
    env_cursor = 0
    for it in range(config.iterations):
        trajectories = []
        for _ in range(config.episodes_per_iteration):
            env = envs[env_cursor % len(envs)]
            env_cursor += 1
            trajectories.append(rollout_episode(env, params, rng))
        ppo_update(params, trajectories, config, opt)
        point = CurvePoint(
            it,
            float(np.mean([t.total_return for t in trajectories])),
            float(np.mean([t.cycles_ratio for t in trajectories])))
        curve.append(point)
        if log_fn is not None:
            log_fn(point)
    return params, curve


def infer(design: IrModule, params: dict, obs_fn, costs=None):
    """Greedy rollout; returns the best-prefix pass sequence and the cycle
    trace, so the caller never receives a regressing suffix."""
    env = PassEnv("infer", design, obs_fn,
                  costs=costs if costs is not None else OpCostTable())
    state = env.reset()
    applied = []
    done = False
    while not done:
        action = int(np.argmax(policy_probs(params, state.obs)))
        prev_t = state.t
        state, _r, done = env.step(state, action)
        if state.t == prev_t + 1:  # the pass actually applied
            applied.append(ACTIONS[action])
    cycles = state.cycles_history
    best_idx = int(np.argmin(cycles))
    return applied[:best_idx], cycles, best_idx
