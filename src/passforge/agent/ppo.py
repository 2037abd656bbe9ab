"""PPO training over the multi-design pass-ordering environment."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir import IrModule
from ..optim import Adam, DivergenceError
from .env import ACTIONS, N_ACTIONS, PassEnv
from .nets import (
    PpoConfig, init_actor_critic, policy_probs, ppo_loss_grad, value,
)


@dataclass
class Trajectory:
    """One episode's steps; ``trace`` holds the cycles of each module it
    reached, the expanded design's first."""
    obs: list[np.ndarray] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)
    trace: list[float] = field(default_factory=list)

    @property
    def total_return(self) -> float:
        return float(sum(self.rewards))

    @property
    def cycles_ratio(self) -> float:
        return min(self.trace) / self.trace[0] if self.trace[0] > 0 else 1.0


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
                    rng: np.random.Generator | None = None) -> Trajectory:
    """One episode of the policy from ``env.reset()``: each action is drawn
    from ``rng``, or is the most probable one when ``rng`` is None."""
    traj = Trajectory()
    state = env.reset()
    done = False
    while not done:
        probs = policy_probs(params, state.obs)
        action = int(np.argmax(probs) if rng is None
                     else rng.choice(len(probs), p=probs))
        v = value(params, state.obs)
        traj.obs.append(state.obs)
        traj.actions.append(action)
        traj.values.append(v)
        traj.log_probs.append(float(np.log(max(probs[action], 1e-300))))
        state, r, done = env.step(state, action)
        traj.rewards.append(r)
    traj.trace = state.cycles_history
    return traj


def ppo_update(params: dict, trajectories: list[Trajectory],
               config: PpoConfig, opt: Adam) -> float:
    gae = [gae_advantages(t.rewards, t.values, config.gamma, config.gae_lambda)
           for t in trajectories]
    obs_a = np.asarray([o for t in trajectories for o in t.obs])
    act_a = np.asarray([a for t in trajectories for a in t.actions])
    logp_a = np.asarray([lp for t in trajectories for lp in t.log_probs])
    adv_a = np.concatenate([adv for adv, _ret in gae])
    ret_a = np.concatenate([ret for _adv, ret in gae])
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
    envs = [PassEnv(name, module, obs_fn, costs=costs,
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
    """Argmax rollout; returns the best prefix of its passes, so never a
    regressing suffix, with the cycle trace and the best entry's index.
    Entry ``t`` of the trace follows the first ``t`` actions."""
    env = PassEnv("infer", design, obs_fn, costs=costs)
    traj = rollout_episode(env, params)
    best = int(np.argmin(traj.trace))
    return [ACTIONS[a] for a in traj.actions[:best]], traj.trace, best
