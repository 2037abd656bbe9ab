"""Actor-critic MLPs with hand-written gradients (tanh hidden layers).

The clipped-surrogate loss, value regression, and entropy bonus are all
differentiated manually so the same finite-difference contract as the
embedder applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..optim import glorot


def _real(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


_COUNT = (lambda v: type(v) is int and v >= 1, "an int >= 1")
_POSITIVE = (lambda v: _real(v) and v > 0, "a finite number > 0")
_FRACTION = (lambda v: _real(v) and 0 <= v <= 1, "a number in [0, 1]")
_COEF = (lambda v: _real(v) and v >= 0, "a finite number >= 0")

#: Each field's test and what it asks for; ``seed`` takes any int.
_VALID = {
    "clip_eps": _POSITIVE, "gamma": _FRACTION, "gae_lambda": _FRACTION,
    "entropy_coef": _COEF, "value_coef": _COEF, "lr": _POSITIVE,
    "hidden": (lambda v: type(v) in (list, tuple) and len(v) == 2
               and all(map(_COUNT[0], v)), "a pair of ints >= 1"),
    **dict.fromkeys(("epochs_per_update", "minibatch_size", "max_episode_len",
                     "episodes_per_iteration", "iterations"), _COUNT),
}


@dataclass
class PpoConfig:
    """PPO settings; construction raises ValueError on a value training
    cannot use."""
    clip_eps: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    hidden: tuple[int, int] = (64, 64)
    lr: float = 3e-4
    epochs_per_update: int = 4
    minibatch_size: int = 64
    max_episode_len: int = 16
    episodes_per_iteration: int = 8
    iterations: int = 60
    seed: int = 0

    def __post_init__(self):
        for name, (ok, what) in _VALID.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {what}, not {value!r}")


def init_actor_critic(obs_dim: int, n_actions: int, hidden: tuple[int, int],
                      seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    h1, h2 = hidden
    params = {
        "actor/w1": glorot(rng, (obs_dim, h1)), "actor/b1": np.zeros(h1),
        "actor/w2": glorot(rng, (h1, h2)), "actor/b2": np.zeros(h2),
        "actor/w3": glorot(rng, (h2, n_actions)) * 0.01, "actor/b3": np.zeros(n_actions),
        "critic/w1": glorot(rng, (obs_dim, h1)), "critic/b1": np.zeros(h1),
        "critic/w2": glorot(rng, (h1, h2)), "critic/b2": np.zeros(h2),
        "critic/w3": glorot(rng, (h2, 1)), "critic/b3": np.zeros(1),
    }
    return params


def _mlp_forward(params, prefix, x):
    a1 = x @ params[f"{prefix}/w1"] + params[f"{prefix}/b1"]
    h1 = np.tanh(a1)
    a2 = h1 @ params[f"{prefix}/w2"] + params[f"{prefix}/b2"]
    h2 = np.tanh(a2)
    out = h2 @ params[f"{prefix}/w3"] + params[f"{prefix}/b3"]
    return out, (x, h1, h2)


def _mlp_backward(params, prefix, cache, d_out, grads):
    x, h1, h2 = cache
    grads[f"{prefix}/w3"] += h2.T @ d_out
    grads[f"{prefix}/b3"] += d_out.sum(axis=0)
    dh2 = d_out @ params[f"{prefix}/w3"].T
    da2 = dh2 * (1 - h2 * h2)
    grads[f"{prefix}/w2"] += h1.T @ da2
    grads[f"{prefix}/b2"] += da2.sum(axis=0)
    dh1 = da2 @ params[f"{prefix}/w2"].T
    da1 = dh1 * (1 - h1 * h1)
    grads[f"{prefix}/w1"] += x.T @ da1
    grads[f"{prefix}/b1"] += da1.sum(axis=0)


def policy_logits(params: dict[str, np.ndarray], obs: np.ndarray) -> np.ndarray:
    out, _ = _mlp_forward(params, "actor", np.atleast_2d(obs))
    return out[0] if obs.ndim == 1 else out


def policy_probs(params: dict[str, np.ndarray], obs: np.ndarray) -> np.ndarray:
    logits = policy_logits(params, obs)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def value(params: dict[str, np.ndarray], obs: np.ndarray) -> float | np.ndarray:
    out, _ = _mlp_forward(params, "critic", np.atleast_2d(obs))
    return float(out[0, 0]) if obs.ndim == 1 else out[:, 0]


def ppo_loss_grad(params: dict[str, np.ndarray], batch: dict,
                  config: PpoConfig):
    """Clipped-surrogate policy loss + value regression - entropy bonus.

    batch: obs (B,D), actions (B,), old_logp (B,), advantages (B,),
    returns (B,).  Returns (loss, grads)."""
    obs = batch["obs"]
    actions = batch["actions"].astype(int)
    old_logp = batch["old_logp"]
    adv = batch["advantages"]
    rets = batch["returns"]
    b = len(actions)
    eps = config.clip_eps

    logits, actor_cache = _mlp_forward(params, "actor", obs)
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumz = expz.sum(axis=1, keepdims=True)
    probs = expz / sumz
    logp = z - np.log(sumz)
    logp_a = logp[np.arange(b), actions]
    ratio = np.exp(logp_a - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1 - eps, 1 + eps) * adv
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -surrogate.mean()

    vals, critic_cache = _mlp_forward(params, "critic", obs)
    v = vals[:, 0]
    value_loss = ((v - rets) ** 2).mean()

    entropy = -(probs * logp).sum(axis=1).mean()
    loss = policy_loss + config.value_coef * value_loss \
        - config.entropy_coef * entropy

    grads = {k: np.zeros_like(vv) for k, vv in params.items()}

    # d(policy_loss)/d ratio: active branch only; the clip passes gradient
    # only inside the clipping interval.
    use_unclipped = unclipped <= clipped
    dratio = np.where(use_unclipped, adv,
                      np.where((ratio > 1 - eps) & (ratio < 1 + eps), adv, 0.0))
    dratio = -dratio / b
    dlogp_a = dratio * ratio
    dlogits = probs * (-dlogp_a[:, None])
    dlogits[np.arange(b), actions] += dlogp_a

    # Entropy term of the loss is -coef * mean(H); with
    # dH/dlogits = -p * (logp - sum(p*logp)) this contributes
    # +coef/B * p * (logp - sum(p*logp)).
    ent_inner = (probs * logp).sum(axis=1, keepdims=True)
    dlogits += (config.entropy_coef / b) * probs * (logp - ent_inner)

    _mlp_backward(params, "actor", actor_cache, dlogits, grads)

    dv = 2.0 * (v - rets) / b * config.value_coef
    _mlp_backward(params, "critic", critic_cache, dv[:, None], grads)
    return loss, grads
