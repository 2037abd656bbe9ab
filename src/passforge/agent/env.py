"""Pass-ordering environment.

One environment wraps one design: the observation is the (frozen) embedding
of the current program graph, actions are the general passes plus an explicit
Stop, and the reward is the latency improvement normalized by the running
best.  Pragma-anchored passes run once before the episode starts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs import build_het_graph
from ..ir import IrModule
from ..passes import PassId, apply_pass, apply_pragma_passes, general_passes
from ..qor import EstimateError, OpCostTable, estimate

ACTIONS: tuple[PassId, ...] = tuple(general_passes())
STOP_ACTION = len(ACTIONS)
N_ACTIONS = len(ACTIONS) + 1


def reward(l_prev: float, l_new: float, l_best: float) -> float:
    """(previous - new) / best-so-far; the best includes the previous value."""
    return (l_prev - l_new) / l_best


@dataclass
class EnvState:
    module: IrModule
    obs: np.ndarray
    t: int
    cycles_history: list[float]
    best_cycles: float
    design: str


@dataclass
class PassEnv:
    design_name: str
    base_module: IrModule
    obs_fn: object                      # HetGraph -> np.ndarray
    costs: OpCostTable = field(default_factory=OpCostTable)
    max_steps: int = 16
    incidents: list[str] = field(default_factory=list)
    _cycle_cache: dict[str, float] = field(default_factory=dict, init=False)
    _obs_cache: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def _cycles(self, module: IrModule) -> float:
        key = module.digest()
        if key not in self._cycle_cache:
            self._cycle_cache[key] = float(estimate(module, self.costs).cycles)
        return self._cycle_cache[key]

    def _obs(self, module: IrModule) -> np.ndarray:
        key = module.digest()
        if key not in self._obs_cache:
            self._obs_cache[key] = np.asarray(
                self.obs_fn(build_het_graph(module)), dtype=float)
        return self._obs_cache[key]

    def reset(self) -> EnvState:
        module = apply_pragma_passes(self.base_module)
        cycles = self._cycles(module)
        return EnvState(module, self._obs(module), 0, [cycles], cycles,
                        self.design_name)

    def step(self, state: EnvState, action: int) -> tuple[EnvState, float, bool]:
        if action == STOP_ACTION:
            return state, 0.0, True
        if state.t >= self.max_steps:
            return state, 0.0, True
        pass_id = ACTIONS[action]
        l_prev = state.cycles_history[-1]
        l_best = state.best_cycles
        module = apply_pass(state.module, pass_id).module
        try:
            l_new = self._cycles(module)
        except EstimateError as e:
            self.incidents.append(
                f"{self.design_name} t={state.t} {pass_id.value}: {e}")
            return state, 0.0, True
        r = reward(l_prev, l_new, l_best)
        new_state = EnvState(module, self._obs(module), state.t + 1,
                             state.cycles_history + [l_new],
                             min(l_best, l_new), self.design_name)
        done = new_state.t >= self.max_steps
        return new_state, r, done
