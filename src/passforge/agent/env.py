"""Pass-ordering environment, and the evaluator it shares with search.

An ``Evaluator`` expands one design's pragmas once and prices its modules
with the analytical QoR model, memoized by digest; ``PassEnv`` and the search
baselines both price through it.  One environment wraps one design: the
observation is the (frozen) embedding of the current program graph, actions
are the general passes plus an explicit Stop, and the reward is the latency
improvement normalized by the running best.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs import build_het_graph
from ..ir import IrModule
from ..passes import (
    PassId, PassResult, apply_pass, apply_pragma_passes, general_passes,
)
from ..qor import EstimateError, OpCostTable, estimate

ACTIONS: tuple[PassId, ...] = tuple(general_passes())
STOP_ACTION = len(ACTIONS)
N_ACTIONS = len(ACTIONS) + 1


def reward(l_prev: float, l_new: float, l_best: float) -> float:
    """(previous - new) / best-so-far; the best includes the previous value."""
    return (l_prev - l_new) / l_best


class Evaluator:
    """Estimated cycles of one design's modules.  ``base`` is the design with
    its pragmas expanded, ``baseline`` its cycles.  Cycles are memoized by
    module digest; a digest the model cannot price keeps its
    ``EstimateError``, and every call on it raises that error again."""

    def __init__(self, design: IrModule, costs: OpCostTable | None = None):
        self.base = apply_pragma_passes(design)
        self.base_digest = self.base.digest()
        self.costs = costs or OpCostTable()
        self._memo: dict[str, float | EstimateError] = {}
        self.baseline = self._price(self.base, self.base_digest)

    def cycles(self, result: PassResult) -> float:
        """Cycles of a pass's output module; raises ``EstimateError``."""
        return self._price(result.module, result.digest)

    def _price(self, module: IrModule, digest: str) -> float:
        if digest not in self._memo:
            try:
                self._memo[digest] = float(estimate(module, self.costs).cycles)
            except EstimateError as e:
                self._memo[digest] = e
        got = self._memo[digest]
        if isinstance(got, EstimateError):
            raise got.with_traceback(None)
        return got


@dataclass
class EnvState:
    module: IrModule
    obs: np.ndarray
    t: int
    cycles_history: list[float]
    best_cycles: float


@dataclass
class PassEnv:
    design_name: str
    base_module: IrModule
    obs_fn: object                      # HetGraph -> np.ndarray
    costs: OpCostTable = field(default_factory=OpCostTable)
    max_steps: int = 16
    incidents: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.ev = Evaluator(self.base_module, self.costs)
        # Each step prices its module through this attribute (the learn
        # benchmark wraps it to count estimate errors).
        self._cycles = self.ev.cycles
        self._obs_memo: dict[str, np.ndarray] = {}

    def _obs(self, module: IrModule, digest: str) -> np.ndarray:
        if digest not in self._obs_memo:
            self._obs_memo[digest] = np.asarray(
                self.obs_fn(build_het_graph(module)), dtype=float)
        return self._obs_memo[digest]

    def reset(self) -> EnvState:
        ev = self.ev
        return EnvState(ev.base, self._obs(ev.base, ev.base_digest), 0,
                        [ev.baseline], ev.baseline)

    def step(self, state: EnvState, action: int) -> tuple[EnvState, float, bool]:
        if action == STOP_ACTION or state.t >= self.max_steps:
            return state, 0.0, True
        pass_id = ACTIONS[action]
        result = apply_pass(state.module, pass_id)
        try:
            l_new = self._cycles(result)
        except EstimateError as e:
            self.incidents.append(
                f"{self.design_name} t={state.t} {pass_id.value}: {e}")
            return state, 0.0, True
        r = reward(state.cycles_history[-1], l_new, state.best_cycles)
        new_state = EnvState(result.module,
                             self._obs(result.module, result.digest),
                             state.t + 1, state.cycles_history + [l_new],
                             min(state.best_cycles, l_new))
        return new_state, r, new_state.t >= self.max_steps
