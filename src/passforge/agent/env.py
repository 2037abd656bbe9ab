"""Pass-ordering environment, and the evaluator it shares with search.

An ``Evaluator`` expands one design's pragmas once, owns the design's
``(digest, pass)`` transition table, and prices its modules with the
analytical QoR model, memoized by digest; ``PassEnv`` and the search
baselines both apply passes and price through it, so a transition seen
before runs no pass, and the table's size is the number of passes run.
One environment wraps one design: the observation is the (frozen) embedding
of the current program graph, actions are the general passes plus an
explicit Stop, and the reward is the latency improvement normalized by the
running best.  Each state carries its module's digest.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs import build_het_graph
from ..ir import IrModule
from ..passes import (
    PassId, PassResult, Transitions, apply_pass, apply_pragma_passes,
    apply_sequence, general_passes,
)
from ..qor import EstimateError, OpCostTable, estimate

ACTIONS: tuple[PassId, ...] = tuple(general_passes())
STOP_ACTION = len(ACTIONS)
N_ACTIONS = len(ACTIONS) + 1


def reward(l_prev: float, l_new: float, l_best: float) -> float:
    """(previous - new) / best-so-far; the best includes the previous value."""
    return (l_prev - l_new) / l_best


class Evaluator:
    """Passes applied to one design's modules, and their estimated cycles.
    ``base`` is the design with its pragmas expanded, ``baseline`` its
    cycles, and ``table`` the transitions run from it, which live as long
    as the evaluator, so ``len(table)`` is the number of passes run.
    Cycles are memoized by module digest; a digest the model cannot price
    keeps its ``EstimateError``, and every ``cycles`` call on it raises a
    copy of that error."""

    def __init__(self, design: IrModule, costs: OpCostTable | None = None):
        self.base = apply_pragma_passes(design)
        self.base_digest = self.base.digest()
        self.costs = costs or OpCostTable()
        self.table = Transitions()
        self._memo: dict[str, float | EstimateError] = {}
        self.baseline = self._price(self.base, self.base_digest)

    def step(self, module: IrModule, digest: str,
             pass_id: PassId) -> PassResult:
        """``pass_id`` applied to ``module``, whose digest is ``digest``,
        through the table: a transition seen before runs no pass."""
        return apply_pass(module, pass_id, self.table, digest)

    def run(self, seq: list[PassId]) -> float:
        """Cycles of ``seq`` applied to ``base``, or ``inf`` where the model
        cannot price the result; a ``PassError`` names its step."""
        _out, results = apply_sequence(self.base, seq, self.table,
                                       self.base_digest)
        return self.price(results[-1]) if results else self.baseline

    def cycles(self, result: PassResult) -> float:
        """Cycles of a pass's output module; raises ``EstimateError``."""
        return self._price(result.module, result.digest)

    def price(self, result: PassResult) -> float:
        """``cycles``, or ``inf`` where the model cannot price the module."""
        try:
            return self.cycles(result)
        except EstimateError:
            return float("inf")

    def _price(self, module: IrModule, digest: str) -> float:
        if digest not in self._memo:
            try:
                self._memo[digest] = float(estimate(module, self.costs).cycles)
            except EstimateError as e:
                self._memo[digest] = _copy(e)   # without its traceback
        got = self._memo[digest]
        if isinstance(got, EstimateError):
            raise _copy(got)
        return got


def _copy(err: EstimateError) -> EstimateError:
    """A new, never-raised instance of ``err``.  Storing a raised error,
    raising the stored one, or binding a raised one to a local of the raising
    frame would each make a reference cycle through the frames that hold the
    evaluator, keeping it alive until a full collection."""
    return EstimateError(err.kind, err.message)


@dataclass
class EnvState:
    module: IrModule
    digest: str                         # of ``module``, as ``IrModule.digest``
    obs: np.ndarray
    t: int
    cycles_history: list[float]
    best_cycles: float


@dataclass
class PassEnv:
    design_name: str
    base_module: IrModule
    obs_fn: object                      # HetGraph -> np.ndarray
    costs: OpCostTable | None = None    # the default table when None
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
        return EnvState(ev.base, ev.base_digest,
                        self._obs(ev.base, ev.base_digest), 0, [ev.baseline],
                        ev.baseline)

    def step(self, state: EnvState, action: int) -> tuple[EnvState, float, bool]:
        if action == STOP_ACTION or state.t >= self.max_steps:
            return state, 0.0, True
        pass_id = ACTIONS[action]
        result = self.ev.step(state.module, state.digest, pass_id)
        try:
            l_new = self._cycles(result)
        except EstimateError as e:
            self.incidents.append(
                f"{self.design_name} t={state.t} {pass_id.value}: {e}")
            return state, 0.0, True
        r = reward(state.cycles_history[-1], l_new, state.best_cycles)
        new_state = EnvState(result.module, result.digest,
                             self._obs(result.module, result.digest),
                             state.t + 1, state.cycles_history + [l_new],
                             min(state.best_cycles, l_new))
        return new_state, r, new_state.t >= self.max_steps
