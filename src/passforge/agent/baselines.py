"""Classical search baselines: random, greedy, and genetic.

All of them charge one unit of budget per pass evaluation (an apply +
estimate), so comparisons against the policy can hold evaluation counts
equal.  The budget counts every pass of every sequence evaluated; the work
actually done is smaller, because a search reuses the modules of shared
prefixes and prices each distinct module once (``SearchResult.passes_run``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import passes
from ..ir import IrModule
from ..passes import (
    PassError, PassId, apply_pragma_passes, apply_sequence, general_passes,
)
from ..qor import EstimateError, OpCostTable, estimate

#: Genetic search: per-gene mutation probability and tournament size.
MUTATION_RATE = 0.1
TOURNAMENT_SIZE = 3


@dataclass
class SearchResult:
    sequence: list[PassId]
    cycles: float
    baseline_cycles: float
    evaluations: int
    method: str
    passes_run: int = 0

    @property
    def ratio(self) -> float:
        return self.cycles / self.baseline_cycles if self.baseline_cycles else 1.0


class _Evaluator:
    """Prices sequences applied to the pragma-expanded module.

    ``evaluations`` is the budget: ``len(seq)`` for each sequence not seen
    before.  ``passes_run`` is the work: all but the last pass of a sequence
    go through a transition memo that lives as long as the evaluator, so a
    shared prefix runs once; the last pass always runs, and is not kept,
    because most candidates are never extended.  Cycles are memoized by
    module digest.
    """

    def __init__(self, design: IrModule, costs: OpCostTable | None = None):
        self.base = apply_pragma_passes(design)
        self.costs = costs or OpCostTable()
        self.baseline = float(estimate(self.base, self.costs).cycles)
        self.evaluations = 0
        self.passes_run = 0
        self._cache: dict[tuple, float] = {}
        self._transitions: dict = {}
        self._cycles: dict[str, float] = {self.base.digest(): self.baseline}

    def run(self, seq: list[PassId]) -> float:
        """Estimated cycles after a non-empty sequence (inf when it cannot
        be estimated)."""
        key = tuple(p.value for p in seq)
        if key in self._cache:
            return self._cache[key]
        self.evaluations += len(seq)
        known = len(self._transitions)
        out, _ = apply_sequence(self.base, seq[:-1], self._transitions)
        # Called through the module, as apply_sequence calls it, so each pass
        # charged to the budget is one call of ``passes.apply_pass``.
        try:
            out = passes.apply_pass(out, seq[-1]).module
        except PassError as e:
            raise e.at_step(len(seq) - 1)
        self.passes_run += len(self._transitions) - known + 1
        digest = out.digest()
        if digest not in self._cycles:
            try:
                self._cycles[digest] = float(estimate(out, self.costs).cycles)
            except EstimateError:
                self._cycles[digest] = float("inf")
        self._cache[key] = self._cycles[digest]
        return self._cache[key]


def search_random(design: IrModule, budget_sequences: int, seed: int,
                  max_len: int = 16, costs=None) -> SearchResult:
    """Best of N uniformly random sequences."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(design, costs)
    catalog = general_passes()
    best_seq: list[PassId] = []
    best = ev.baseline
    for _ in range(budget_sequences):
        length = int(rng.integers(1, max_len + 1))
        seq = [catalog[int(rng.integers(0, len(catalog)))] for _ in range(length)]
        cycles = ev.run(seq)
        if cycles < best:
            best, best_seq = cycles, seq
    return SearchResult(best_seq, best, ev.baseline, ev.evaluations, "random",
                        ev.passes_run)


def search_greedy(design: IrModule, max_len: int = 16, costs=None) -> SearchResult:
    """Append the single pass with the largest strict improvement until no
    pass improves; final cycles never exceed the no-pass baseline."""
    ev = _Evaluator(design, costs)
    catalog = general_passes()
    seq: list[PassId] = []
    current = ev.baseline
    while len(seq) < max_len:
        best_pass = None
        best_cycles = current
        for p in catalog:
            cycles = ev.run(seq + [p])
            if cycles < best_cycles:
                best_cycles, best_pass = cycles, p
        if best_pass is None:
            break
        seq.append(best_pass)
        current = best_cycles
    return SearchResult(seq, current, ev.baseline, ev.evaluations, "greedy",
                        ev.passes_run)


def search_genetic(design: IrModule, population: int = 12, generations: int = 8,
                   seed: int = 0, genome_len: int = 8,
                   costs=None) -> SearchResult:
    """Sequence-genome GA: one-point crossover, per-gene mutation, tournament
    selection, elitism of one."""
    rng = np.random.default_rng(seed)
    ev = _Evaluator(design, costs)
    catalog = general_passes()
    n_genes = len(catalog)

    def fitness(genome) -> float:
        return ev.run([catalog[g] for g in genome])

    pop = [list(rng.integers(0, n_genes, size=genome_len))
           for _ in range(population)]
    fits = [fitness(g) for g in pop]
    best_idx = int(np.argmin(fits))
    best_genome, best_fit = list(pop[best_idx]), fits[best_idx]

    for _gen in range(generations):
        new_pop = [list(best_genome)]  # elitism
        while len(new_pop) < population:
            def pick():
                cand = rng.integers(0, population, size=TOURNAMENT_SIZE)
                return pop[int(min(cand, key=lambda c: fits[int(c)]))]
            a, b = pick(), pick()
            cut = int(rng.integers(1, genome_len))
            child = a[:cut] + b[cut:]
            for gi in range(genome_len):
                if rng.random() < MUTATION_RATE:
                    child[gi] = int(rng.integers(0, n_genes))
            new_pop.append(child)
        pop = new_pop
        fits = [fitness(g) for g in pop]
        gen_best = int(np.argmin(fits))
        if fits[gen_best] < best_fit:
            best_fit = fits[gen_best]
            best_genome = list(pop[gen_best])

    final = min(best_fit, ev.baseline)
    seq = [catalog[g] for g in best_genome] if best_fit < ev.baseline else []
    return SearchResult(seq, final, ev.baseline, ev.evaluations, "genetic",
                        ev.passes_run)


def search_baseline(design: IrModule, method: str, seed: int = 0,
                    costs=None, budget: int = 64) -> SearchResult:
    """Runs one baseline; ``budget`` is the number of random sequences,
    and greedy and genetic ignore it."""
    if method == "random":
        return search_random(design, budget, seed, costs=costs)
    if method == "greedy":
        return search_greedy(design, costs=costs)
    if method == "genetic":
        return search_genetic(design, seed=seed, costs=costs)
    raise ValueError(f"unknown search method {method!r}")
