"""Classical search baselines: random, greedy, and genetic.

All of them charge one unit of budget per pass evaluation (an apply +
estimate), so comparisons against the policy can hold evaluation counts
equal.  The budget counts every pass of every sequence evaluated; the work
actually done is smaller (``SearchResult.passes_run``), because a search
reuses the modules along the last sequence it ran, and its ``Evaluator``
(shared with ``PassEnv``) prices each distinct module once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import IrModule
from ..passes import PassId, apply_sequence, general_passes
from ..qor import EstimateError, estimate  # noqa: F401 - perfbench tracer pin
from .env import Evaluator

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


class _Sequences:
    """Cycles of pass sequences run on an ``Evaluator``'s base module; a
    module the model cannot price costs ``inf``.  ``evaluations`` is the
    budget: ``len(seq)`` per new sequence, one ``passes.apply_pass`` call per
    pass.  ``passes_run`` is the work: the transition memo keeps the path of
    the last sequence run, so a prefix shared with it runs once."""

    def __init__(self, ev: Evaluator):
        self.ev = ev
        self.evaluations = 0
        self.passes_run = 0
        self._seen: dict[tuple, float] = {}
        self._memo: dict = {}

    def __call__(self, seq: list[PassId]) -> float:
        key = tuple(p.value for p in seq)
        if key not in self._seen:
            self.evaluations += len(seq)
            known = len(self._memo)
            _out, results = apply_sequence(self.ev.base, seq, self._memo)
            self.passes_run += len(self._memo) - known
            path = {id(r) for r in results}
            self._memo = {k: (m, r) for k, (m, r) in self._memo.items()
                          if id(r) in path}
            try:
                self._seen[key] = self.ev.cycles(results[-1])
            except EstimateError:
                self._seen[key] = float("inf")
        return self._seen[key]


def search_random(design: IrModule, budget_sequences: int, seed: int,
                  max_len: int = 16, costs=None) -> SearchResult:
    """Best of N uniformly random sequences."""
    rng = np.random.default_rng(seed)
    run = _Sequences(Evaluator(design, costs))
    catalog = general_passes()
    best_seq: list[PassId] = []
    best = run.ev.baseline
    for _ in range(budget_sequences):
        length = int(rng.integers(1, max_len + 1))
        seq = [catalog[int(rng.integers(0, len(catalog)))] for _ in range(length)]
        cycles = run(seq)
        if cycles < best:
            best, best_seq = cycles, seq
    return SearchResult(best_seq, best, run.ev.baseline, run.evaluations,
                        "random", run.passes_run)


def search_greedy(design: IrModule, max_len: int = 16, costs=None) -> SearchResult:
    """Append the single pass with the largest strict improvement until no
    pass improves; final cycles never exceed the no-pass baseline."""
    run = _Sequences(Evaluator(design, costs))
    catalog = general_passes()
    seq: list[PassId] = []
    current = run.ev.baseline
    while len(seq) < max_len:
        cycles, i = min((run(seq + [p]), i) for i, p in enumerate(catalog))
        if cycles >= current:
            break
        seq.append(catalog[i])
        current = cycles
    return SearchResult(seq, current, run.ev.baseline, run.evaluations,
                        "greedy", run.passes_run)


def search_genetic(design: IrModule, population: int = 12, generations: int = 8,
                   seed: int = 0, genome_len: int = 8,
                   costs=None) -> SearchResult:
    """Sequence-genome GA: one-point crossover, per-gene mutation, tournament
    selection, elitism of one."""
    rng = np.random.default_rng(seed)
    run = _Sequences(Evaluator(design, costs))
    catalog = general_passes()
    n_genes = len(catalog)

    def pick():
        cand = rng.integers(0, population, size=TOURNAMENT_SIZE)
        return pop[int(min(cand, key=lambda c: fits[int(c)]))]

    def child():
        a, b = pick(), pick()
        cut = int(rng.integers(1, genome_len))
        genes = a[:cut] + b[cut:]
        for gi in range(genome_len):
            if rng.random() < MUTATION_RATE:
                genes[gi] = int(rng.integers(0, n_genes))
        return genes

    pop = [list(rng.integers(0, n_genes, size=genome_len))
           for _ in range(population)]
    best_fit, best_genome = float("inf"), []
    for gen in range(generations + 1):
        if gen:     # elitism of one
            children = [child() for _ in range(population - 1)]
            pop = [list(best_genome)] + children
        fits = [run([catalog[g] for g in genome]) for genome in pop]
        i = int(np.argmin(fits))
        if fits[i] <= best_fit:     # a tie is the elite itself, at index 0
            best_fit, best_genome = fits[i], list(pop[i])

    baseline = run.ev.baseline
    seq = [catalog[g] for g in best_genome] if best_fit < baseline else []
    return SearchResult(seq, min(best_fit, baseline), baseline,
                        run.evaluations, "genetic", run.passes_run)


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
