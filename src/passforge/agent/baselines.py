"""Classical search baselines: random, greedy, and genetic.

Each search runs one ``Evaluator`` (shared with ``PassEnv``), which applies
and prices every pass it runs; its transition table runs each transition
once, and its memo prices each distinct module once.  A search is charged
for the passes it ran, the entries of that table (``SearchResult``), the
one count every method reports.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import IrModule
from ..passes import PassError, PassId, general_passes
from ..qor import estimate  # noqa: F401 - perfbench tracer pin
from .env import Evaluator

#: Genetic search: per-gene mutation probability and tournament size.
MUTATION_RATE = 0.1
TOURNAMENT_SIZE = 3


@dataclass
class SearchResult:
    """The best sequence a search found, its cycles and the no-pass
    baseline's; ``evaluations`` is the number of passes the search ran, one
    per transition its evaluator's table holds."""
    sequence: list[PassId]
    cycles: float
    baseline_cycles: float
    evaluations: int
    method: str


def search_random(design: IrModule, budget_sequences: int, seed: int,
                  max_len: int = 16, costs=None) -> SearchResult:
    """Best of N uniformly random sequences."""
    rng = np.random.default_rng(seed)
    ev = Evaluator(design, costs)
    catalog = general_passes()
    best_seq: list[PassId] = []
    best = ev.baseline
    for _ in range(budget_sequences):
        length = int(rng.integers(1, max_len + 1))
        seq = [catalog[int(rng.integers(0, len(catalog)))] for _ in range(length)]
        cycles = ev.run(seq)
        if cycles < best:
            best, best_seq = cycles, seq
    return SearchResult(best_seq, best, ev.baseline, len(ev.table), "random")


def search_greedy(design: IrModule, max_len: int = 16, costs=None) -> SearchResult:
    """Append the single pass with the largest strict improvement, applied
    to the module the sequence so far produced, until no pass improves;
    final cycles never exceed the no-pass baseline."""
    ev = Evaluator(design, costs)
    seq: list[PassId] = []
    module, digest, current = ev.base, ev.base_digest, ev.baseline
    while len(seq) < max_len:
        options = []
        for p in general_passes():
            try:
                r = ev.step(module, digest, p)
            except PassError as e:
                raise e.at_step(len(seq))
            options.append((ev.price(r), len(options), r))
        cycles, _i, r = min(options)
        if cycles >= current:
            break
        seq.append(r.pass_id)
        module, digest, current = r.module, r.digest, cycles
    return SearchResult(seq, current, ev.baseline, len(ev.table), "greedy")


def search_genetic(design: IrModule, population: int = 12, generations: int = 8,
                   seed: int = 0, genome_len: int = 8,
                   costs=None) -> SearchResult:
    """Sequence-genome GA: one-point crossover, per-gene mutation, tournament
    selection, elitism of one."""
    rng = np.random.default_rng(seed)
    ev = Evaluator(design, costs)
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
        fits = [ev.run([catalog[g] for g in genome]) for genome in pop]
        i = int(np.argmin(fits))
        if fits[i] <= best_fit:     # a tie is the elite itself, at index 0
            best_fit, best_genome = fits[i], list(pop[i])

    seq = [catalog[g] for g in best_genome] if best_fit < ev.baseline else []
    return SearchResult(seq, min(best_fit, ev.baseline), ev.baseline,
                        len(ev.table), "genetic")

