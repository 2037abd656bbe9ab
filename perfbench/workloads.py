"""The three benchmark workloads: ``search``, ``label`` and ``learn``.

Every workload runs in one process, closed loop and single threaded.  Its work
is a list of *units*, run in order and round-robin; a run measures every unit
at least once.  The first ``min_units`` of them are a *set*, the work of one
step of a traced run.  A unit that runs again must repeat its output digest
exactly.

The designs come from ``corpus_gen(12, 0)``, the ROADMAP Baseline corpus:
greedy time on ``corpus_gen(12, seed)`` spans 5.8 to 12.5 s over seeds 0-9,
a spread wider than any bound the benchmark may set.  For the same reason
label's ``dataset_gen`` calls take fixed seeds (``LABEL_CALL_SEEDS``): the
sampled sequences and pairs set the cost of a pair, and when each run made
three calls with seeds drawn from the workload seed, the spread of
``pairs_per_s`` over five or ten workload seeds was 0.09 to 0.20 in three
tries.  The seed drives the rest: search and label order, interpreter
inputs, and model and policy initialisation and sampling.
"""
from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from passforge import agent, dataset, embedder
from passforge.agent import ppo
from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import FuelExhausted, TrapError, interpret, parse_module
from passforge.passes import apply_pragma_passes, apply_sequence
from passforge.qor import EstimateError, dynamic_cycle_oracle, estimate

CORPUS = (12, 0)
LEARN_DATASET_SEED = 0
SEEDS = 8       # learn rounds each take their own seed
LABEL_CALL_SEEDS = (0, 1)


@dataclass(frozen=True)
class Sizes:
    """Work per unit; ``SMOKE`` is the smallest size that reaches every layer."""
    designs: tuple[int, ...] = tuple(range(12))   # search and label
    k_sequences: int = 6
    max_len: int = 6
    intra_cap: int = 10
    cross_pairs: int = 40
    learn_designs: tuple[int, ...] = (1, 2, 3, 4)
    learn_k: int = 4
    learn_max_len: int = 4
    learn_intra_cap: int = 4
    learn_cross_pairs: int = 8
    epochs: int = 30
    ppo_iterations: int = 8


FULL = Sizes()
SMOKE = Sizes(designs=(3, 10), k_sequences=3, max_len=3, intra_cap=2,
              cross_pairs=1, learn_designs=(3, 4, 10), learn_k=2,
              learn_max_len=2, learn_intra_cap=1, learn_cross_pairs=1,
              epochs=2, ppo_iterations=1)


@dataclass
class Unit:
    key: str
    run: object     # () -> (output digest, operations, program's own count)


@dataclass
class Gate:
    """Result of the correctness gate, run outside the timed region."""
    problems: list[str] = field(default_factory=list)
    oracle_logs: list[float] = field(default_factory=list)
    estimate_logs: list[float] = field(default_factory=list)
    _refs: dict = field(default_factory=dict)

    def speedups(self) -> tuple[float, float]:
        def geo(logs):
            return math.exp(statistics.fmean(logs)) if logs else 1.0
        return geo(self.oracle_logs), geo(self.estimate_logs)

    def compare(self, what: str, base, out, inputs) -> bool:
        """Interpreter check of ``out`` against ``base`` on ``inputs``; logs
        the oracle and estimate speedups of ``out`` over ``base``."""
        key = (id(base), id(inputs))    # the entry keeps both alive
        if key not in self._refs:
            self._refs[key] = (base, inputs, _outcome(base, inputs),
                               *_costs(base, inputs))
        _, _, ref, base_oracle, base_est = self._refs[key]
        got = _outcome(out, inputs)
        if ref != got:
            self.problems.append(f"{what}: interpreter {ref} != {got}")
            return False
        if ref[0] == "ok":
            oracle, est = _costs(out, inputs)
            self.oracle_logs.append(math.log(base_oracle / oracle))
            if base_est and est:
                self.estimate_logs.append(math.log(base_est / est))
        return True


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _params_digest(params: dict) -> str:
    return _sha(*(k.encode() + np.ascontiguousarray(params[k]).tobytes()
                  for k in sorted(params)))


def _finite_params(params: dict) -> bool:
    return all(np.isfinite(v).all() for v in params.values())


def _outcome(module, inputs) -> tuple:
    """Interpreter outcome: return value and memory digest, or trap class."""
    try:
        r = interpret(module, inputs)
    except TrapError as e:
        return ("trap", e.kind)
    except FuelExhausted:
        return ("fuel",)
    return ("ok", r.return_value, r.memory_digest)


def _costs(module, inputs) -> tuple[int | None, float | None]:
    """Interpreter-oracle cycles, and estimated cycles when the model can
    price the module (a pipelined loop that lost its trip count cannot be)."""
    try:
        oracle = dynamic_cycle_oracle(module, inputs)
    except (TrapError, FuelExhausted):
        return None, None
    try:
        return oracle, float(estimate(module).cycles)
    except EstimateError:
        return oracle, None


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.digests: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.attempted = 0          # operations attempted in timed units

    def setup(self) -> None:
        """Build the inputs; timed as set-up and repeated."""
        corpus = corpus_gen(*CORPUS)
        self.designs = [corpus[i] for i in self.sizes.designs]

    def units(self) -> list[Unit]:
        raise NotImplementedError

    @property
    def min_units(self) -> int:
        return 1

    def run_unit(self, unit: Unit) -> tuple[float, int, int]:
        """Run one unit and check its digest against earlier runs.

        Returns its seconds, its operations and the program's own count."""
        t = perf_counter()
        digest, ops, count = unit.run()
        elapsed = perf_counter() - t
        self.attempted += self.ops_attempted(ops)
        first = self.digests.setdefault(unit.key, digest)
        if first != digest:
            self.mismatches.append(f"{unit.key}: digest {digest} != {first}")
        return elapsed, ops, count

    def ops_attempted(self, ops: int) -> int:
        return ops

    def reconcile(self, tracer, count: int) -> tuple[str, int, int]:
        """(span, traced calls, the program's own count) over traced units."""
        raise NotImplementedError

    def gate(self) -> Gate:
        raise NotImplementedError

    def failed(self, gate: Gate) -> int:
        """Failed operations over every unit run, from the gate's verdict."""
        raise NotImplementedError

    def info(self, metrics: dict) -> dict[str, tuple[float, str]]:
        """(value, unit) of the metrics under this workload's own names."""
        raise NotImplementedError

    def incidents_per_unit(self) -> float:
        return 0.0

    def output_digest(self) -> str:
        """Digest of the first set's outputs, which every run produces."""
        return _sha(*sorted(list(self.digests.items())[:self.min_units]))


class Search(Workload):
    """Greedy search (default catalog and cost table) of each design; a set
    is the whole corpus, in an order drawn from the seed."""
    name = "search"

    def setup(self) -> None:
        super().setup()
        self.modules = [(n, parse_module(t)) for n, t in self.designs]
        self.results: dict[str, agent.SearchResult] = {}
        self.runs: dict[str, int] = {}

    @property
    def min_units(self) -> int:
        return len(self.modules)

    def units(self) -> list[Unit]:
        order = np.random.default_rng(self.seed).permutation(len(self.modules))
        return [self._unit(*self.modules[int(i)]) for i in order]

    def _unit(self, name, module) -> Unit:
        def run():
            r = agent.search_greedy(module)
            self.results.setdefault(name, r)
            self.runs[name] = self.runs.get(name, 0) + 1
            return (_sha([p.value for p in r.sequence], r.cycles,
                         r.baseline_cycles, r.evaluations), 1, r.evaluations)
        return Unit(name, run)

    def reconcile(self, tracer, count: int) -> tuple[str, int, int]:
        return "passes.apply_pass", tracer.calls("passes.apply_pass"), count

    def info(self, metrics: dict) -> dict[str, tuple[float, str]]:
        return {"designs_per_s": (metrics["ops_per_s"], "1/s"),
                "design_ms_p50": (metrics["op_ms_p50"], "ms")}

    def gate(self) -> Gate:
        gate = Gate()
        self.bad: set[str] = set()
        for idx, (name, module) in enumerate(self.modules):
            if name not in self.results:
                continue
            r = self.results[name]
            base = apply_pragma_passes(module)
            out, _ = apply_sequence(base, r.sequence)
            replay = float(estimate(out).cycles)
            if replay != r.cycles:
                gate.problems.append(f"{name}: replayed cycles {replay} != "
                                     f"{r.cycles}")
                self.bad.add(name)
            inputs = random_inputs(base, np.random.default_rng([self.seed, idx]))
            if not gate.compare(name, base, out, inputs):
                self.bad.add(name)
        return gate

    def failed(self, gate: Gate) -> int:
        return sum(self.runs[n] for n in self.bad)


class Label(Workload):
    """``dataset_gen`` calls in the ROADMAP Baseline shape, one per seed of
    ``LABEL_CALL_SEEDS``, in an order drawn from the workload seed."""
    name = "label"

    def setup(self) -> None:
        super().setup()
        self.datasets: dict[int, dataset.Dataset] = {}
        self.runs: dict[int, int] = {}

    def units(self) -> list[Unit]:
        order = np.random.default_rng(self.seed).permutation(LABEL_CALL_SEEDS)
        return [Unit(f"seed{r}", lambda r=int(r): self._call(r))
                for r in order]

    def _call(self, seed: int):
        s = self.sizes
        ds = dataset.dataset_gen(self.designs, s.k_sequences, s.max_len, seed,
                                 intra_pair_cap=s.intra_cap,
                                 cross_pairs=s.cross_pairs)
        self.datasets.setdefault(seed, ds)
        self.runs[seed] = self.runs.get(seed, 0) + 1
        return (_sha([(v.name, v.text, v.split) for v in ds.variants],
                     [(p.i, p.j, p.label, p.split) for p in ds.pairs],
                     sorted(ds.meta.items())), len(ds.pairs), len(ds.pairs))

    def ops_attempted(self, ops: int) -> int:
        # Every sampled sequence and every pair is an operation.
        return len(self.designs) * (self.sizes.k_sequences - 1) + ops

    def reconcile(self, tracer, count: int) -> tuple[str, int, int]:
        return "hged.hged", tracer.calls("hged.hged"), count

    def info(self, metrics: dict) -> dict[str, tuple[float, str]]:
        return {"pairs_per_s": (metrics["ops_per_s"], "1/s")}

    def gate(self) -> Gate:
        """Labels of every call; the interpreter check of the first call's
        variants only, as a case1 variant takes 0.5 s to interpret."""
        gate = Gate()
        self.bad: dict[int, int] = {}
        first = min(self.datasets)
        for seed, ds in self.datasets.items():
            bad = ds.meta.get("skipped", 0)
            for p in ds.pairs:
                if not (math.isfinite(p.label) and 0.0 <= p.label <= 1.0):
                    gate.problems.append(f"seed {seed} pair {p.i},{p.j}: "
                                         f"label {p.label}")
                    bad += 1
            bases: dict[str, tuple] = {}
            for v in ds.variants if seed == first else ():
                module = parse_module(v.text)
                if v.design not in bases:    # a design's first variant is itself
                    rng = np.random.default_rng([self.seed, len(bases)])
                    bases[v.design] = (module, random_inputs(module, rng))
                    continue
                base, inputs = bases[v.design]
                if not gate.compare(f"seed {seed} {v.name}", base, module,
                                inputs):
                    bad += 1
            self.bad[seed] = bad
        return gate

    def failed(self, gate: Gate) -> int:
        return sum(self.bad[s] * n for s, n in self.runs.items())


class Learn(Workload):
    """Fixed pretrain epochs, then fixed PPO iterations on R-GCN observations
    of the pretrained model; one round per seed."""
    name = "learn"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.epoch_s: list[float] = []
        self.iter_s: list[float] = []
        self.incidents = 0
        self.estimate_incidents = 0     # the recoverable ones, see failed()
        self.rounds = 0
        self.outputs: dict[int, tuple] = {}     # seed -> first round's output

    def setup(self) -> None:
        # The dataset is learn's fixed input, as the corpus is; its size sets
        # the epoch cost, so a seed of its own keeps that cost equal across
        # workload seeds.
        s = self.sizes
        corpus = corpus_gen(*CORPUS)
        self.designs = [corpus[i] for i in s.learn_designs]
        self.ds = dataset.dataset_gen(
            self.designs, s.learn_k, s.learn_max_len, LEARN_DATASET_SEED,
            intra_pair_cap=s.learn_intra_cap, cross_pairs=s.learn_cross_pairs)
        self.modules = [(n, parse_module(t)) for n, t in self.designs]
        self.model_cfg = embedder.RgcnConfig()

    def units(self) -> list[Unit]:
        return [Unit(f"seed{r}", lambda r=r: self._round(self.seed * 1000 + r))
                for r in range(SEEDS)]

    def _round(self, seed: int):
        s, cfg = self.sizes, self.model_cfg
        ticks = [perf_counter()]

        def tick(into):
            def log(_entry):
                now = perf_counter()
                into.append(now - ticks[-1])
                ticks.append(now)
            return log

        params, log = embedder.pretrain(
            self.ds.graphs(), self.ds.pairs, cfg,
            embedder.PretrainConfig(seed=seed, max_epochs=s.epochs,
                                    patience=s.epochs),
            log_fn=tick(self.epoch_s))

        def obs_fn(g):
            return embedder.embed(g, params, cfg)

        envs = []
        make_env = ppo.PassEnv
        estimate_errors = [0]

        def counting(cycles):
            # ``PassEnv`` prices modules only in ``reset``, where an error
            # ends the round, and in ``step``, where it becomes an incident.
            def priced(module):
                try:
                    return cycles(module)
                except EstimateError:
                    estimate_errors[0] += 1
                    raise
            return priced

        def recording_env(*args, **kwargs):
            env = make_env(*args, **kwargs)
            env._cycles = counting(env._cycles)
            envs.append(env)
            return env

        config = agent.PpoConfig(iterations=s.ppo_iterations, seed=seed)
        ppo.PassEnv = recording_env
        try:
            ticks.append(perf_counter())
            policy, curve = agent.train(self.modules, obs_fn, config, seed,
                                        cfg.embed_dim, log_fn=tick(self.iter_s))
        finally:
            ppo.PassEnv = make_env
        self.incidents += sum(len(e.incidents) for e in envs)
        self.estimate_incidents += estimate_errors[0]
        self.rounds += 1
        self.outputs.setdefault(seed, (params, log, policy, curve, obs_fn))
        return (_sha(_params_digest(params),
                     [(e.train_loss, e.val_loss) for e in log],
                     _params_digest(policy),
                     [(c.mean_return, c.mean_cycles_ratio) for c in curve]),
                1, 0)

    def ops_attempted(self, ops: int) -> int:
        # Every PPO episode is an operation.
        return ops * self.sizes.ppo_iterations * \
            agent.PpoConfig().episodes_per_iteration

    def reconcile(self, tracer, count: int) -> tuple[str, int, int]:
        """Env steps against the episode lengths the rollouts returned."""
        return ("agent.PassEnv.step", tracer.calls("agent.PassEnv.step"),
                tracer.counts["agent.episode_steps"])

    def gate(self) -> Gate:
        """Finite losses and parameters, and the interpreter check of each
        round's policy on every design."""
        gate = Gate()
        bases = []
        for idx, (name, module) in enumerate(self.modules):
            base = apply_pragma_passes(module)
            rng = np.random.default_rng([self.seed, idx])
            bases.append((name, module, base, random_inputs(base, rng)))
        for seed, (params, log, policy, curve, obs_fn) in self.outputs.items():
            values = [x for e in log for x in (e.train_loss, e.val_loss)]
            values += [c.mean_return for c in curve]
            if not all(math.isfinite(x) for x in values):
                gate.problems.append(f"seed {seed}: non-finite loss or return")
            if not (_finite_params(params) and _finite_params(policy)):
                gate.problems.append(f"seed {seed}: non-finite parameters")
            for name, module, base, inputs in bases:
                seq, _cycles, _best = agent.infer(module, policy, obs_fn)
                out, _ = apply_sequence(base, seq)
                gate.compare(f"seed {seed} {name} policy", base, out, inputs)
        return gate

    def failed(self, gate: Gate) -> int:
        """A failed gate fails every episode.  A ``PassEnv`` incident ends its
        episode; one from ``estimate`` (``case2``'s ``UnknownTrip``) is a
        recoverable outcome of the environment, as for the search
        baselines, and is counted in ``agent.incidents``; any other one, a
        pass that raised, fails its episode."""
        if gate.problems:
            return self.attempted
        return self.incidents - self.estimate_incidents

    def incidents_per_unit(self) -> float:
        return self.incidents / self.rounds

    def info(self, metrics: dict) -> dict[str, tuple[float, str]]:
        return {"round_ms_p50": (metrics["op_ms_p50"], "ms"),
                "pretrain_epoch_s": (statistics.median(self.epoch_s), "s"),
                "ppo_iter_s": (statistics.median(self.iter_s), "s"),
                "incident_ratio": (self.incidents / self.attempted, "ratio")}


WORKLOADS = {w.name: w for w in (Search, Label, Learn)}
