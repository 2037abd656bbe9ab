"""In-memory span tracer that wraps passforge functions at their call sites.

A span is (name, tag, start, end, parent).  Spans nest on one call stack, so
a span's self time is its duration minus the durations of its direct
children.  Functions are wrapped in the module that *calls* them: a name bound
by ``from ... import`` lives in the importing module's namespace, and patching
the defining module would miss those calls.  Work the tracer does for itself
(module digests for distinct ratios, stage-graph comparisons) runs inside
``trace.probe`` spans, so it never lands in a layer's self time.
"""
from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from passforge import agent, dataset, embedder, hged, passes
from passforge.agent import baselines, env, ppo
from passforge.embedder import train as embedder_train
from passforge.ir import IrModule

PASS_IDS = tuple(p.value for p in passes.general_passes())

#: Layer spans reported per workload, with the metrics each one gets.
CALLS_AND_SELF = (
    "passes.apply_pass", "ir.verify_module", "ir.print_module",
    "ir.IrModule.clone", "ir.IrModule.digest", "qor.estimate", "hged.hged",
    "hged.ged_beam", "graphs.build_het_graph", "embedder.embed",
    "embedder.pair_loss_grad", "agent.PassEnv.step",
)
SELF_ONLY = ("embedder.pair_loss", "agent.ppo_update", "dataset.dataset_gen")

_digest = IrModule.digest


def _stage_key(g) -> tuple:
    """Stage graph up to node ids: labels in order, edges by position."""
    pos = {n.nid: i for i, n in enumerate(g.nodes)}
    return (tuple((n.kind, n.label) for n in g.nodes),
            tuple(sorted((pos[e.src], pos[e.dst], e.rel) for e in g.edges)))


class Tracer:
    """Records spans while installed; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []   # [name, tag, start, end, parent, child_s]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.seen: dict[str, set] = defaultdict(set)    # within the set
        self.distinct: Counter = Counter()              # summed over sets
        self.counts: Counter = Counter()

    def _begin(self, name: str, tag=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, perf_counter(), 0.0, parent, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _end(self) -> None:
        span = self.spans[self._stack.pop()]
        span[3] = perf_counter()
        if span[4] >= 0:
            self.spans[span[4]][5] += span[3] - span[2]

    def wrap(self, name: str, fn, tag=None, after=None):
        """``tag(args)`` labels the span; ``after(args, result)`` is a probe."""
        def traced(*args, **kwargs):
            self._begin(name, tag(args) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if after is not None:
                self._begin("trace.probe")
                try:
                    after(args, result)
                finally:
                    self._end()
            return result
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer function at each of its call sites."""
        def pass_tag(args):
            p = args[1]
            return p if isinstance(p, str) else p.value

        def after_apply(args, result):
            self.seen["passes.apply_pass"].add(
                (_digest(args[0]), pass_tag(args)))
            if not result.changed:
                self.counts["passes.apply_pass.noop"] += 1

        def after_estimate(args, _result):
            self.seen["qor.estimate"].add(_digest(args[0]))

        def after_beam(args, _result):
            if _stage_key(args[0]) == _stage_key(args[1]):
                self.counts["hged.ged_beam.identical"] += 1

        def after_rollout(_args, traj):
            self.counts["agent.episode_steps"] += len(traj.actions)

        apply_kw = dict(tag=pass_tag, after=after_apply)
        self.patch(passes, "apply_pass", "passes.apply_pass", **apply_kw)
        self.patch(env, "apply_pass", "passes.apply_pass", **apply_kw)
        self.patch(passes, "verify_module", "ir.verify_module")
        self.patch(passes, "print_module", "ir.print_module")
        self.patch(IrModule, "clone", "ir.IrModule.clone")
        self.patch(IrModule, "digest", "ir.IrModule.digest")
        for owner in (env, baselines):
            self.patch(owner, "estimate", "qor.estimate", after=after_estimate)
        self.patch(dataset, "hged", "hged.hged")
        self.patch(hged, "ged_beam", "hged.ged_beam", after=after_beam)
        for owner in (env, dataset):
            self.patch(owner, "build_het_graph", "graphs.build_het_graph")
        self.patch(embedder, "embed", "embedder.embed")
        self.patch(embedder_train, "pair_loss_grad", "embedder.pair_loss_grad")
        self.patch(embedder_train, "pair_loss", "embedder.pair_loss")
        self.patch(env.PassEnv, "step", "agent.PassEnv.step")
        self.patch(ppo, "ppo_update", "agent.ppo_update")
        self.patch(ppo, "rollout_episode", "agent.rollout_episode",
                   after=after_rollout)
        # Entry points the workloads call through these module attributes.
        self.patch(agent, "search_greedy", "agent.search_greedy")
        self.patch(dataset, "dataset_gen", "dataset.dataset_gen")
        self.patch(embedder, "pretrain", "embedder.pretrain")
        self.patch(agent, "train", "agent.train")

    def end_set(self) -> None:
        """Close a set: distinct ratios count repeats within a set only."""
        for name, keys in self.seen.items():
            self.distinct[name] += len(keys)
        self.seen.clear()

    # -- aggregation --------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_metrics(self, sets: int) -> dict[str, float]:
        """Per-layer metrics, per traced set of units."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        pass_self: Counter = Counter()
        durations: dict[str, list[float]] = defaultdict(list)
        for name, tag, start, end, _parent, child_s in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child_s
            durations[name].append(end - start)
            if name == "passes.apply_pass":
                pass_self[tag] += end - start - child_s

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = calls[name] / sets
            out[f"{name}.self_s"] = self_s[name] / sets
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s[name] / sets
        n_apply = calls["passes.apply_pass"]
        out["passes.apply_pass.noop_ratio"] = ratio(
            self.counts["passes.apply_pass.noop"], n_apply)
        out["passes.apply_pass.distinct_ratio"] = ratio(
            self.distinct["passes.apply_pass"], n_apply)
        for pid in PASS_IDS:
            out[f"passes.apply_pass.{pid}.self_s"] = pass_self[pid] / sets
        out["qor.estimate.distinct_ratio"] = ratio(
            self.distinct["qor.estimate"], calls["qor.estimate"])
        pair_ms = sorted(1000 * d for d in durations["hged.hged"]) or [0.0]
        out["hged.hged.pair_ms_p50"] = statistics.median(pair_ms)
        out["hged.hged.pair_ms_p90"] = pair_ms[math.ceil(0.9 * len(pair_ms)) - 1]
        out["hged.ged_beam.identical_ratio"] = ratio(
            self.counts["hged.ged_beam.identical"], calls["hged.ged_beam"])
        return out

    def write(self, path: str, meta: dict) -> None:
        """Dump spans as [name, tag, start, end, parent] with times from t0."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, t, s - t0, e - t0, p] for n, t, s, e, p, _c in self.spans]
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": rows}, f)
