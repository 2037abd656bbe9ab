"""Relational graph-convolution embedder with analytic gradients.

Three rounds of per-relation message passing (separate weights per relation
and direction, receiver in-degree normalization, ReLU), a readout that mean-
pools three relation-group summaries (data / control / hierarchy) and mixes
them with softmax attention, then a two-layer MLP head and L2 normalization.

Everything is plain float64 numpy with hand-written reverse mode so gradients
are exact, finite-difference-checkable, and bitwise reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs import HetGraph, NodeKind, Relation
from ..optim import glorot

#: Input feature width: instruction class (9) | block depth bucket (4) | func.
INPUT_DIM = 14

#: The four forward relations and their reverses.
DEFAULT_RELATIONS: tuple[str, ...] = tuple(
    f"{r.value}:{d}" for r in (Relation.DATA_FLOW, Relation.CONTROL_FLOW,
                               Relation.AFFIL_INSTR_BLOCK,
                               Relation.AFFIL_BLOCK_FUNC)
    for d in ("fwd", "rev"))

GROUPS = ("data", "control", "hierarchy")

_GROUP_OF = {
    Relation.DATA_FLOW.value: "data",
    Relation.CONTROL_FLOW.value: "control",
    Relation.AFFIL_INSTR_BLOCK.value: "hierarchy",
    Relation.AFFIL_BLOCK_FUNC.value: "hierarchy",
}


@dataclass
class RgcnConfig:
    input_dim: int = INPUT_DIM
    hidden_dim: int = 64
    embed_dim: int = 32
    layers: int = 3
    relations: tuple[str, ...] = DEFAULT_RELATIONS

    def to_dict(self) -> dict:
        return {"input_dim": self.input_dim, "hidden_dim": self.hidden_dim,
                "embed_dim": self.embed_dim, "layers": self.layers,
                "relations": list(self.relations)}

    @staticmethod
    def from_dict(doc: dict) -> "RgcnConfig":
        return RgcnConfig(doc["input_dim"], doc["hidden_dim"],
                          doc["embed_dim"], doc["layers"],
                          tuple(doc["relations"]))


@dataclass
class GraphData:
    """Dense arrays extracted once per graph."""
    x: np.ndarray                                  # (N, input_dim)
    rel_edges: dict[str, tuple[np.ndarray, np.ndarray]]  # rel -> (src, dst)
    rel_deg: dict[str, np.ndarray]                 # rel -> per-dst in-degree
    group_nodes: dict[str, np.ndarray]             # group -> member node ids
    num_nodes: int


def graph_data(g: HetGraph, config: RgcnConfig | None = None) -> GraphData:
    config = config or RgcnConfig()
    n = g.num_nodes
    x = np.zeros((n, config.input_dim))
    for node in g.nodes:
        if node.kind is NodeKind.INSTR:
            x[node.node_id, :9] = node.attr
        elif node.kind is NodeKind.BLOCK:
            x[node.node_id, 9:13] = node.attr
        else:
            x[node.node_id, 13] = node.attr[0]

    by_rel: dict[str, tuple[list[int], list[int]]] = {}
    group_members: dict[str, set[int]] = {gname: set() for gname in GROUPS}
    for e in g.edges:
        fwd = f"{e.relation.value}:fwd"
        rev = f"{e.relation.value}:rev"
        by_rel.setdefault(fwd, ([], []))
        by_rel.setdefault(rev, ([], []))
        by_rel[fwd][0].append(e.src)
        by_rel[fwd][1].append(e.dst)
        by_rel[rev][0].append(e.dst)
        by_rel[rev][1].append(e.src)
        gname = _GROUP_OF[e.relation.value]
        group_members[gname].add(e.src)
        group_members[gname].add(e.dst)

    rel_edges = {}
    rel_deg = {}
    for rel in config.relations:
        src, dst = by_rel.get(rel, ([], []))
        src_a = np.asarray(src, dtype=np.int64)
        dst_a = np.asarray(dst, dtype=np.int64)
        deg = np.zeros(n)
        if len(dst_a):
            np.add.at(deg, dst_a, 1.0)
        rel_edges[rel] = (src_a, dst_a)
        rel_deg[rel] = np.maximum(deg, 1.0)

    groups = {gname: np.asarray(sorted(members), dtype=np.int64)
              for gname, members in group_members.items()}
    return GraphData(x, rel_edges, rel_deg, groups, n)


def init_params(config: RgcnConfig, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for k in range(config.layers):
        d_in = config.input_dim if k == 0 else config.hidden_dim
        for rel in config.relations:
            params[f"conv{k}/{rel}"] = glorot(rng, (d_in, config.hidden_dim))
        params[f"conv{k}/self"] = glorot(rng, (d_in, config.hidden_dim))
    for gname in GROUPS:
        params[f"att/{gname}"] = rng.uniform(-0.5, 0.5, size=config.hidden_dim)
    params["mlp/w1"] = glorot(rng, (config.hidden_dim, config.hidden_dim))
    params["mlp/b1"] = np.zeros(config.hidden_dim)
    params["mlp/w2"] = glorot(rng, (config.hidden_dim, config.embed_dim))
    params["mlp/b2"] = np.zeros(config.embed_dim)
    return params


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def forward(gd: GraphData, params: dict[str, np.ndarray],
            config: RgcnConfig) -> tuple[np.ndarray, dict]:
    """Embedding (L2-normalized, dim E) plus the cache backward needs."""
    cache: dict = {"h": [gd.x]}
    h = gd.x
    for k in range(config.layers):
        z = h @ params[f"conv{k}/self"]
        for rel in config.relations:
            src, dst = gd.rel_edges[rel]
            if len(src) == 0:
                continue
            msg = h[src] @ params[f"conv{k}/{rel}"]
            agg = np.zeros((gd.num_nodes, config.hidden_dim))
            np.add.at(agg, dst, msg)
            z += agg / gd.rel_deg[rel][:, None]
        h_new = np.maximum(z, 0.0)
        cache.setdefault("z", []).append(z)
        cache["h"].append(h_new)
        h = h_new

    summaries = np.zeros((len(GROUPS), config.hidden_dim))
    for gi, gname in enumerate(GROUPS):
        members = gd.group_nodes[gname]
        if len(members):
            summaries[gi] = h[members].mean(axis=0)
    scores = np.array([params[f"att/{g}"] @ summaries[gi]
                       for gi, g in enumerate(GROUPS)])
    scores -= scores.max()
    exp = np.exp(scores)
    alpha = exp / exp.sum()
    z_mix = alpha @ summaries

    pre1 = z_mix @ params["mlp/w1"] + params["mlp/b1"]
    h1 = np.maximum(pre1, 0.0)
    e = h1 @ params["mlp/w2"] + params["mlp/b2"]
    norm = float(np.linalg.norm(e))
    out = e / norm if norm > 1e-12 else np.zeros_like(e)

    cache.update(summaries=summaries, alpha=alpha, z_mix=z_mix, pre1=pre1,
                 h1=h1, e=e, norm=norm, out=out)
    return out, cache


def backward(gd: GraphData, params: dict[str, np.ndarray],
             config: RgcnConfig, cache: dict, d_out: np.ndarray,
             grads: dict[str, np.ndarray]) -> None:
    """Accumulate dL/dparams into ``grads`` given dL/d(normalized output)."""
    e, norm = cache["e"], cache["norm"]
    if norm > 1e-12:
        de = d_out / norm - e * (e @ d_out) / norm**3
    else:
        de = np.zeros_like(e)

    grads["mlp/w2"] += np.outer(cache["h1"], de)
    grads["mlp/b2"] += de
    dh1 = params["mlp/w2"] @ de
    dpre1 = dh1 * (cache["pre1"] > 0)
    grads["mlp/w1"] += np.outer(cache["z_mix"], dpre1)
    grads["mlp/b1"] += dpre1
    dz_mix = params["mlp/w1"] @ dpre1

    alpha, summaries = cache["alpha"], cache["summaries"]
    d_summaries = alpha[:, None] * dz_mix[None, :]
    d_alpha = summaries @ dz_mix
    d_scores = alpha * (d_alpha - float(alpha @ d_alpha))
    for gi, gname in enumerate(GROUPS):
        grads[f"att/{gname}"] += d_scores[gi] * summaries[gi]
        d_summaries[gi] += d_scores[gi] * params[f"att/{gname}"]

    dh = np.zeros((gd.num_nodes, config.hidden_dim))
    for gi, gname in enumerate(GROUPS):
        members = gd.group_nodes[gname]
        if len(members):
            dh[members] += d_summaries[gi] / len(members)

    for k in range(config.layers - 1, -1, -1):
        z = cache["z"][k]
        h_prev = cache["h"][k]
        dz = dh * (z > 0)
        grads[f"conv{k}/self"] += h_prev.T @ dz
        dh_prev = dz @ params[f"conv{k}/self"].T
        for rel in config.relations:
            src, dst = gd.rel_edges[rel]
            if len(src) == 0:
                continue
            dagg = dz / gd.rel_deg[rel][:, None]
            dmsg = dagg[dst]
            grads[f"conv{k}/{rel}"] += h_prev[src].T @ dmsg
            contrib = dmsg @ params[f"conv{k}/{rel}"].T
            np.add.at(dh_prev, src, contrib)
        dh = dh_prev


def embed(g: HetGraph | GraphData, params: dict[str, np.ndarray],
          config: RgcnConfig | None = None) -> np.ndarray:
    config = config or RgcnConfig()
    gd = g if isinstance(g, GraphData) else graph_data(g, config)
    out, _ = forward(gd, params, config)
    return out


# ---------------------------------------------------------------------------
# Contrastive objective: cosine distance regresses the normalized HGED label.
# ---------------------------------------------------------------------------

def pair_loss(params: dict[str, np.ndarray], config: RgcnConfig,
              graph_datas: list[GraphData],
              pairs: list[tuple[int, int, float]]) -> float:
    loss, _ = pair_loss_grad(params, config, graph_datas, pairs,
                             want_grads=False)
    return loss


def pair_loss_grad(params: dict[str, np.ndarray], config: RgcnConfig,
                   graph_datas: list[GraphData],
                   pairs: list[tuple[int, int, float]],
                   want_grads: bool = True):
    """Mean over pairs of ((1 - cos)/2 - label)^2 and its exact gradient."""
    needed = sorted({i for i, _, _ in pairs} | {j for _, j, _ in pairs})
    caches: dict[int, dict] = {}
    outs: dict[int, np.ndarray] = {}
    for gi in needed:
        out, cache = forward(graph_datas[gi], params, config)
        outs[gi] = out
        caches[gi] = cache

    n = len(pairs)
    loss = 0.0
    d_outs = {gi: np.zeros(config.embed_dim) for gi in needed}
    for i, j, label in pairs:
        cos = float(outs[i] @ outs[j])
        pred = (1.0 - cos) / 2.0
        diff = pred - label
        loss += diff * diff
        if want_grads:
            dcos = 2.0 * diff / n * (-0.5)
            d_outs[i] += dcos * outs[j]
            d_outs[j] += dcos * outs[i]
    loss /= n
    if not want_grads:
        return loss, None
    grads = zero_grads(params)
    for gi in needed:
        backward(graph_datas[gi], params, config, caches[gi], d_outs[gi], grads)
    return loss, grads


# ---------------------------------------------------------------------------
# Observation baselines for the ablations.
# ---------------------------------------------------------------------------

def featurize_baseline(g: HetGraph, mode: str, embed_dim: int = 32) -> np.ndarray:
    """'all_zero' or 'opcode_histogram' observation vectors (dim E)."""
    if mode == "all_zero":
        return np.zeros(embed_dim)
    if mode == "opcode_histogram":
        counts = np.zeros(9)
        total = 0
        for node in g.nodes:
            if node.kind is NodeKind.INSTR:
                counts += np.asarray(node.attr)
                total += 1
        if total:
            counts /= total
        out = np.zeros(embed_dim)
        out[:9] = counts
        return out
    raise ValueError(f"unknown baseline mode {mode!r}")
