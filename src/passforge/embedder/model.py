"""Relational graph-convolution embedder with analytic gradients.

Three rounds of per-relation message passing (separate weights per relation
and direction, receiver in-degree normalization, ReLU), a readout that mean-
pools three relation-group summaries (data / control / hierarchy) and mixes
them with softmax attention, then a two-layer MLP head and L2 normalization.

A call embeds its graphs as one disjoint union (``GraphUnion``): their
feature rows are stacked in call order, each graph's edge endpoints and
group members are offset by its first row, and each graph keeps its row
range and, per relation, its edge range. The convolutions run once over the
union; the readout and the head run per graph over its row range. ``embed``
is the same forward over a union of one graph. Scatters are ``np.bincount``
over flat ``row * width + column`` indices. Three rules make a graph's
arithmetic in a union the same, bit for bit, as on its own:

- Forward scatter: a bincount from zero adds each receiver's messages in
  edge order, as sequential adds would.
- Backward scatter: the ``dz @ W_self.T`` values come first in the bincount
  weights, so an entry sums ``(a + c1) + c2``, never ``a + (c1 + c2)``.
- Products: a non-transposed product (``h @ W``, ``h[src] @ W``) gives each
  row the same bits on the stacked rows as on one graph's rows, so the
  forward runs it once over the union. A transposed one (``dz @ W.T``,
  ``h.T @ dz``) need not, so the backward runs those per graph, in call
  order, on slices of the union's cached arrays, and each weight gradient
  accumulates the graphs in that order.

The product rule is a property of the BLAS, not of numpy's contract; the
union and pretraining pins in ``tests/test_embedder.py`` check all three.

Everything is plain float64 numpy with hand-written reverse mode so gradients
are exact, finite-difference-checkable, and bitwise reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

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
class GraphUnion:
    """Disjoint union of graphs: stacked rows and offset node ids."""
    x: np.ndarray                                  # (N, input_dim)
    rel_edges: dict[str, tuple[np.ndarray, np.ndarray]]  # rel -> (src, dst)
    rel_deg: dict[str, np.ndarray]                 # rel -> per-dst in-degree
    rel_ranges: dict[str, list[tuple[int, int]]]   # rel -> per-graph edges
    group_nodes: list[dict[str, np.ndarray]]       # per graph: group -> ids
    rows: list[tuple[int, int]]                    # per-graph row range
    num_nodes: int


def graph_data(g: HetGraph, config: RgcnConfig | None = None) -> GraphUnion:
    """The dense arrays of ``g``, as a union of one graph."""
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

    rel_edges, rel_deg, rel_ranges = {}, {}, {}
    for rel in config.relations:
        src, dst = by_rel.get(rel, ([], []))
        src_a = np.asarray(src, dtype=np.int64)
        dst_a = np.asarray(dst, dtype=np.int64)
        rel_edges[rel] = (src_a, dst_a)
        rel_deg[rel] = np.maximum(np.bincount(dst_a, minlength=n), 1.0)
        rel_ranges[rel] = [(0, len(src))]

    groups = {gname: np.asarray(sorted(members), dtype=np.int64)
              for gname, members in group_members.items()}
    return GraphUnion(x, rel_edges, rel_deg, rel_ranges, [groups], [(0, n)], n)


def _join(ranges: list[list[tuple[int, int]]],
          sizes: list[int]) -> list[tuple[int, int]]:
    """Each part's ranges, in order, shifted past the parts before it."""
    starts = np.cumsum([0] + sizes).tolist()
    return [(a + s, b + s) for part, s in zip(ranges, starts) for a, b in part]


def graph_union(parts: list[GraphUnion]) -> GraphUnion:
    """The graphs of ``parts``, in order, as one union."""
    sizes = [u.num_nodes for u in parts]
    starts = np.cumsum([0] + sizes).tolist()
    rel_edges, rel_deg, rel_ranges = {}, {}, {}
    for rel in parts[0].rel_edges:
        srcs = [u.rel_edges[rel][0] + s for u, s in zip(parts, starts)]
        dsts = [u.rel_edges[rel][1] + s for u, s in zip(parts, starts)]
        rel_edges[rel] = (np.concatenate(srcs), np.concatenate(dsts))
        rel_deg[rel] = np.concatenate([u.rel_deg[rel] for u in parts])
        rel_ranges[rel] = _join([u.rel_ranges[rel] for u in parts],
                                [len(src) for src in srcs])
    groups = [{gname: members + s for gname, members in members_of.items()}
              for u, s in zip(parts, starts) for members_of in u.group_nodes]
    return GraphUnion(np.concatenate([u.x for u in parts]), rel_edges,
                      rel_deg, rel_ranges, groups,
                      _join([u.rows for u in parts], sizes), starts[-1])


def _flat(rows: np.ndarray, width: int) -> np.ndarray:
    """Flat indices of every column of ``rows`` in a (N, width) array."""
    return (rows[:, None] * width + np.arange(width)).ravel()


def _scatter(index: np.ndarray, weights: np.ndarray, n: int,
             width: int) -> np.ndarray:
    """(n, width) sums of ``weights`` at flat ``index``, each entry added up
    from zero in the order its weights appear."""
    return np.bincount(index, weights, minlength=n * width).reshape(n, width)


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


def _head(h: np.ndarray, members_of: dict[str, np.ndarray],
          params: dict[str, np.ndarray],
          config: RgcnConfig) -> tuple[np.ndarray, dict]:
    """One graph's readout and MLP head over its rows of ``h``."""
    summaries = np.zeros((len(GROUPS), config.hidden_dim))
    for gi, gname in enumerate(GROUPS):
        members = members_of[gname]
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
    return out, dict(summaries=summaries, alpha=alpha, z_mix=z_mix,
                     pre1=pre1, h1=h1, e=e, norm=norm)


def _head_backward(head: dict, params: dict[str, np.ndarray],
                   d_out: np.ndarray,
                   grads: dict[str, np.ndarray]) -> np.ndarray:
    """Accumulate the head's gradients; returns dL/d(group summaries)."""
    e, norm = head["e"], head["norm"]
    if norm > 1e-12:
        de = d_out / norm - e * (e @ d_out) / norm**3
    else:
        de = np.zeros_like(e)

    grads["mlp/w2"] += np.outer(head["h1"], de)
    grads["mlp/b2"] += de
    dh1 = params["mlp/w2"] @ de
    dpre1 = dh1 * (head["pre1"] > 0)
    grads["mlp/w1"] += np.outer(head["z_mix"], dpre1)
    grads["mlp/b1"] += dpre1
    dz_mix = params["mlp/w1"] @ dpre1

    alpha, summaries = head["alpha"], head["summaries"]
    d_summaries = alpha[:, None] * dz_mix[None, :]
    d_alpha = summaries @ dz_mix
    d_scores = alpha * (d_alpha - float(alpha @ d_alpha))
    for gi, gname in enumerate(GROUPS):
        grads[f"att/{gname}"] += d_scores[gi] * summaries[gi]
        d_summaries[gi] += d_scores[gi] * params[f"att/{gname}"]
    return d_summaries


def forward(u: GraphUnion, params: dict[str, np.ndarray],
            config: RgcnConfig) -> tuple[list[np.ndarray], dict]:
    """Each graph's embedding (L2-normalized, dim E) plus the cache backward
    needs."""
    n, width = u.num_nodes, config.hidden_dim
    flat_dst = {rel: _flat(dst, width)
                for rel, (_src, dst) in u.rel_edges.items() if len(dst)}
    cache: dict = {"h": [u.x]}
    h = u.x
    for k in range(config.layers):
        z = h @ params[f"conv{k}/self"]
        for rel in config.relations:
            src, _dst = u.rel_edges[rel]
            if len(src) == 0:
                continue
            msg = h[src] @ params[f"conv{k}/{rel}"]
            z += _scatter(flat_dst[rel], msg.ravel(), n, width) \
                / u.rel_deg[rel][:, None]
        h = np.maximum(z, 0.0)
        cache["h"].append(h)

    outs, cache["heads"] = [], []
    for members_of in u.group_nodes:
        out, head = _head(h, members_of, params, config)
        outs.append(out)
        cache["heads"].append(head)
    return outs, cache


def backward(u: GraphUnion, params: dict[str, np.ndarray],
             config: RgcnConfig, cache: dict, d_outs: list[np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
    """Accumulate dL/dparams into ``grads`` given dL/d(normalized output) of
    each graph."""
    n, width = u.num_nodes, config.hidden_dim
    dh = np.zeros((n, width))
    for head, members_of, d_out in zip(cache["heads"], u.group_nodes, d_outs):
        d_summaries = _head_backward(head, params, d_out, grads)
        for gi, gname in enumerate(GROUPS):
            members = members_of[gname]
            if len(members):
                dh[members] += d_summaries[gi] / len(members)

    # A layer's scatter adds up each entry of dh from its ``dz @ W_self.T``
    # value, then each relation's contributions in edge order.
    rels = [rel for rel in config.relations if len(u.rel_edges[rel][0])]
    index = _flat(np.concatenate([np.arange(n)] + [
        u.rel_edges[rel][0] for rel in rels]), width)
    weights = np.empty(len(index))
    for k in range(config.layers - 1, -1, -1):
        h_prev = cache["h"][k]
        # ReLU: h > 0 exactly where its pre-activation z > 0.
        dz = dh * (cache["h"][k + 1] > 0)
        w_self = params[f"conv{k}/self"]
        own = weights[:n * width].reshape(n, width)
        for start, end in u.rows:
            grads[f"conv{k}/self"] += h_prev[start:end].T @ dz[start:end]
            # The input features need no gradient.
            if k:
                own[start:end] = dz[start:end] @ w_self.T
        offset = n * width
        for rel in rels:
            src, dst = u.rel_edges[rel]
            w_rel = params[f"conv{k}/{rel}"]
            dmsg = (dz / u.rel_deg[rel][:, None])[dst]
            h_src = h_prev[src]
            contrib = weights[offset:offset + len(src) * width].reshape(
                len(src), width)
            for a, b in u.rel_ranges[rel]:
                if a < b:
                    grads[f"conv{k}/{rel}"] += h_src[a:b].T @ dmsg[a:b]
                    if k:
                        contrib[a:b] = dmsg[a:b] @ w_rel.T
            offset += len(src) * width
        if k:
            dh = _scatter(index, weights, n, width)


def embed(g: HetGraph, params: dict[str, np.ndarray],
          config: RgcnConfig | None = None) -> np.ndarray:
    config = config or RgcnConfig()
    outs, _ = forward(graph_data(g, config), params, config)
    return outs[0]


# ---------------------------------------------------------------------------
# Siamese regression: (1 - cos)/2 of two embeddings regresses the normalized
# HGED label.
# ---------------------------------------------------------------------------

def pair_loss(params: dict[str, np.ndarray], config: RgcnConfig,
              graph_datas: list[GraphUnion],
              pairs: list[tuple[int, int, float]],
              unions: dict | None = None) -> float:
    loss, _ = pair_loss_grad(params, config, graph_datas, pairs,
                             want_grads=False, unions=unions)
    return loss


def pair_loss_grad(params: dict[str, np.ndarray], config: RgcnConfig,
                   graph_datas: list[GraphUnion],
                   pairs: list[tuple[int, int, float]],
                   want_grads: bool = True, unions: dict | None = None):
    """Mean over pairs of ((1 - cos)/2 - label)^2 and its exact gradient.

    The graphs the pairs name run as one union, in index order.  ``unions``,
    a dict the caller owns, keeps each union by those indices, for calls
    whose pairs name the same graphs again; a union is only read."""
    needed = sorted({i for i, _, _ in pairs} | {j for _, j, _ in pairs})
    unions = {} if unions is None else unions
    key = tuple(needed)
    if key not in unions:
        unions[key] = graph_union([graph_datas[gi] for gi in needed])
    union = unions[key]
    out_list, cache = forward(union, params, config)
    outs = dict(zip(needed, out_list))

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
    backward(union, params, config, cache, [d_outs[gi] for gi in needed],
             grads)
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
