"""Relational graph-convolution embedder with analytic gradients.

Three rounds of per-relation message passing (separate weights per relation
and direction, receiver in-degree normalization, ReLU), a readout that mean-
pools three relation-group summaries (data / control / hierarchy) and mixes
them with softmax attention, then a two-layer MLP head and L2 normalization.

A call embeds its graphs as one disjoint union (``GraphUnion``): feature
rows stacked in call order, edge endpoints and group members offset by each
graph's first row.  The union's first forward builds its ``_Plan``.  Each
layer aggregates, then transforms, as in Schlichtkrull et al. (ESWC 2018):
per relation, each distinct destination's mean of its in-neighbours' rows is
one row of a compact block, and the block times ``W_r`` is added at those
destinations.  Scatters are ``np.bincount`` over flat ``row * width +
column`` indices.  ``embed`` is the forward of a one-graph union.

A graph's embedding in a union equals, bit for bit, its embedding alone: a
bincount from zero adds each entry's terms in edge (or member) order, other
ops work row by row, and a gemm gives a row the same bits however many rows
it multiplies.  That last is a property of the BLAS, not of numpy's
contract, and numpy sends one row to gemv instead, so ``_gemm`` sends such a
row twice.  Gradients sum each product over the whole union, so they equal
the per-graph sum only up to rounding.  ``tests/test_embedder.py`` checks
both; finite differences check the gradients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs import HetGraph, NodeKind, Relation
from ..optim import glorot

#: Input feature width: instruction class (9) | block depth bucket (4) | func.
INPUT_DIM = 14
_FIRST_COLUMN = {NodeKind.INSTR: 0, NodeKind.BLOCK: 9, NodeKind.FUNC: 13}

GROUPS = ("data", "control", "hierarchy")

#: Each relation's group, which summarizes the nodes its edges join.
_GROUP_OF = {
    Relation.DATA_FLOW: "data",
    Relation.CONTROL_FLOW: "control",
    Relation.AFFIL_INSTR_BLOCK: "hierarchy",
    Relation.AFFIL_BLOCK_FUNC: "hierarchy",
}
_CODE = {r: c for c, r in enumerate(_GROUP_OF)}
_GROUP_OF_CODE = np.array([GROUPS.index(g) for g in _GROUP_OF.values()])

#: The four forward relations and their reverses.
DEFAULT_RELATIONS: tuple[str, ...] = tuple(
    f"{r.value}:{d}" for r in _GROUP_OF for d in ("fwd", "rev"))


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
    members: np.ndarray     # group members, by graph, then group, then id
    summary: np.ndarray     # each member's summary row: graph * 3 + group
    num_graphs: int
    num_nodes: int
    plan: _Plan | None = None                      # built by the first forward


@dataclass
class _Plan:
    """A union's blocks and indices for one config.  Each relation's distinct
    destinations own one block of rows, stacked in relation order."""
    src: np.ndarray                 # each edge's source, relations in order
    edge_row: np.ndarray            # each edge's destination's block row
    node: np.ndarray                # each block row's destination
    deg: np.ndarray                 # (B, 1) in-degree of each block row
    blocks: list[tuple[str, slice]]  # each relation's rows
    agg0: np.ndarray                # layer 0's aggregates, (B, input_dim)
    size: np.ndarray                # (3G, 1) members per summary, at least 1
    # Flat indices at the hidden width:
    to_rows: np.ndarray             # of ``edge_row``
    to_nodes: np.ndarray            # of ``node``
    to_summary: np.ndarray          # of ``u.summary``
    from_src: np.ndarray            # of ``src``
    from_members: np.ndarray        # of ``u.members``


def graph_data(g: HetGraph, config: RgcnConfig | None = None) -> GraphUnion:
    """The dense arrays of ``g``, as a union of one graph."""
    config = config or RgcnConfig()
    n = g.num_nodes
    x = np.zeros((n, config.input_dim))
    for node in g.nodes:
        col = _FIRST_COLUMN[node.kind]
        x[node.node_id, col:col + len(node.attr)] = node.attr

    src, dst, code = np.array(
        [(e.src, e.dst, _CODE[e.relation]) for e in g.edges],
        dtype=np.int64).reshape(-1, 3).T
    rel_edges = {}
    for r, c in _CODE.items():
        mask = code == c
        rel_edges[f"{r.value}:fwd"] = (src[mask], dst[mask])
        rel_edges[f"{r.value}:rev"] = (dst[mask], src[mask])
    joins = np.zeros((len(GROUPS), n), dtype=bool)
    joins[_GROUP_OF_CODE[code], src] = joins[_GROUP_OF_CODE[code], dst] = True
    summary, members = np.nonzero(joins)
    return GraphUnion(x, {rel: rel_edges[rel] for rel in config.relations},
                      members, summary, 1, n)


def graph_union(parts: list[GraphUnion]) -> GraphUnion:
    """The graphs of ``parts``, in order, as one union."""
    starts = np.cumsum([0] + [u.num_nodes for u in parts]).tolist()
    firsts = np.cumsum([0] + [u.num_graphs for u in parts]).tolist()
    rel_edges = {}
    for rel in parts[0].rel_edges:
        srcs = [u.rel_edges[rel][0] + s for u, s in zip(parts, starts)]
        dsts = [u.rel_edges[rel][1] + s for u, s in zip(parts, starts)]
        rel_edges[rel] = (np.concatenate(srcs), np.concatenate(dsts))
    return GraphUnion(
        np.concatenate([u.x for u in parts]), rel_edges,
        np.concatenate([u.members + s for u, s in zip(parts, starts)]),
        np.concatenate([u.summary + len(GROUPS) * f
                        for u, f in zip(parts, firsts)]),
        firsts[-1], starts[-1])


def _flat(rows: np.ndarray, width: int) -> np.ndarray:
    """Flat indices of every column of ``rows`` in a (N, width) array."""
    return (rows[:, None] * width + np.arange(width)).ravel()


def _scatter(index: np.ndarray, weights: np.ndarray, n: int,
             width: int) -> np.ndarray:
    """(n, width) sums of ``weights`` at flat ``index``, each entry added up
    from zero in the order its weights appear."""
    return np.bincount(index, weights, minlength=n * width).reshape(n, width)


def build_plan(u: GraphUnion, config: RgcnConfig) -> _Plan:
    """``u``'s blocks, layer 0's aggregates and flat indices."""
    n, width = u.num_nodes, config.hidden_dim
    rels = [rel for rel in config.relations if len(u.rel_edges[rel][0])]
    src, dst = map(np.concatenate, zip(*[u.rel_edges[rel] for rel in rels]))
    # Relation r's destination v is key r * n + v; its block row is the
    # number of distinct keys below it.
    key = dst + np.repeat(np.arange(len(rels)) * n,
                          [len(u.rel_edges[rel][0]) for rel in rels])
    dest = np.flatnonzero(np.bincount(key, minlength=len(rels) * n))
    node, edge_row = dest % n, np.searchsorted(dest, key)
    firsts = np.searchsorted(dest, np.arange(len(rels) + 1) * n).tolist()
    deg = np.bincount(edge_row)[:, None] * 1.0
    size = np.bincount(u.summary, minlength=len(GROUPS) * u.num_graphs)
    indices = [edge_row, node, u.summary, src, u.members]
    ends = np.cumsum([0] + [len(i) for i in indices]) * width
    flat = _flat(np.concatenate(indices), width)
    return _Plan(src, edge_row, node, deg,
                 [(rel, slice(a, b)) for rel, a, b in
                  zip(rels, firsts, firsts[1:])],
                 _aggregate(u.x, src, _flat(edge_row, u.x.shape[1]), deg),
                 np.maximum(size, 1)[:, None],
                 *(flat[a:b] for a, b in zip(ends, ends[1:])))


def _aggregate(h: np.ndarray, src: np.ndarray, to_rows: np.ndarray,
               deg: np.ndarray) -> np.ndarray:
    """Each block row's mean of its in-neighbours' rows of ``h``."""
    return _scatter(to_rows, h[src].ravel(), len(deg), h.shape[1]) / deg


def _gemm(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ w`` into ``out`` as a gemm: numpy sends a one-row product to
    gemv, whose bits differ from the same row's in a gemm."""
    if len(a) == 1:
        out[:] = (a[[0, 0]] @ w)[:1]
        return out
    return np.matmul(a, w, out=out)


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


def _readout(h: np.ndarray, u: GraphUnion, params: dict[str, np.ndarray],
             config: RgcnConfig) -> tuple[np.ndarray, dict]:
    """Every graph's embedding, (G, E), from its rows of ``h``."""
    plan, width, graphs = u.plan, config.hidden_dim, u.num_graphs
    summaries = (_scatter(plan.to_summary, h[u.members].ravel(),
                          len(plan.size), width) / plan.size
                 ).reshape(graphs, len(GROUPS), width)
    att = np.stack([params[f"att/{g}"] for g in GROUPS])
    scores = (summaries * att).sum(axis=2)
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    alpha = exp / exp.sum(axis=1, keepdims=True)
    z_mix = (alpha[:, :, None] * summaries).sum(axis=1)

    pre1 = _gemm(z_mix, params["mlp/w1"], np.empty((graphs, width)))
    pre1 += params["mlp/b1"]
    h1 = np.maximum(pre1, 0.0)
    e = _gemm(h1, params["mlp/w2"], np.empty((graphs, config.embed_dim)))
    e += params["mlp/b2"]
    norm = np.sqrt((e * e).sum(axis=1, keepdims=True))
    norm[norm <= 1e-12] = np.inf    # a (near) zero embedding maps to zero
    return e / norm, dict(summaries=summaries, att=att, alpha=alpha,
                          z_mix=z_mix, pre1=pre1, h1=h1, e=e, norm=norm)


def _readout_backward(u: GraphUnion, params: dict[str, np.ndarray],
                      head: dict, d_out: np.ndarray,
                      grads: dict[str, np.ndarray]) -> np.ndarray:
    """Accumulate the readout's gradients; returns dL/dh."""
    e, norm = head["e"], head["norm"]
    de = d_out / norm - e * (e * d_out).sum(axis=1, keepdims=True) / norm**3
    grads["mlp/w2"] += head["h1"].T @ de
    grads["mlp/b2"] += de.sum(axis=0)
    dpre1 = (de @ params["mlp/w2"].T) * (head["pre1"] > 0)
    grads["mlp/w1"] += head["z_mix"].T @ dpre1
    grads["mlp/b1"] += dpre1.sum(axis=0)
    dz_mix = (dpre1 @ params["mlp/w1"].T)[:, None, :]

    alpha, summaries = head["alpha"], head["summaries"]
    d_alpha = (summaries * dz_mix).sum(axis=2)
    d_scores = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
    for gi, gname in enumerate(GROUPS):
        grads[f"att/{gname}"] += d_scores[:, gi] @ summaries[:, gi]
    d_summaries = alpha[:, :, None] * dz_mix + d_scores[:, :, None] * head["att"]
    d_means = d_summaries.reshape(len(u.plan.size), -1) / u.plan.size
    return _scatter(u.plan.from_members, d_means[u.summary].ravel(),
                    u.num_nodes, d_means.shape[1])


def forward(u: GraphUnion, params: dict[str, np.ndarray],
            config: RgcnConfig) -> tuple[list[np.ndarray], dict]:
    """Each graph's embedding (L2-normalized, dim E) plus the cache backward
    needs."""
    if u.plan is None:
        u.plan = build_plan(u, config)
    plan, width = u.plan, config.hidden_dim
    h, cache = u.x, {"h": [u.x], "s": []}
    for k in range(config.layers):
        s = _aggregate(h, plan.src, plan.to_rows, plan.deg) if k else plan.agg0
        msg = np.empty((len(s), width))
        for rel, rows in plan.blocks:
            _gemm(s[rows], params[f"conv{k}/{rel}"], msg[rows])
        h = np.maximum(h @ params[f"conv{k}/self"] + _scatter(
            plan.to_nodes, msg.ravel(), u.num_nodes, width), 0.0)
        cache["s"].append(s)
        cache["h"].append(h)
    out, cache["head"] = _readout(h, u, params, config)
    return list(out), cache


def backward(u: GraphUnion, params: dict[str, np.ndarray],
             config: RgcnConfig, cache: dict, d_outs: list[np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
    """Accumulate dL/dparams into ``grads`` given dL/d(normalized output) of
    each graph; consumes ``cache``."""
    n, width, plan = u.num_nodes, config.hidden_dim, u.plan
    dh = _readout_backward(u, params, cache["head"], np.array(d_outs), grads)
    for k in range(config.layers - 1, -1, -1):
        # ReLU: h > 0 exactly where z > 0.  Cached rows go once used.
        dz = dh * (cache["h"].pop() > 0)
        s, dz_rows = cache["s"].pop(), dz[plan.node]
        grads[f"conv{k}/self"] += cache["h"][k].T @ dz
        for rel, rows in plan.blocks:
            grads[f"conv{k}/{rel}"] += s[rows].T @ dz_rows[rows]
        if k == 0:
            break       # the input features need no gradient
        ds = np.empty(s.shape)
        for rel, rows in plan.blocks:
            ds[rows] = dz_rows[rows] @ params[f"conv{k}/{rel}"].T
        ds /= plan.deg
        dh = dz @ params[f"conv{k}/self"].T + _scatter(
            plan.from_src, ds[plan.edge_row].ravel(), n, width)
        del dz, dz_rows, ds     # before the next layer's are allocated


def embed(g: HetGraph, params: dict[str, np.ndarray],
          config: RgcnConfig | None = None) -> np.ndarray:
    config = config or RgcnConfig()
    return forward(graph_data(g, config), params, config)[0][0]


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
    a dict the caller owns, keeps each union, and the plan its first forward
    built, by those indices, for calls whose pairs name the same graphs
    again."""
    needed = sorted({i for i, _, _ in pairs} | {j for _, j, _ in pairs})
    unions = {} if unions is None else unions
    key = tuple(needed)
    if key not in unions:
        unions[key] = graph_union([graph_datas[gi] for gi in needed])
    union = unions[key]
    out_list, cache = forward(union, params, config)
    outs = dict(zip(needed, out_list))

    n, loss = len(pairs), 0.0
    d_outs = {gi: np.zeros(config.embed_dim) for gi in needed}
    for i, j, label in pairs:
        diff = (1.0 - float(outs[i] @ outs[j])) / 2.0 - label
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
