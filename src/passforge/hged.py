"""Two-stage heterogeneous graph edit distance.

Stage 1 matches control skeletons (block and function nodes, control-flow and
block-function affiliation edges) and produces a block mapping; stage 2 prices
the instruction level conditioned on that mapping: instructions may substitute
only into the block their block was mapped to, instructions of unmapped blocks
pay full delete or insert (plus their affiliation edge), and data-flow edges
crossing block pairs are priced under the composed instruction mapping.

Substitutions never cross node kinds, all costs are symmetric by default, and
the normalized distance divides by the delete-everything-plus-insert-
everything path so labels land in [0, 1].

Each stage pair is one search over edit paths, best-first (``ged_exact``) or
a beam (``ged_beam``).  Exact mode is not exact: its best-first search runs
under a bound that ``ged_exact`` documents as not admissible, so it can
return more than the optimum; beam mode returns an upper bound.  Level i
maps G1's node i to an unused G2 node of its kind or deletes it, in a fixed
candidate order.  A search state carries what its bound needs, besides its
cost and mapping: G2's unused nodes counted per label and per kind, its
unused-to-unused edges counted per relation, and the label term of the
bound.  A child updates these from per-node label ids and incident-edge
lists.  Each search tabulates what all children at a level
share: G1's label, kind and relation counts over nodes i.., node i's deletion
cost, and each adjacency's one-sided edge cost (``_edge_pair_cost`` against no
edges) on both sides.  A substitution prices only the earlier nodes adjacent
to the pair, in ascending order: an equal edge multiset adds nothing, a
one-sided mismatch adds its tabulated value, and only a two-sided one calls
``_edge_pair_cost``.  The bound's edge surplus and deficit are counted once
per parent and moved by one per G2 edge a child uses up.  Each float sum keeps
the operands and order of the plain definition, so every cost keeps its bits:

* a tabulated value comes from the same function on the same inputs;
* a skipped term adds +0.0 to a sum that starts at +0.0 or at
  ``node_sub_mismatch``, and the path cost g is never -0.0 (a sum is -0.0
  only when both operands are), so ``g + cost`` has the same bits;
* the bound terms are ints.

``ged_beam`` answers a pair of stage graphs that are equal up to node ids
(``StageGraph.key``) at once: cost 0 and the positional identity, which is
exactly what the search returns when no cost is negative or non-finite and
every deletion costs at least 1 (``_beam_keeps_identity``; the default costs
qualify, ``EditCostModel.from_dict`` rejects negative ones).  ``ged_exact``
pops newest-first and may end on another zero-cost mapping of an automorphic
graph, so it always searches.

``hged(..., memo=dict)`` caches beam stage results by both stage keys, the
beam width, the affiliation extras and the cost model, with the mapping
stored by position; a search result is a function of exactly these, so a hit
returns what a fresh search would.  The memo belongs to its caller:
``dataset_gen`` makes one per call, whose pairs repeat many block pairs, and
a call given none makes its own, which it drops on return.
The memo also holds each graph's ``_StageView`` (skeleton, per-block
instruction graphs with their cached keys, data-flow and cross-block edges),
keyed by the graph's id.  The entry holds the graph, so the id is not reused,
and the graph must not be mutated, while the memo lives.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .graphs import EdgeRecord, HetGraph, NodeKind, Relation

DEFAULT_BEAM_WIDTH = 32
EXACT_NODE_LIMIT = 24      # combined node count per ged_exact call
EXACT_SKELETON_LIMIT = 12  # blocks per graph in exact mode


class SizeError(Exception):
    pass


@dataclass
class EditCostModel:
    node_insert: dict[str, float] = field(
        default_factory=lambda: {"instr": 1.0, "block": 1.0, "func": 1.0})
    node_delete: dict[str, float] = field(
        default_factory=lambda: {"instr": 1.0, "block": 1.0, "func": 1.0})
    node_sub_mismatch: float = 1.0
    edge_insert: dict[str, float] = field(
        default_factory=lambda: {r.value: 1.0 for r in Relation})
    edge_delete: dict[str, float] = field(
        default_factory=lambda: {r.value: 1.0 for r in Relation})
    edge_sub_mismatch: float = 1.0
    w1: float = 1.0
    w2: float = 1.0

    def n_ins(self, kind: str) -> float:
        return self.node_insert.get(kind, 1.0)

    def n_del(self, kind: str) -> float:
        return self.node_delete.get(kind, 1.0)

    def e_ins(self, rel: str) -> float:
        return self.edge_insert.get(rel, 1.0)

    def e_del(self, rel: str) -> float:
        return self.edge_delete.get(rel, 1.0)

    def to_dict(self) -> dict:
        return {"node_insert": self.node_insert, "node_delete": self.node_delete,
                "node_sub_mismatch": self.node_sub_mismatch,
                "edge_insert": self.edge_insert, "edge_delete": self.edge_delete,
                "edge_sub_mismatch": self.edge_sub_mismatch,
                "w1": self.w1, "w2": self.w2}

    def bad_costs(self) -> list[str]:
        """The costs that are not finite non-negative numbers."""
        bad = []
        for name, value in self.to_dict().items():
            items = ({f"{name}.{k}": v for k, v in value.items()}
                     if isinstance(value, dict) else {name: value})
            bad += [f"{k}={v!r}" for k, v in items.items()
                    if isinstance(v, bool) or not isinstance(v, (int, float))
                    or not 0 <= v < math.inf]
        return bad

    @staticmethod
    def from_dict(doc: dict) -> "EditCostModel":
        """Raises ValueError on an unknown field, node kind or relation, and
        on a cost that is not a finite non-negative number."""
        if not isinstance(doc, dict):
            raise ValueError("edit costs must be a JSON object")
        m = EditCostModel()
        defaults = m.to_dict()
        for k, v in doc.items():
            if k not in defaults:
                raise ValueError(f"unknown edit cost {k!r}")
            if isinstance(defaults[k], dict):
                if not isinstance(v, dict):
                    raise ValueError(f"{k} must be an object of costs")
                unknown = sorted(set(v) - set(defaults[k]))
                if unknown:
                    raise ValueError(f"unknown {k} keys {unknown}")
            setattr(m, k, v)
        bad = m.bad_costs()
        if bad:
            raise ValueError(f"costs must be finite and non-negative: "
                             f"{', '.join(bad)}")
        return m


@dataclass(frozen=True)
class StageNode:
    nid: int
    kind: str
    label: tuple


@dataclass(frozen=True)
class StageEdge:
    src: int
    dst: int
    rel: str


@dataclass
class StageGraph:
    nodes: list[StageNode]
    edges: list[StageEdge]

    def __post_init__(self):
        self.between: dict[tuple[int, int], list[str]] = {}
        for e in self.edges:
            self.between.setdefault((e.src, e.dst), []).append(e.rel)
        for rels in self.between.values():
            rels.sort()

    @cached_property
    def key(self) -> tuple:
        """The graph up to node ids: (kind, label) of each node, and (source
        position, target position, relation) of each edge, in order.  A
        search result is a function of the two keys, its costs and widths."""
        pos = {n.nid: i for i, n in enumerate(self.nodes)}
        return (tuple((n.kind, n.label) for n in self.nodes),
                tuple((pos[e.src], pos[e.dst], e.rel) for e in self.edges))


@dataclass
class HgedResult:
    stage1_cost: float
    stage2_cost: float
    total: float
    normalized: float
    block_mapping: dict[int, int]
    exact: bool


def _edge_pair_cost(rels1: tuple, rels2: tuple, costs: EditCostModel) -> float:
    """Cost of reconciling parallel edge multisets (sorted) between two node
    pairs."""
    if rels1 == rels2:
        return 0.0
    cost = 0.0
    if not rels2:
        for rel in rels1:
            cost += costs.e_del(rel)
        return cost
    if not rels1:
        for rel in rels2:
            cost += costs.e_ins(rel)
        return cost
    c1, c2 = Counter(rels1), Counter(rels2)
    extra1 = list((c1 - c2).elements())
    extra2 = list((c2 - c1).elements())
    subs = min(len(extra1), len(extra2))
    cost += subs * costs.edge_sub_mismatch
    for rel in extra1[subs:]:
        cost += costs.e_del(rel)
    for rel in extra2[subs:]:
        cost += costs.e_ins(rel)
    return cost


def _serial_sum(values) -> float:
    """Left-to-right float sum.  The builtin ``sum`` compensates rounding
    from Python 3.12 on, which would make labels depend on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _delete_all_cost(g: StageGraph, costs: EditCostModel) -> float:
    return (_serial_sum(costs.n_del(n.kind) for n in g.nodes)
            + _serial_sum(costs.e_del(e.rel) for e in g.edges))


def _insert_all_cost(g: StageGraph, costs: EditCostModel) -> float:
    return (_serial_sum(costs.n_ins(n.kind) for n in g.nodes)
            + _serial_sum(costs.e_ins(e.rel) for e in g.edges))


_NO_EDGES = ((), ())
#: A ``_neighbours`` entry of two nodes that are not adjacent.
_NO_ADJ = ((), (), 0.0, 0.0)


def _edge_excess(e1: list[int], e2: list[int]) -> tuple[int, int]:
    """Relation counts of the first remaining edge set over the second, and
    of the second over the first; the larger is the edge bound."""
    surplus = deficit = 0
    for x, y in zip(e1, e2):
        if x > y:
            surplus += x - y
        else:
            deficit += y - x
    return surplus, deficit


def _neighbours(g: StageGraph, one_sided) -> list[dict[int, tuple]]:
    """For each node position, every other node position adjacent to it,
    with the sorted relations of the edges (from it, to it) and what each
    of the two costs against no edges, ``one_sided(rels)``."""
    pos = {n.nid: i for i, n in enumerate(g.nodes)}
    near: list[dict[int, tuple]] = [{} for _ in g.nodes]
    for (src, dst), rels in g.between.items():
        i, j = pos[src], pos[dst]
        if i != j:
            near[i][j] = (tuple(rels), near[i].get(j, _NO_EDGES)[1])
            near[j][i] = (near[j].get(i, _NO_EDGES)[0], tuple(rels))
    return [{j: (out, into, one_sided(out), one_sided(into))
             for j, (out, into) in adjacent.items()} for adjacent in near]


class _Search:
    """Shared machinery for exact (A*) and beam searches over edit paths.

    Level i decides G1's node i.  A state is ``(g, mapping, inv, r2, t2, e2,
    lab)``: the path cost; the G2 position (or None) of each decided G1 node;
    the G1 position of each G2 node, None while unused; G2's unused nodes
    counted per label id and per kind id; its unused-to-unused edges counted
    per relation id; and the label-multiset mismatch between G1's nodes i..
    and G2's unused nodes.  States share these lists with their children and
    are never mutated."""

    def __init__(self, g1: StageGraph, g2: StageGraph, costs: EditCostModel,
                 del_extra: float = 0.0, ins_extra: float = 0.0):
        self.costs = costs
        self.n1, self.n2 = n1, n2 = len(g1.nodes), len(g2.nodes)
        labels: dict[tuple, int] = {}
        kinds: dict[str, int] = {}
        rels: dict[str, int] = {}
        self.lid1 = [labels.setdefault((n.kind, n.label), len(labels))
                     for n in g1.nodes]
        self.lid2 = [labels.setdefault((n.kind, n.label), len(labels))
                     for n in g2.nodes]
        self.kid1 = [kinds.setdefault(n.kind, len(kinds)) for n in g1.nodes]
        self.kid2 = [kinds.setdefault(n.kind, len(kinds)) for n in g2.nodes]
        for e in g1.edges + g2.edges:
            rels.setdefault(e.rel, len(rels))
        pos1 = {n.nid: i for i, n in enumerate(g1.nodes)}
        pos2 = {n.nid: j for j, n in enumerate(g2.nodes)}

        # G1 side of the heuristic, per level: the label, kind and
        # remaining-to-remaining relation counts of nodes i..
        self.labels1 = [[0] * len(labels) for _ in range(n1 + 1)]
        self.kinds1 = [[0] * len(kinds) for _ in range(n1 + 1)]
        self.edges1 = [[0] * len(rels) for _ in range(n1 + 1)]
        for e in g1.edges:
            self.edges1[min(pos1[e.src], pos1[e.dst])][rels[e.rel]] += 1
        for i in range(n1 - 1, -1, -1):
            self.labels1[i] = self.labels1[i + 1].copy()
            self.labels1[i][self.lid1[i]] += 1
            self.kinds1[i] = self.kinds1[i + 1].copy()
            self.kinds1[i][self.kid1[i]] += 1
            self.edges1[i] = [x + y for x, y in
                              zip(self.edges1[i], self.edges1[i + 1])]

        # Edge pricing: G1's earlier neighbours of each node, in ascending
        # order, and G2's neighbours, each with its one-sided costs.  A G1
        # self-loop is never priced by an assignment.
        self.near1 = [{j: adj for j, adj in sorted(near.items()) if j < i}
                      for i, near in enumerate(_neighbours(
                          g1, lambda rels: _edge_pair_cost(rels, (), costs)))]
        self.near2 = _neighbours(
            g2, lambda rels: _edge_pair_cost((), rels, costs))
        self.rel2 = [rels[e.rel] for e in g2.edges]
        self.inc2: list[list[tuple[int, int]]] = [[] for _ in range(n2)]
        for e, r in zip(g2.edges, self.rel2):
            i, j = pos2[e.src], pos2[e.dst]
            self.inc2[i].append((j, r))
            if i != j:
                self.inc2[j].append((i, r))
        self.by_kind2: list[list[int]] = [[] for _ in kinds]
        for j, k in enumerate(self.kid2):
            self.by_kind2[k].append(j)

        # Fixed costs, each summed in the same order on every path: deleting
        # node i with its edges to earlier nodes, and inserting G2's rest.
        self.del_cost = []
        for n, near in zip(g1.nodes, self.near1):
            cost = costs.n_del(n.kind) + del_extra
            for out, into, _, _ in near.values():
                for rel in out + into:
                    cost += costs.e_del(rel)
            self.del_cost.append(cost)
        self.ins_node = [costs.n_ins(n.kind) + ins_extra for n in g2.nodes]
        self.ins_edges = [(pos2[e.src], pos2[e.dst], costs.e_ins(e.rel))
                          for e in g2.edges]
        self.nid1 = [n.nid for n in g1.nodes]
        self.nid2 = [n.nid for n in g2.nodes]
        self.n_rels = len(rels)
        self.n_kinds = len(kinds)
        self.n_labels = len(labels)

    def start(self) -> tuple:
        r2 = [0] * self.n_labels
        for lid in self.lid2:
            r2[lid] += 1
        t2 = [0] * self.n_kinds
        for k in self.kid2:
            t2[k] += 1
        e2 = [0] * self.n_rels
        for r in self.rel2:
            e2[r] += 1
        lab = sum(max(x, y) for x, y in zip(self.kinds1[0], t2))
        lab -= sum(min(x, y) for x, y in zip(self.labels1[0], r2))
        return (0.0, (), [None] * self.n2, r2, t2, e2, lab)

    def finish_cost(self, inv: list, also_used: int | None = None) -> float:
        """Insert every unused G2 node and all its incident edges."""
        cost = 0.0
        for j, c in enumerate(self.ins_node):
            if inv[j] is None and j != also_used:
                cost += c
        for src, dst, c in self.ins_edges:
            if (inv[src] is None and src != also_used) or \
                    (inv[dst] is None and dst != also_used):
                cost += c
        return cost

    def candidates(self, i: int, inv: list) -> list[int | None]:
        """Unused G2 nodes of node i's kind, in identity-friendly tie order:
        the same index first, then deletion, then by index."""
        same = self.by_kind2[self.kid1[i]]
        if i < self.n2 and self.kid2[i] == self.kid1[i] and inv[i] is None:
            return [i, None] + [j for j in same if inv[j] is None and j != i]
        return [None] + [j for j in same if inv[j] is None]

    def expand(self, state: tuple, i: int) -> list[tuple]:
        """Children of ``state`` at level i, in candidate order, as ``(f, g,
        state, cand, lab, e2)``; ``settle`` makes one a state.

        g adds the cost of deciding node i: deleting it, or substituting it
        and reconciling the edges to every earlier node adjacent to it or
        whose image is adjacent to its own, in ascending order.  f adds a
        bound to g: label-multiset mismatch between G1's nodes i.. (the node
        just decided included) and G2's unused nodes, plus relation-count
        mismatch over remaining-to-remaining edges, both updated from the
        parent's counts; on the last level, the exact cost of inserting what
        is left of G2.  ``lab`` is the child's own label term, over G1's
        nodes i+1.."""
        g, mapping, inv, r2, t2, e2, lab = state
        costs = self.costs
        last = i + 1 == self.n1
        a, k = self.lid1[i], self.kid1[i]
        rest1 = self.labels1[i]
        t1k, t2k, ra = self.kinds1[i][k], t2[k], rest1[a]
        # Deciding node i removes it from G1's side: max(t1k, .) and
        # min(ra, r2[a]) each drop by one or not at all.  A substitution
        # also removes a G2 node of kind k.
        nlab_del = lab - max(t1k, t2k) + max(t1k - 1, t2k) + (ra <= r2[a])
        hlab_sub = lab - max(t1k, t2k) + max(t1k, t2k - 1)
        nlab_sub = max(t1k - 1, t2k - 1) - max(t1k, t2k - 1)
        edges1 = self.edges1[i + 1]
        surplus, deficit = _edge_excess(edges1, e2)
        bound = max(surplus, deficit)
        near1 = self.near1[i]
        out = []
        for cand in self.candidates(i, inv):
            if cand is None:
                ng = g + self.del_cost[i]
            else:
                cost = 0.0 if a == self.lid2[cand] else costs.node_sub_mismatch
                near2 = self.near2[cand]
                order = [j for t in near2 if (j := inv[t]) is not None
                         and j not in near1]
                if order:
                    order.extend(near1)
                    order.sort()
                else:
                    order = near1
                for j in order:
                    t = mapping[j]
                    out1, in1, del_out, del_in = near1.get(j, _NO_ADJ)
                    out2, in2, ins_out, ins_in = _NO_ADJ if t is None \
                        else near2.get(t, _NO_ADJ)
                    # Equal multisets cost nothing; against no edges, a
                    # multiset costs its one-sided value.
                    if out1 != out2:
                        if out1 and out2:
                            cost += _edge_pair_cost(out1, out2, costs)
                        else:
                            cost += ins_out if out2 else del_out
                    if in1 != in2:
                        if in1 and in2:
                            cost += _edge_pair_cost(in1, in2, costs)
                        else:
                            cost += ins_in if in2 else del_in
                ng = g + cost
            if last:
                out.append((ng + self.finish_cost(inv, cand), ng, state, cand,
                            0, e2))
            elif cand is None:
                out.append((ng + (lab + bound), ng, state, None, nlab_del, e2))
            else:
                b = self.lid2[cand]
                hlab = hlab_sub + (r2[b] <= rest1[b])
                nlab = hlab + nlab_sub + (ra <= r2[a] - (a == b))
                # Each G2 edge it uses up moves one relation count by one.
                ne2, more, fewer = e2, surplus, deficit
                for t, r in self.inc2[cand]:
                    if inv[t] is None:
                        if ne2 is e2:
                            ne2 = e2.copy()
                        if edges1[r] >= ne2[r]:
                            more += 1
                        else:
                            fewer -= 1
                        ne2[r] -= 1
                out.append((ng + (hlab + (more if more > fewer else fewer)),
                            ng, state, cand, nlab, ne2))
        return out

    def settle(self, child: tuple, i: int) -> tuple:
        _f, ng, state, cand, lab, e2 = child
        _g, mapping, inv, r2, t2, _e2, _lab = state
        if cand is not None:
            inv = inv.copy()
            inv[cand] = i
            r2 = r2.copy()
            r2[self.lid2[cand]] -= 1
            t2 = t2.copy()
            t2[self.kid2[cand]] -= 1
        return (ng, mapping + (cand,), inv, r2, t2, e2, lab)

    def total(self, state: tuple) -> tuple[float, dict[int, int]]:
        """Cost and node-id mapping of a complete state."""
        g, mapping, inv = state[:3]
        return g + self.finish_cost(inv), {
            self.nid1[k]: self.nid2[t] for k, t in enumerate(mapping)
            if t is not None}


#: Ceiling on best-first expansions; A*-GED is exponential in the worst case
#: and the exact mode's contract is small graphs only.
EXACT_EXPANSION_BUDGET = 400_000


def ged_exact(g1: StageGraph, g2: StageGraph, costs: EditCostModel,
              node_limit: int = EXACT_NODE_LIMIT, del_extra: float = 0.0,
              ins_extra: float = 0.0) -> tuple[float, dict[int, int]]:
    """Edit distance via best-first search.  The bound's label term counts
    the node just decided, so it is not admissible and the result can exceed
    the optimum: [A, B] against [A], no edges, unit costs, returns 2, not 1."""
    if len(g1.nodes) + len(g2.nodes) > node_limit:
        raise SizeError(
            f"{len(g1.nodes)}+{len(g2.nodes)} nodes exceeds the exact-mode "
            f"limit of {node_limit}")
    search = _Search(g1, g2, costs, del_extra, ins_extra)
    counter = itertools.count()
    # Ties on f pop newest-first (depth-first), so a zero-cost identity path
    # dives straight to the goal instead of flooding the frontier.
    heap = [(0.0, -next(counter), search.start())]
    expansions = 0
    while heap:
        expansions += 1
        if expansions > EXACT_EXPANSION_BUDGET:
            raise SizeError(
                f"exact search exceeded {EXACT_EXPANSION_BUDGET} expansions")
        _f, _, state = heapq.heappop(heap)
        i = len(state[1])
        if i == search.n1:
            # f is the full cost of a complete state.
            return search.total(state)
        for child in search.expand(state, i):
            heapq.heappush(heap, (child[0], -next(counter),
                                  search.settle(child, i)))
    raise RuntimeError("search exhausted without a complete edit path")


def _beam_keeps_identity(g: StageGraph, costs: EditCostModel,
                         del_extra: float, ins_extra: float) -> bool:
    """Whether beam search of ``g`` against a copy equal up to node ids
    returns the positional identity at cost 0.

    The identity child is generated first at every level, with f = 1 (the
    label bound still counts the node just decided) and f = 0 on the last.
    No child is cheaper, so the stable sort keeps it first, when no cost is
    negative or non-finite and every deletion costs at least 1: a path with
    a deletion has g >= 1, and one without has a label bound >= 1."""
    return not costs.bad_costs() and all(
        costs.n_del(kind) + del_extra >= 1 and costs.n_ins(kind) + ins_extra >= 0
        for kind in {n.kind for n in g.nodes})


def ged_beam(g1: StageGraph, g2: StageGraph, costs: EditCostModel,
             width: int = DEFAULT_BEAM_WIDTH, del_extra: float = 0.0,
             ins_extra: float = 0.0) -> tuple[float, dict[int, int]]:
    """Beam search over the same state space; returns a valid (upper-bound)
    edit path cost and its mapping.  Graphs equal up to node ids return 0
    and the positional identity at once (see the module docstring)."""
    if width < 1:
        raise ValueError("beam width must be >= 1")
    if g1.key == g2.key and _beam_keeps_identity(g1, costs, del_extra,
                                                 ins_extra):
        return 0.0, {a.nid: b.nid for a, b in zip(g1.nodes, g2.nodes)}
    search = _Search(g1, g2, costs, del_extra, ins_extra)
    level = [search.start()]
    for i in range(search.n1):
        children = [c for state in level for c in search.expand(state, i)]
        children.sort(key=itemgetter(0))
        level = [search.settle(c, i) for c in children[:width]]
    # The sort is stable and f is the full cost on the last level, so the
    # first state is the cheapest path, the earliest one on ties.
    return search.total(level[0])


# ---------------------------------------------------------------------------
# Stage extraction from HetGraphs
# ---------------------------------------------------------------------------

@dataclass
class _StageView:
    """What ``hged`` reads of one graph: its skeleton and block node ids,
    each block's instruction graph (by block node id, in node order), its
    data-flow edges, and those between blocks as (src, dst, relation)."""
    graph: HetGraph
    skeleton: StageGraph
    blocks: set[int]
    per_block: dict[int, StageGraph]
    data: list[EdgeRecord]
    cross: set[tuple[int, int, str]]


_NO_INSTRS = StageGraph([], [])


def _stage_view(g: HetGraph, memo: dict) -> _StageView:
    """The view of ``g``, built once per memo (see the module docstring)."""
    key = ("view", id(g))
    if key in memo:
        return memo[key]
    keep = {n.node_id for n in g.nodes
            if n.kind in (NodeKind.BLOCK, NodeKind.FUNC)}
    skeleton = StageGraph(
        [StageNode(n.node_id, n.kind.value, tuple(n.attr))
         for n in g.nodes if n.node_id in keep],
        [StageEdge(e.src, e.dst, e.relation.value) for e in g.edges
         if e.relation in (Relation.CONTROL_FLOW, Relation.AFFIL_BLOCK_FUNC)
         and e.src in keep and e.dst in keep])
    block_of = {e.src: e.dst for e in g.edges
                if e.relation is Relation.AFFIL_INSTR_BLOCK}
    instrs: dict[int, list[StageNode]] = {}
    for n in g.nodes:
        if n.kind is NodeKind.INSTR:
            instrs.setdefault(block_of[n.node_id], []).append(
                StageNode(n.node_id, n.kind.value, tuple(n.attr)))
    data = [e for e in g.edges if e.relation is Relation.DATA_FLOW]
    internal: dict[int, list[StageEdge]] = {b: [] for b in instrs}
    cross = set()
    for e in data:
        b = block_of.get(e.src)
        if b != block_of.get(e.dst):
            cross.add((e.src, e.dst, e.relation.value))
        elif b in internal:
            internal[b].append(StageEdge(e.src, e.dst, e.relation.value))
    view = _StageView(
        g, skeleton, {n.nid for n in skeleton.nodes if n.kind == "block"},
        {b: StageGraph(ns, internal[b]) for b, ns in instrs.items()},
        data, cross)
    memo[key] = view
    return view


def hged(g1: HetGraph, g2: HetGraph, costs: EditCostModel | None = None,
         mode: str = "exact", beam_width: int = DEFAULT_BEAM_WIDTH,
         memo: dict | None = None) -> HgedResult:
    """Two-stage edit distance between two program graphs.

    mode "exact" uses best-first search everywhere and enforces the skeleton
    and node-count limits.  Its bound is not admissible (see ``ged_exact``),
    so despite the name it can return more than the optimum.  "beam" never
    errors and yields an upper bound.  ``memo``, a dict the caller owns and
    passes to each call, caches each graph's stage view and beam stage
    results (see the module docstring); without one, the call makes its
    own."""
    costs = costs or EditCostModel()
    memo = {} if memo is None else memo
    exact_mode = mode == "exact"
    if mode not in ("exact", "beam"):
        raise ValueError(f"unknown mode {mode!r}")

    v1, v2 = _stage_view(g1, memo), _stage_view(g2, memo)
    sk1, sk2 = v1.skeleton, v2.skeleton
    blocks1, blocks2 = len(v1.blocks), len(v2.blocks)
    if exact_mode and max(blocks1, blocks2) > EXACT_SKELETON_LIMIT:
        raise SizeError(
            f"skeletons have {blocks1}/{blocks2} blocks; exact mode allows "
            f"{EXACT_SKELETON_LIMIT}")

    cost_key = repr(costs)

    def run_stage(a: StageGraph, b: StageGraph, del_extra=0.0, ins_extra=0.0):
        if exact_mode:
            # Inside the staged decomposition the per-pair searches are kept
            # honest by the expansion budget; the standalone node limit would
            # reject identity pairs of larger blocks that search instantly.
            limit = max(EXACT_NODE_LIMIT, len(a.nodes) + len(b.nodes))
            return ged_exact(a, b, costs, limit, del_extra, ins_extra)
        key = (a.key, b.key, beam_width, del_extra, ins_extra, cost_key)
        if key not in memo:
            cost, mapping = ged_beam(a, b, costs, beam_width, del_extra,
                                     ins_extra)
            pos = {n.nid: j for j, n in enumerate(b.nodes)}
            memo[key] = (cost, [pos.get(mapping.get(n.nid)) for n in a.nodes])
        cost, targets = memo[key]
        return cost, {n.nid: b.nodes[t].nid for n, t in zip(a.nodes, targets)
                      if t is not None}

    stage1_cost, sk_mapping = run_stage(sk1, sk2)
    block_mapping = {src: dst for src, dst in sk_mapping.items()
                     if src in v1.blocks}

    # Stage 2: instructions conditioned on the block mapping.
    affil = Relation.AFFIL_INSTR_BLOCK.value
    stage2_cost = 0.0
    instr_mapping: dict[int, int] = {}
    mapped_blocks2 = set(block_mapping.values())

    for b1 in sorted(v1.per_block):
        sub1 = v1.per_block[b1]
        b2 = block_mapping.get(b1)
        if b2 is None:
            for n in sub1.nodes:
                stage2_cost += costs.n_del(n.kind) + costs.e_del(affil)
            continue
        cost, mapping = run_stage(sub1, v2.per_block.get(b2, _NO_INSTRS),
                                  del_extra=costs.e_del(affil),
                                  ins_extra=costs.e_ins(affil))
        stage2_cost += cost
        instr_mapping.update(mapping)

    for b2 in sorted(v2.per_block):
        if b2 not in mapped_blocks2:
            for n in v2.per_block[b2].nodes:
                stage2_cost += costs.n_ins(n.kind) + costs.e_ins(affil)

    # Cross-block data edges under the composed mapping.
    paired2 = v2.cross
    matched2: set[tuple[int, int, str]] = set()
    for (src, dst, rel) in v1.cross:
        ms, md = instr_mapping.get(src), instr_mapping.get(dst)
        if ms is not None and md is not None and (ms, md, rel) in paired2 \
                and (ms, md, rel) not in matched2:
            matched2.add((ms, md, rel))
        else:
            stage2_cost += costs.e_del(rel)
    for (src, dst, rel) in paired2:
        if (src, dst, rel) not in matched2:
            stage2_cost += costs.e_ins(rel)

    total = costs.w1 * stage1_cost + costs.w2 * stage2_cost
    denom = (costs.w1 * (_delete_all_cost(sk1, costs) + _insert_all_cost(sk2, costs))
             + costs.w2 * (_stage2_denom(v1, costs, True)
                           + _stage2_denom(v2, costs, False)))
    normalized = 0.0 if denom == 0 else min(1.0, total / denom)
    return HgedResult(stage1_cost, stage2_cost, total, normalized,
                      block_mapping, exact_mode)


def _stage2_denom(view: _StageView, costs: EditCostModel,
                  deleting: bool) -> float:
    affil = Relation.AFFIL_INSTR_BLOCK.value
    c = 0.0
    for sub in view.per_block.values():
        for n in sub.nodes:
            if deleting:
                c += costs.n_del(n.kind) + costs.e_del(affil)
            else:
                c += costs.n_ins(n.kind) + costs.e_ins(affil)
    for e in view.data:
        c += costs.e_del(e.relation.value) if deleting else costs.e_ins(e.relation.value)
    return c
