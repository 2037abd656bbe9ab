"""Two-stage heterogeneous graph edit distance.

Stage 1 matches control skeletons (block and function nodes, control-flow and
block-function affiliation edges) and produces a block mapping; stage 2 prices
the instruction level conditioned on that mapping: instructions may substitute
only into the block their block was mapped to, instructions of unmapped blocks
pay full delete or insert (plus their affiliation edge), and data-flow edges
crossing block pairs are priced under the composed instruction mapping.

Substitutions never cross node kinds, all costs are symmetric by default, and
the normalized distance divides by the delete-everything-plus-insert-
everything path so labels land in [0, 1].  ``hged`` searches the graph of the
smaller key first (``_StageView.key``), under reversed costs when it was
given second, so ``hged(a, b, costs)`` and ``hged(b, a, costs.reversed())``
agree, and under symmetric costs a result does not depend on argument order.

Each stage pair is one search over edit paths (``ged_beam``).  A width
returns an upper bound; ``width=None`` keeps every child, so the search is
exhaustive and exact, and it refuses a pair of more than
``EXACT_PATH_LIMIT`` complete paths.  Exact mode is exact per stage: its
total is the cheapest stage 2 under the block mapping stage 1 returns, not
the two-stage optimum (``corpus_gen(12, 0)``'s ``nested2_03`` against
``two_func_08`` totals 74, and 61 under another tied mapping).  Level i
maps G1's node i to an unused G2 node of its kind or deletes it, in a fixed
candidate order.  A substitution also reconciles the two nodes' self-loops,
and a deletion deletes them.  A search state carries what its bound
needs, besides its cost and mapping: G2's unused nodes counted per label
and per kind, its unused-to-unused edges counted per relation, and the
label term of the bound.  A child updates these from per-node label ids
and incident-edge lists.  Each search tabulates what all children at a level
share: G1's label, kind and relation counts over nodes i.., node i's deletion
cost, and each adjacency's one-sided edge cost (``_edge_pair_cost`` against no
edges) on both sides.  A substitution prices only the earlier nodes adjacent
to the pair, in ascending order: an equal edge multiset adds nothing, a
one-sided mismatch adds its tabulated value, and only a two-sided one calls
``_edge_pair_cost``.  The bound's edge surplus and deficit are counted once
per parent and moved by one per G2 edge a child uses up.  On the last level,
a parent lists the terms of inserting G2's rest once (``insertions``): its
unused nodes, then each edge with an unused end, tagged with the one node a
child could use up to drop it.  Each float sum keeps the operands and order
of the plain definition, so every cost keeps its bits:

* a tabulated value comes from the same function on the same inputs;
* a skipped term adds +0.0 to a sum that starts at +0.0 or at
  ``node_sub_mismatch``, and the path cost g is never -0.0 (a sum is -0.0
  only when both operands are), so ``g + cost`` has the same bits;
* a child's insertion sum adds its parent's list less the terms tagged with
  the node it uses, left to right from +0.0: the terms, and the order, of
  summing over G2's nodes and then its edges;
* the bound terms are ints.

``ged_beam`` keeps the k children of lowest f of each level, k = ``width``
and 1 on the last, the earliest generated on ties, and prices a child only
while it can still make that cut (bounded top-k selection over the beam of
Neuhaus, Riesen and Bunke, SSPR 2006).  The cutoff is the k-th smallest f
among the level's children generated so far; a child is dropped once f, or a
floor under it, reaches it.  A substitution's floor leaves out its edge
costs, and on the last level every floor leaves out the insertion of G2's
rest.  Those terms are finite and non-negative and float addition is
monotone, so a floor never exceeds f; a dropped child has k earlier children
at or below its f, which the stable sort puts first.  A parent emits no
child at all when its deletion child's f and the floor under each of its
substitutions, g plus the least label term and edge surplus one can have
(g alone on the last level), already reach the cutoff, which only falls as
the level goes on.  So the beam keeps the children, order and bits the
unpruned sort keeps.  The cutoff needs costs that
``EditCostModel.bad_costs`` accepts; exhaustion prices every child.

``ged_beam`` answers a pair of stage graphs that are equal up to node ids
(``StageGraph.key``) at once: cost 0 and the positional identity, which is
exactly what the search returns, at any width, when no cost is negative or
non-finite and every deletion costs at least 1 (``_beam_keeps_identity``;
the default costs qualify, ``EditCostModel.from_dict`` rejects negative
ones).

``hged(..., memo=dict)`` caches stage results by both stage keys, the
width, the affiliation extras and the cost model, with the mapping
stored by position; a search result is a function of exactly these, so a hit
returns what a fresh search would.  The memo belongs to its caller:
``dataset_gen`` makes one per call, whose pairs repeat many block pairs, and
a call given none makes its own, which it drops on return.
The memo also holds each graph's ``_StageView`` (skeleton, per-block
instruction graphs with their cached keys, data-flow and cross-block edges),
keyed by the graph's id, and what deleting or inserting the whole graph
costs, its share of the normalizing denominator, per side and cost model.
Per cost model, it holds each stage graph's neighbour table (``_neighbours``)
on each side it was searched from: the adjacent positions with their edges'
relations and one-sided costs, and each node's self-loops, which a search
reads and does not change; so a stage graph in many pairs builds its table
once; they also hold ``bad_costs``' verdict on the model.  ``ged_beam``
given no ``tables`` builds them for its one search.
The views hold the graphs, and the tables their stage graphs, so no id is
reused, and no graph may be mutated, while the memo lives.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .graphs import EdgeRecord, HetGraph, NodeKind, Relation

DEFAULT_BEAM_WIDTH = 32
#: Complete edit paths an exhaustive search may enumerate (``_path_count``).
#: Time and memory grow about linearly in it: 130,922 paths (one kind, 7+7
#: nodes, a ring of edges each) take ~1.9 s and ~115 MB peak RSS under
#: CPython 3.11 on one core of a 2-vCPU x86 host.
EXACT_PATH_LIMIT = 100_000


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

    def reversed(self) -> "EditCostModel":
        """The costs of the reverse edit path: insertions and deletions
        trade places."""
        return replace(
            self, node_insert=self.node_delete, node_delete=self.node_insert,
            edge_insert=self.edge_delete, edge_delete=self.edge_insert)

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


class StageNode(NamedTuple):
    nid: int
    kind: str
    label: tuple


class StageEdge(NamedTuple):
    src: int
    dst: int
    rel: str


@dataclass
class StageGraph:
    nodes: list[StageNode]
    edges: list[StageEdge]

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
    exact: bool   # per stage, not the two-stage optimum (see ``hged``)


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


def _neighbours(g: StageGraph, costs: EditCostModel, deleting: bool,
                entries: dict) -> tuple[list[dict[int, tuple]], list[tuple]]:
    """For each node position, the other node positions adjacent to it,
    with the sorted relations of the edges (from it, to it) and what each
    costs against no edges: deleted on G1's side (``deleting``), inserted
    on G2's; and the sorted relations of each node's self-loops.  G1's side
    keeps only the earlier positions, in ascending order, as a substitution
    prices its edges to the nodes decided before it.  ``entries`` holds one
    copy of each distinct entry, shared across graphs."""
    pos = {n.nid: i for i, n in enumerate(g.nodes)}
    between: dict[tuple[int, int], list[str]] = {}
    for e in g.edges:
        between.setdefault((pos[e.src], pos[e.dst]), []).append(e.rel)
    near: list[dict[int, tuple]] = [{} for _ in g.nodes]
    loops: list[tuple] = [()] * len(g.nodes)
    for (i, j), rels in between.items():
        rels = tuple(sorted(rels))
        if i == j:
            loops[i] = rels
        else:
            near[i][j] = (rels, near[i].get(j, _NO_EDGES)[1])
            near[j][i] = (near[j].get(i, _NO_EDGES)[0], rels)
    if deleting:
        near = [{j: adj for j, adj in sorted(adjacent.items()) if j < i}
                for i, adjacent in enumerate(near)]

    def one_sided(rels: tuple) -> float:
        return _edge_pair_cost(rels, (), costs) if deleting \
            else _edge_pair_cost((), rels, costs)

    def entry(adj: tuple) -> tuple:
        if adj not in entries:
            out, into = adj
            entries[adj] = (out, into, one_sided(out), one_sided(into))
        return entries[adj]
    return [{j: entry(adj) for j, adj in adjacent.items()}
            for adjacent in near], loops


class _CostTables(dict):
    """One cost model's neighbour tables (``_neighbour_table``), kept by the
    caller across searches.  ``sound`` is whether ``bad_costs`` finds none,
    which decides pruning and the identity shortcut: worked out once."""

    def __init__(self, costs: EditCostModel):
        super().__init__()
        self.sound = not costs.bad_costs()


def _neighbour_table(g: StageGraph, costs: EditCostModel, deleting: bool,
                     tables: dict) -> tuple[list[dict], list[tuple]]:
    """``_neighbours`` of ``g`` on one side, built once per ``tables``,
    which holds one cost model's tables and, per side, their entries.  A
    table holds its graph, so the id it is keyed by is not reused while
    ``tables`` lives."""
    key = (id(g), deleting)
    if key not in tables:
        tables[key] = (g, *_neighbours(g, costs, deleting,
                                       tables.setdefault(deleting, {})))
    return tables[key][1:]


def _rest_cost(terms: list[tuple[int, float]], cand: int | None = None
               ) -> float:
    """The sum of ``_Search.insertions``' terms not tagged ``cand``, left to
    right from +0.0."""
    cost = 0.0
    for tag, c in terms:
        if tag != cand:
            cost += c
    return cost


class _Search:
    """The edit-path space ``ged_beam`` searches, level by level.

    Level i decides G1's node i.  A state is ``(g, mapping, inv, r2, t2, e2,
    lab)``: the path cost; the G2 position (or None) of each decided G1 node;
    the G1 position of each G2 node, None while unused; G2's unused nodes
    counted per label id and per kind id; its unused-to-unused edges counted
    per relation id; and the label-multiset mismatch between G1's nodes i..
    and G2's unused nodes.  States share these lists with their children and
    are never mutated."""

    def __init__(self, g1: StageGraph, g2: StageGraph, costs: EditCostModel,
                 del_extra: float, ins_extra: float, tables: dict):
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
        # order, and G2's neighbours, each with its one-sided costs; and the
        # sorted relations of each node's self-loops.
        self.near1, self.loops1 = _neighbour_table(g1, costs, True, tables)
        self.near2, self.loops2 = _neighbour_table(g2, costs, False, tables)
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
        # node i with its self-loops and its edges to earlier nodes, and
        # inserting G2's rest.
        self.del_cost = []
        for n, loops, near in zip(g1.nodes, self.loops1, self.near1):
            cost = costs.n_del(n.kind) + del_extra
            for rel in loops:
                cost += costs.e_del(rel)
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

    def insertions(self, inv: list) -> list[tuple[int, float]]:
        """The terms of inserting G2's unused nodes and every edge with an
        unused end, in summing order: each unused node, tagged with itself,
        then each such edge, tagged with its one unused end (a self-loop's
        node), or -1 when both are.  A child that uses G2's node t inserts
        the terms not tagged t (``_rest_cost``)."""
        terms = [(j, c) for j, c in enumerate(self.ins_node) if inv[j] is None]
        for src, dst, c in self.ins_edges:
            if inv[src] is None:
                terms.append(
                    (-1 if inv[dst] is None and dst != src else src, c))
            elif inv[dst] is None:
                terms.append((dst, c))
        return terms

    def candidates(self, i: int, inv: list) -> list[int | None]:
        """Unused G2 nodes of node i's kind, in identity-friendly tie order:
        the same index first, then deletion, then by index."""
        same = self.by_kind2[self.kid1[i]]
        if i < self.n2 and self.kid2[i] == self.kid1[i] and inv[i] is None:
            return [i, None] + [j for j in same if inv[j] is None and j != i]
        return [None] + [j for j in same if inv[j] is None]

    def expand(self, state: tuple, i: int, top: list | None = None,
               width: int = 0) -> list[tuple]:
        """Children of ``state`` at level i, in candidate order, as ``(f, g,
        state, cand, lab, e2)``; ``settle`` makes one a state.

        g adds the cost of deciding node i: deleting it, or substituting it
        and reconciling its self-loops and the edges to every earlier node
        adjacent to it or whose image is adjacent to its own, in ascending
        order.  f adds a bound to g: label-multiset mismatch between G1's
        nodes i.. (the node just decided included) and G2's unused nodes,
        plus relation-count mismatch over remaining-to-remaining edges, both
        updated from the parent's counts; on the last level, the exact cost
        of inserting what is left of G2.  ``lab`` is the child's own label
        term, over G1's nodes i+1..

        ``top``, when given, is a max-heap (of -f) of the ``width`` smallest
        f among the level's children emitted so far.  A child whose f, or a
        floor under it, reaches the largest of a full heap is not emitted,
        and no child is when each one's floor reaches it (see the module
        docstring); an emitted child enters the heap."""
        g, mapping, inv, r2, t2, e2, lab = state
        costs = self.costs
        last = i + 1 == self.n1
        # A NaN cutoff fails every ``>=`` test: without a heap, nothing is cut.
        cutoff = math.nan if top is None else (
            -top[0] if len(top) == width else math.inf)
        # A parent emits nothing when no child can make the cut: on the last
        # level, each child's floor is at least g.
        if last and g >= cutoff:
            return []
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
        near1, loops = self.near1[i], self.loops1[i]
        # Before it, when the deletion child's f and each substitution's
        # floor, g plus its least label term and edge surplus, reach the cut.
        if not last and (g + self.del_cost[i]) + (lab + bound) >= cutoff \
                and g + (hlab_sub + surplus) >= cutoff:
            return []
        terms = None    # the last level's, listed when a child needs them
        out = []
        for cand in self.candidates(i, inv):
            ne2 = e2
            if cand is None:
                ng = g + self.del_cost[i]
                h, nlab = lab + bound, nlab_del
            else:
                cost = 0.0 if a == self.lid2[cand] else costs.node_sub_mismatch
                if loops != self.loops2[cand]:
                    cost += _edge_pair_cost(loops, self.loops2[cand], costs)
                h = nlab = 0
                if not last:
                    b = self.lid2[cand]
                    hlab = hlab_sub + (r2[b] <= rest1[b])
                    nlab = hlab + nlab_sub + (ra <= r2[a] - (a == b))
                    # Each G2 edge it uses up moves one relation count by one.
                    more, fewer = surplus, deficit
                    for t, r in self.inc2[cand]:
                        if inv[t] is None:
                            if ne2 is e2:
                                ne2 = e2.copy()
                            if edges1[r] >= ne2[r]:
                                more += 1
                            else:
                                fewer -= 1
                            ne2[r] -= 1
                    h = hlab + (more if more > fewer else fewer)
                # Edges only add to the node cost.
                if (g + cost) + h >= cutoff:
                    continue
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
                # Inserting what is left of G2 only adds to g.
                if ng >= cutoff:
                    continue
                if terms is None:
                    terms = self.insertions(inv)
                f, nlab = ng + _rest_cost(terms, cand), 0
            else:
                f = ng + h
            if f >= cutoff:
                continue
            out.append((f, ng, state, cand, nlab, ne2))
            if top is not None:
                if len(top) < width:
                    heapq.heappush(top, -f)
                else:
                    heapq.heapreplace(top, -f)
                if len(top) == width:
                    cutoff = -top[0]
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
        return g + _rest_cost(self.insertions(inv)), {
            self.nid1[k]: self.nid2[t] for k, t in enumerate(mapping)
            if t is not None}


def _path_count(g1: StageGraph, g2: StageGraph) -> int:
    """The complete edit paths of the search: per node kind, each k of G1's
    a nodes map one-to-one onto k of G2's b, so the product over kinds of
    the sum over k of C(a, k) * C(b, k) * k!."""
    a = Counter(n.kind for n in g1.nodes)
    b = Counter(n.kind for n in g2.nodes)
    return math.prod(sum(math.comb(a[kind], k) * math.perm(b[kind], k)
                         for k in range(min(a[kind], b[kind]) + 1))
                     for kind in a.keys() & b.keys())


def _beam_keeps_identity(g: StageGraph, costs: EditCostModel, del_extra: float,
                         ins_extra: float, sound: bool) -> bool:
    """Whether beam search of ``g`` against a copy equal up to node ids
    returns the positional identity at cost 0.

    The identity child is generated first at every level, with f = 1 (the
    label bound still counts the node just decided) and f = 0 on the last.
    No child is cheaper, so the stable sort keeps it first, when no cost is
    negative or non-finite (``sound``) and every deletion costs at least 1:
    a path with a deletion has g >= 1, and one without a label bound >= 1."""
    return sound and all(
        costs.n_del(kind) + del_extra >= 1 and costs.n_ins(kind) + ins_extra >= 0
        for kind in {n.kind for n in g.nodes})


def ged_beam(g1: StageGraph, g2: StageGraph, costs: EditCostModel,
             width: int | None = DEFAULT_BEAM_WIDTH, del_extra: float = 0.0,
             ins_extra: float = 0.0, tables: _CostTables | None = None
             ) -> tuple[float, dict[int, int]]:
    """Beam search over edit paths; returns a valid (upper-bound) edit path
    cost and its mapping.  ``width=None`` keeps every child, so the result
    is the cheapest path; it raises SizeError, before searching, on a pair
    of more than ``EXACT_PATH_LIMIT`` paths.  Graphs equal up to node ids
    return 0 and the positional identity at once (see the module
    docstring).  ``tables``, which the caller keeps for ``costs`` alone,
    holds each graph's neighbour tables and the costs' verdict across
    calls; without it, the search builds its own."""
    if width is not None and width < 1:
        raise ValueError("beam width must be >= 1")
    tables = _CostTables(costs) if tables is None else tables
    if g1.key == g2.key and _beam_keeps_identity(g1, costs, del_extra,
                                                 ins_extra, tables.sound):
        return 0.0, {a.nid: b.nid for a, b in zip(g1.nodes, g2.nodes)}
    if width is None and (paths := _path_count(g1, g2)) > EXACT_PATH_LIMIT:
        raise SizeError(
            f"{len(g1.nodes)}+{len(g2.nodes)} nodes have {paths:,} edit "
            f"paths; exact mode allows {EXACT_PATH_LIMIT:,}")
    search = _Search(g1, g2, costs, del_extra, ins_extra, tables)
    prune = width is not None and tables.sound
    level = [search.start()]
    for i in range(search.n1):
        top = [] if prune else None
        # f is the full cost on the last level and the sort is stable, so
        # there the first child is the cheapest path, the only one kept.
        keep = width if i + 1 < search.n1 else 1
        children = [c for state in level
                    for c in search.expand(state, i, top, keep)]
        children.sort(key=itemgetter(0))
        level = [search.settle(c, i) for c in children[:keep]]
    return search.total(level[0])


# ---------------------------------------------------------------------------
# Stage extraction from HetGraphs
# ---------------------------------------------------------------------------

@dataclass
class _StageView:
    """What ``hged`` reads of one graph: its skeleton and block node ids,
    each block's instruction graph (by block node id, in node order), its
    data-flow edges, and those between blocks as (src, dst, relation).
    ``key`` is the whole graph up to node ids, as ``StageGraph.key``."""
    graph: HetGraph
    key: tuple
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
    pos = {n.node_id: i for i, n in enumerate(g.nodes)}
    view = _StageView(
        g, (tuple((n.kind.value, n.attr) for n in g.nodes),
            tuple((pos[e.src], pos[e.dst], e.relation.value) for e in g.edges)),
        skeleton, {n.nid for n in skeleton.nodes if n.kind == "block"},
        {b: StageGraph(ns, internal[b]) for b, ns in instrs.items()},
        data, cross)
    memo[key] = view
    return view


def hged(g1: HetGraph, g2: HetGraph, costs: EditCostModel | None = None,
         width: int | None = DEFAULT_BEAM_WIDTH,
         memo: dict | None = None) -> HgedResult:
    """Two-stage edit distance between two program graphs, each stage pair
    searched by ``ged_beam`` at ``width``.  A width yields an upper bound
    and never errors; None is exact mode, whose total is the cheapest stage
    2 under the block mapping stage 1 returns, not the two-stage optimum;
    it raises SizeError on a stage pair of more than ``EXACT_PATH_LIMIT``
    paths.  Swapping the arguments and reversing the costs inverts the
    block mapping and keeps the rest (see the module docstring).
    ``memo``, a dict the caller owns and passes to each call, caches each
    graph's stage view and stage results (see the module docstring);
    without one, the call makes its own."""
    costs = costs or EditCostModel()
    memo = {} if memo is None else memo
    v1, v2 = _stage_view(g1, memo), _stage_view(g2, memo)
    swapped = v2.key < v1.key
    if swapped:
        v1, v2, costs = v2, v1, costs.reversed()
    cost_key = repr(costs)
    tables = memo.get(("tables", cost_key))
    if tables is None:
        tables = memo[("tables", cost_key)] = _CostTables(costs)

    def run_stage(a: StageGraph, b: StageGraph, del_extra=0.0, ins_extra=0.0):
        key = (a.key, b.key, width, del_extra, ins_extra, cost_key)
        if key not in memo:
            cost, mapping = ged_beam(a, b, costs, width, del_extra, ins_extra,
                                     tables=tables)
            pos = {n.nid: j for j, n in enumerate(b.nodes)}
            memo[key] = (cost, [pos.get(mapping.get(n.nid)) for n in a.nodes])
        cost, targets = memo[key]
        return cost, {n.nid: b.nodes[t].nid for n, t in zip(a.nodes, targets)
                      if t is not None}

    stage1_cost, sk_mapping = run_stage(v1.skeleton, v2.skeleton)
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
    sk_del, instrs_del = _whole_cost(v1, costs, True, memo, cost_key)
    sk_ins, instrs_ins = _whole_cost(v2, costs, False, memo, cost_key)
    denom = (costs.w1 * (sk_del + sk_ins)
             + costs.w2 * (instrs_del + instrs_ins))
    normalized = 0.0 if denom == 0 else min(1.0, total / denom)
    if swapped:
        block_mapping = {b2: b1 for b1, b2 in block_mapping.items()}
    return HgedResult(stage1_cost, stage2_cost, total, normalized,
                      block_mapping, width is None)


def _whole_cost(view: _StageView, costs: EditCostModel, deleting: bool,
                memo: dict, cost_key: str) -> tuple[float, float]:
    """The skeleton cost and the instruction cost of deleting (or inserting)
    all of ``view``'s graph; memoized per view, side and cost model.  Each
    is a left-to-right float sum: the builtin ``sum`` compensates rounding
    from Python 3.12 on, which would make labels depend on the version."""
    key = ("whole", id(view.graph), deleting, cost_key)
    if key not in memo:
        node, edge = ((costs.n_del, costs.e_del) if deleting
                      else (costs.n_ins, costs.e_ins))
        nodes = edges = instrs = 0.0
        for n in view.skeleton.nodes:
            nodes += node(n.kind)
        for e in view.skeleton.edges:
            edges += edge(e.rel)
        affil = Relation.AFFIL_INSTR_BLOCK.value
        for sub in view.per_block.values():
            for n in sub.nodes:
                instrs += node(n.kind) + edge(affil)
        for e in view.data:
            instrs += edge(e.relation.value)
        memo[key] = (nodes + edges, instrs)
    return memo[key]
