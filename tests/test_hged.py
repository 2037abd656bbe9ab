"""Edit distance: exact oracle agreement, metric properties, beam soundness."""
import gc
import hashlib
import itertools
import math
from operator import itemgetter

import numpy as np
import pytest

from passforge import hged as hged_module
from passforge.corpus import corpus_gen
from passforge.dataset import dataset_gen
from passforge.graphs import EdgeRecord, HetGraph, NodeRecord, build_het_graph
from passforge.hged import (
    EXACT_PATH_LIMIT, EditCostModel, SizeError, StageEdge, StageGraph,
    StageNode, ged_beam, hged,
)
from passforge.ir import parse_module


def _cheapest_edge_edit(rels1, rels2, costs: EditCostModel) -> float:
    """Turning one multiset of parallel edges into another, at the cheapest
    of every matching between them."""
    best = math.inf
    for k in range(min(len(rels1), len(rels2)) + 1):
        for sub1 in itertools.combinations(range(len(rels1)), k):
            for sub2 in itertools.permutations(range(len(rels2)), k):
                cost = 0.0
                for a, b in zip(sub1, sub2):
                    if rels1[a] != rels2[b]:
                        cost += costs.edge_sub_mismatch
                for a, rel in enumerate(rels1):
                    if a not in sub1:
                        cost += costs.e_del(rel)
                for b, rel in enumerate(rels2):
                    if b not in sub2:
                        cost += costs.e_ins(rel)
                best = min(best, cost)
    return best


def _parallel_edges(g: StageGraph) -> dict[tuple[int, int], list[str]]:
    """The relations of the edges from each node to each other."""
    between: dict[tuple[int, int], list[str]] = {}
    for e in g.edges:
        between.setdefault((e.src, e.dst), []).append(e.rel)
    return between


def brute_force_ged(g1: StageGraph, g2: StageGraph,
                    costs: EditCostModel) -> float:
    """Enumerate every injective partial mapping between nodes of one kind,
    and edit the parallel edges of each node pair at their cheapest; the
    independent oracle."""
    best = math.inf
    for k in range(min(len(g1.nodes), len(g2.nodes)) + 1):
        for sub1 in itertools.combinations(g1.nodes, k):
            for sub2 in itertools.permutations(g2.nodes, k):
                if any(a.kind != b.kind for a, b in zip(sub1, sub2)):
                    continue
                cost = 0.0
                for a, b in zip(sub1, sub2):
                    if a.label != b.label:
                        cost += costs.node_sub_mismatch
                for n in g1.nodes:
                    if n not in sub1:
                        cost += costs.n_del(n.kind)
                for n in g2.nodes:
                    if n not in sub2:
                        cost += costs.n_ins(n.kind)
                image = {a.nid: b.nid for a, b in zip(sub1, sub2)}
                rest2 = _parallel_edges(g2)
                for (src, dst), rels in _parallel_edges(g1).items():
                    cost += _cheapest_edge_edit(
                        rels, rest2.pop((image.get(src), image.get(dst)), []),
                        costs)
                for rels in rest2.values():
                    cost += _cheapest_edge_edit([], rels, costs)
                best = min(best, cost)
    return best


def _random_stage_graph(rng, n, kinds=("block",), labels=((1.0,), (2.0,))):
    nodes = [StageNode(i, str(rng.choice(kinds)),
                       tuple(labels[int(rng.integers(0, len(labels)))]))
             for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                edges.append(StageEdge(i, j, "control"))
    return StageGraph(nodes, edges)


def _with_self_loops(rng, g: StageGraph) -> StageGraph:
    """``g`` with self-loops of either relation on some nodes, drawn after
    ``g`` so that its own draws stay as they are."""
    loops = [StageEdge(n.nid, n.nid, rel) for n in g.nodes
             for rel in ("data", "control") if rng.random() < 0.2]
    return StageGraph(g.nodes, g.edges + loops)


def test_exact_matches_brute_force_on_random_pairs(rng):
    """Exhaustion is exact at unit costs, on graphs of two kinds with
    parallel edges of mixed relations and self-loops."""
    costs = EditCostModel()
    for trial in range(300):
        g1, g2 = (_with_self_loops(rng, _random_mixed_graph(
            rng, int(rng.integers(1, 5)))) for _ in range(2))
        assert ged_beam(g1, g2, costs, None)[0] == \
            brute_force_ged(g1, g2, costs), f"trial {trial}"


def test_exact_empty_cases():
    costs = EditCostModel()
    empty = StageGraph([], [])
    assert ged_beam(empty, empty, costs, None)[0] == 0.0
    g = _random_stage_graph(np.random.default_rng(1), 3)
    insert_all = len(g.nodes) + len(g.edges)
    assert ged_beam(empty, g, costs, None)[0] == insert_all


def test_exact_size_limit():
    """A pair equal up to node ids is answered at once, at any size; any
    other pair of too many paths is refused."""
    g = _random_stage_graph(np.random.default_rng(2), 20)
    part = StageGraph(g.nodes[:19], [e for e in g.edges
                                     if max(e.src, e.dst) < 19])
    assert ged_beam(g, g, EditCostModel(), None)[0] == 0.0
    with pytest.raises(SizeError):
        ged_beam(g, part, EditCostModel(), None)


def test_path_count_is_the_number_of_complete_paths(monkeypatch, rng):
    """The last level of an exhaustive search holds one child per complete
    edit path, as many as ``_path_count`` counts."""
    last_level = []
    expand = hged_module._Search.expand

    def counting(self, state, i, top=None, width=0):
        out = expand(self, state, i, top, width)
        if i == self.n1 - 1:
            last_level.extend(out)
        return out
    monkeypatch.setattr(hged_module._Search, "expand", counting)
    monkeypatch.setattr(hged_module, "_beam_keeps_identity",
                        lambda *_args: False)
    for _ in range(40):
        g1, g2 = (_random_mixed_graph(rng, int(rng.integers(1, 6)))
                  for _ in range(2))
        last_level.clear()
        ged_beam(g1, g2, EditCostModel(), None)
        assert len(last_level) == hged_module._path_count(g1, g2)


def test_exact_refuses_before_building_a_search(monkeypatch):
    """One kind, 7+7 nodes: 130,922 paths, over the limit, refused before a
    search is built; 7+6 nodes have 37,633 paths and are searched."""
    g7 = StageGraph([StageNode(k, "block", (float(k),)) for k in range(7)],
                    [])
    reversed7, g6 = StageGraph(g7.nodes[::-1], []), StageGraph(g7.nodes[:6], [])
    assert hged_module._path_count(g7, g6) <= EXACT_PATH_LIMIT < \
        hged_module._path_count(g7, reversed7)

    def no_search(*_args):
        raise AssertionError("search built")
    monkeypatch.setattr(hged_module, "_Search", no_search)
    with pytest.raises(SizeError, match="130,922 edit paths"):
        ged_beam(g7, reversed7, EditCostModel(), None)
    with pytest.raises(AssertionError, match="search built"):
        ged_beam(g7, g6, EditCostModel(), None)


def test_beam_upper_bounds_exact(rng):
    costs = EditCostModel()
    for _ in range(10):
        g1 = _random_stage_graph(rng, int(rng.integers(2, 5)))
        g2 = _random_stage_graph(rng, int(rng.integers(2, 5)))
        exact, _ = ged_beam(g1, g2, costs, None)
        for width in (1, 4, 16):
            beam, _ = ged_beam(g1, g2, costs, width=width)
            assert beam >= exact - 1e-9


def test_beam_identity_any_width(dot_module):
    g = build_het_graph(dot_module)
    for width in (1, 2, 64):
        r = hged(g, g, width=width)
        assert r.total == 0.0
        assert r.normalized == 0.0


def test_beam_wide_equals_exact_on_small_stage_graphs(rng):
    costs = EditCostModel()
    for _ in range(15):
        g1 = _random_stage_graph(rng, int(rng.integers(1, 5)))
        g2 = _random_stage_graph(rng, int(rng.integers(1, 5)))
        if len(g1.nodes) + len(g2.nodes) > 8:
            continue
        exact, _ = ged_beam(g1, g2, costs, None)
        beam, _ = ged_beam(g1, g2, costs, width=16)
        assert beam == pytest.approx(exact)


def _corpus_graphs() -> list:
    designs = corpus_gen(8, seed=3)[2:]
    return [build_het_graph(parse_module(t)) for _n, t in designs]


def test_hged_identity_and_symmetry_on_corpus():
    graphs = _corpus_graphs()
    for g in graphs:
        assert hged(g, g, width=None).total == 0.0
    # Each pair is of two different designs, in either orientation.
    for a, b in itertools.combinations(graphs[:4], 2):
        for x, y in ((a, b), (b, a)):
            r = hged(x, y, width=16)
            assert 0.0 < r.normalized <= 1.0


def test_beam_hged_is_symmetric_on_corpus():
    """Under the default costs, and under asymmetric costs reversed with the
    arguments."""
    graphs = _corpus_graphs()
    for costs in (EditCostModel(), FRACTIONAL_COSTS):
        for a, b in itertools.combinations(graphs[:4], 2):
            ab, ba = hged(a, b, costs, 16), hged(b, a, costs.reversed(), 16)
            assert (ab.total, ab.normalized) == (ba.total, ba.normalized)
            assert ab.block_mapping == \
                {v: k for k, v in ba.block_mapping.items()}


def test_hged_single_instruction_class_difference():
    src = """
top func @f(%a: i32, %b: i32) -> i32 {
block entry:
  %s = add i32 %a, %b
  ret i32 %s
}
"""
    g1 = build_het_graph(parse_module(src))
    g2 = build_het_graph(parse_module(src.replace("add i32 %a", "and i32 %a")))
    r = hged(g1, g2, width=None)
    assert r.stage1_cost == 0.0
    assert r.stage2_cost == 1.0
    assert r.total == 1.0


def _chain(n: int) -> HetGraph:
    """A function of ``n`` blocks, each branching to the next."""
    blocks = "\n".join(f"block b{i}:\n  br b{i + 1}" for i in range(n - 1))
    return build_het_graph(parse_module(
        f"top func @f(%a: i32) -> i32 {{\n{blocks}\n"
        f"block b{n - 1}:\n  ret i32 %a\n}}\n"))


def test_hged_exact_mode_skeleton_limit():
    g, h = _chain(14), _chain(13)
    with pytest.raises(SizeError):
        hged(g, h, width=None)
    assert hged(g, g, width=None).total == 0.0
    assert hged(g, h).total > 0.0


def test_triangle_inequality_on_skeletons(rng):
    costs = EditCostModel()
    graphs = [_random_stage_graph(rng, int(rng.integers(1, 4)))
              for _ in range(9)]
    for a, b, c in itertools.combinations(range(9), 3):
        ab = ged_beam(graphs[a], graphs[b], costs, None)[0]
        bc = ged_beam(graphs[b], graphs[c], costs, None)[0]
        ac = ged_beam(graphs[a], graphs[c], costs, None)[0]
        assert ac <= ab + bc + 1e-9


def test_normalized_in_unit_interval():
    designs = corpus_gen(10, seed=9)[2:]
    graphs = [build_het_graph(parse_module(t)) for _n, t in designs]
    rng = np.random.default_rng(0)
    for _ in range(12):
        i, j = rng.integers(0, len(graphs), size=2)
        r = hged(graphs[int(i)], graphs[int(j)], width=8)
        assert 0.0 <= r.normalized <= 1.0


def test_block_mapping_comes_from_stage1(dot_module):
    g = build_het_graph(dot_module)
    r = hged(g, g, width=None)
    # identity mapping over the block nodes
    assert all(k == v for k, v in r.block_mapping.items())
    assert len(r.block_mapping) == len(dot_module.top.blocks)


#: ``float.hex`` of every label of a small ``dataset_gen`` call, pinned when
#: self-loops were first priced and each pair first searched in key order.
#: The incremental bound, the identity short-circuit, the memo and the beam
#: cutoff keep each bit.
PINNED_LABELS = [
    "0x1.19d5b98a919d6p-1", "0x1.1fca751fca752p-2", "0x1.267bd1267bd12p-1",
    "0x1.267bd1267bd12p-3", "0x1.269349a4d2693p-1", "0x1.3000000000000p-2",
    "0x1.4000000000000p-1", "0x1.2138abf82ee6ap-2", "0x1.226357e16ece5p-1",
    "0x1.1111111111111p-3", "0x1.2372372372372p-1",
]


def test_dataset_labels_are_bit_identical_to_pinned():
    ds = dataset_gen(corpus_gen(5, 0)[2:], 3, 3, 0,
                     cross_pairs=6)
    assert [p.label.hex() for p in ds.pairs] == PINNED_LABELS


def _stage_graphs(module) -> list[StageGraph]:
    """The skeleton and every block's instruction graph of a module."""
    view = hged_module._stage_view(build_het_graph(module), {})
    return [view.skeleton, *view.per_block.values()]


def _renumbered(g: StageGraph) -> StageGraph:
    ids = {n.nid: 1000 + 7 * k for k, n in enumerate(reversed(g.nodes))}
    return StageGraph([StageNode(ids[n.nid], n.kind, n.label) for n in g.nodes],
                      [StageEdge(ids[e.src], ids[e.dst], e.rel) for e in g.edges])


#: Distinct non-dyadic costs: under unit costs every path cost is a small
#: integer, so a reordered float sum would go unseen.
FRACTIONAL_COSTS = EditCostModel(
    node_insert={"instr": 0.1, "block": 0.3, "func": 0.7},
    node_delete={"instr": 0.7, "block": 0.1, "func": 0.3},
    node_sub_mismatch=0.45,
    edge_insert={"data": 0.3, "control": 0.7, "affil_ib": 0.1, "affil_bf": 0.9},
    edge_delete={"data": 0.7, "control": 0.3, "affil_ib": 0.9, "affil_bf": 0.1},
    edge_sub_mismatch=0.35, w1=0.6, w2=1.3)

#: sha256 of ``_fractional_results``, pinned before the search tabulated
#: its per-child costs, and again when exhaustion replaced best-first search
#: and ``hged`` began to search each pair in key order: every cost and
#: mapping must keep each bit.
PINNED_FRACTIONAL = "390134ff69d925d19fc2433f52f7ce50aa7a5255dae922b58bda9900b92edce6"


def _random_mixed_graph(rng, n: int) -> StageGraph:
    """Two kinds, three labels, and parallel edges of mixed relations."""
    nodes = [StageNode(i, ("block", "instr")[int(rng.integers(0, 2))],
                       (float(rng.integers(0, 3)),)) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for p in (0.3, 0.15):
                if i != j and rng.random() < p:
                    edges.append(StageEdge(
                        i, j, ("data", "control")[int(rng.integers(0, 2))]))
    return StageGraph(nodes, edges)


def _fractional_results():
    """Yields a line per result: ``ged_beam`` (widths 1 and 16, and None on
    small pairs) costs and mappings under FRACTIONAL_COSTS, then the beam
    ``hged`` costs of corpus graph pairs."""
    costs = FRACTIONAL_COSTS
    designs = corpus_gen(8, 3)[2:]
    stage = [_stage_graphs(parse_module(t)) for _n, t in designs]
    pairs = [(a[0], b[0]) for a, b in zip(stage, stage[1:])]
    blocks = [g for graphs in stage for g in graphs[1:]]
    pairs += list(zip(blocks, blocks[1:]))
    rng = np.random.default_rng(11)
    pairs += [(_random_mixed_graph(rng, int(rng.integers(1, 6))),
               _random_mixed_graph(rng, int(rng.integers(1, 6))))
              for _ in range(40)]
    for g1, g2 in pairs:
        for width in (1, 16):
            for extras in ((0.0, 0.0), (0.9, 0.1)):
                cost, mapping = ged_beam(g1, g2, costs, width, *extras)
                yield f"beam {cost.hex()} {sorted(mapping.items())}"
        if len(g1.nodes) + len(g2.nodes) <= 8:
            cost, mapping = ged_beam(g1, g2, costs, None)
            yield f"exact {cost.hex()} {sorted(mapping.items())}"
    graphs = [build_het_graph(parse_module(t)) for _n, t in designs]
    for a, b in zip(graphs, graphs[1:] + graphs[:1]):
        r = hged(a, b, costs, 8)
        yield " ".join(x.hex() for x in (r.stage1_cost, r.stage2_cost,
                                          r.total, r.normalized))


def test_fractional_costs_are_bit_identical_to_pinned():
    h = hashlib.sha256()
    for line in _fractional_results():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == PINNED_FRACTIONAL


def test_beam_returns_identity_on_renumbered_copy(monkeypatch):
    """Equal up to node ids: cost 0 and the positional identity, at once and
    also when the search runs in full, exhaustively where it may."""
    costs = EditCostModel()
    graphs = [g for _n, t in corpus_gen(8, 3)[2:]
              for g in _stage_graphs(parse_module(t))]
    expected = []
    for g in graphs:
        h = _renumbered(g)
        identity = {a.nid: b.nid for a, b in zip(g.nodes, h.nodes)}
        small = hged_module._path_count(g, h) <= EXACT_PATH_LIMIT
        expected.append((g, h, identity, (1, 16, None) if small else (1, 16)))
        for width in (1, 16, None):
            assert ged_beam(g, h, costs, width, 1.0, 1.0) == (0.0, identity)
    monkeypatch.setattr(hged_module, "_beam_keeps_identity",
                        lambda *_args: False)
    assert any(None in widths for *_graphs, widths in expected)
    for g, h, identity, widths in expected:
        for width in widths:
            assert ged_beam(g, h, costs, width, 1.0, 1.0) == (0.0, identity)


def test_identity_shortcut_needs_deletions_of_at_least_one():
    """The label bound counts whole nodes, the one just decided included, so
    a free deletion undercuts the identity: width-1 search of this graph
    against itself deletes node 0 and pays to insert it back."""
    g = StageGraph([StageNode(0, "block", (1.0,)), StageNode(1, "block", (1.0,))],
                   [])
    costs = EditCostModel(node_delete={"block": 0.0})
    assert ged_beam(g, g, costs, width=1) == (1.0, {1: 1})
    assert ged_beam(g, g, EditCostModel(), width=1) == (0.0, {0: 0, 1: 1})


def _unpruned_beam(g1: StageGraph, g2: StageGraph, costs: EditCostModel,
                   width: int, del_extra: float = 0.0, ins_extra: float = 0.0,
                   ties: list | None = None) -> tuple[float, dict[int, int]]:
    """``ged_beam`` before its cutoff, the differential reference: every
    child of a level is priced, the level is sorted stably by f and its
    first ``width`` children are kept.  ``ties`` collects the levels whose
    kept and dropped children share an f at the cut."""
    if g1.key == g2.key and hged_module._beam_keeps_identity(
            g1, costs, del_extra, ins_extra, not costs.bad_costs()):
        return 0.0, {a.nid: b.nid for a, b in zip(g1.nodes, g2.nodes)}
    search = hged_module._Search(g1, g2, costs, del_extra, ins_extra, {})
    level = [search.start()]
    for i in range(search.n1):
        children = [c for state in level for c in search.expand(state, i)]
        children.sort(key=itemgetter(0))
        if ties is not None and len(children) > width and \
                children[width - 1][0] == children[width][0]:
            ties.append(i)
        level = [search.settle(c, i) for c in children[:width]]
    return search.total(level[0])


def _random_costs(rng, low: float = 0.05) -> EditCostModel:
    """Fractional costs from [low, 2), a quarter of them zero, so that ties
    are common."""
    def cost() -> float:
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(low, 2.0))
    return EditCostModel(
        node_insert={k: cost() for k in ("instr", "block", "func")},
        node_delete={k: cost() for k in ("instr", "block", "func")},
        node_sub_mismatch=cost(),
        edge_insert={"data": cost(), "control": cost()},
        edge_delete={"data": cost(), "control": cost()},
        edge_sub_mismatch=cost())


def test_pruned_beam_equals_the_unpruned_reference(monkeypatch):
    """The cutoff keeps every cost bit and mapping, over random mixed
    graphs, random costs, three widths and both affiliation extras; and it
    does cut children.  Under costs with negative values a floor need not
    bound f, so nothing may be cut."""
    emitted = {"pruned": 0, "all": 0}
    expand = hged_module._Search.expand

    def counting(self, state, i, top=None, width=0):
        out = expand(self, state, i, top, width)
        emitted["all" if top is None else "pruned"] += len(out)
        return out
    monkeypatch.setattr(hged_module._Search, "expand", counting)
    rng = np.random.default_rng(2206)
    for trial in range(80):
        costs = _random_costs(rng, -1.0 if trial % 4 == 3 else 0.05)
        g1 = _random_mixed_graph(rng, int(rng.integers(1, 8)))
        g2 = _random_mixed_graph(rng, int(rng.integers(1, 8)))
        extras = ((0.0, 0.0), (float(rng.uniform(0.0, 1.0)),
                               float(rng.uniform(0.0, 1.0))))
        for width in (1, 2, 16):
            for extra in extras:
                cost, mapping = ged_beam(g1, g2, costs, width, *extra)
                ref_cost, ref_mapping = _unpruned_beam(g1, g2, costs, width,
                                                       *extra)
                assert (cost.hex(), mapping) == (ref_cost.hex(), ref_mapping)
    assert 0 < emitted["pruned"] < emitted["all"]


def test_ties_at_the_cutoff_keep_the_earlier_child():
    """Unit costs on a symmetric graph: children tie on f at the cut of a
    level, and the pruned beam keeps the ones generated first, as the
    stable sort does."""
    ring = [StageEdge(k, (k + 1) % 4, "control") for k in range(4)]
    g1 = StageGraph([StageNode(k, "block", (1.0,)) for k in range(4)], ring)
    g2 = StageGraph([StageNode(k, "block", (1.0,) if k else (2.0,))
                     for k in range(4)], ring)
    costs = EditCostModel()
    for width in (1, 2):
        ties: list = []
        expected = _unpruned_beam(g1, g2, costs, width, ties=ties)
        assert ties, width
        assert ged_beam(g1, g2, costs, width) == expected


def test_last_level_emits_only_children_that_can_come_first(monkeypatch):
    """The last level keeps one child, so its cutoff is the best f so far:
    over the 66 pairs of ``corpus_gen(12, 0)`` at width 32, with one memo,
    it emits 208 children, where a cutoff of ``width`` emitted 3,113."""
    emitted = [0]
    expand = hged_module._Search.expand

    def counting(self, state, i, top=None, width=0):
        out = expand(self, state, i, top, width)
        if i == self.n1 - 1:
            emitted[0] += len(out)
        return out
    monkeypatch.setattr(hged_module._Search, "expand", counting)
    graphs = [build_het_graph(parse_module(t)) for _n, t in corpus_gen(12, 0)]
    memo: dict = {}
    for g1, g2 in itertools.combinations(graphs, 2):
        hged(g1, g2, width=32, memo=memo)
    assert emitted == [208]


def _renumbered_het(g: HetGraph) -> HetGraph:
    """Node ids moved but kept in order, so blocks are visited alike."""
    return HetGraph([NodeRecord(1000 + 3 * n.node_id, n.kind, n.attr)
                     for n in g.nodes],
                    [EdgeRecord(1000 + 3 * e.src, 1000 + 3 * e.dst, e.relation)
                     for e in g.edges], g.function)


def test_memo_hit_returns_the_fresh_result(monkeypatch):
    designs = corpus_gen(6, seed=3)[2:]
    a, b = (build_het_graph(parse_module(t)) for _n, t in designs[:2])
    a2 = _renumbered_het(a)
    fresh, fresh2 = (hged(x, b, width=8) for x in (a, a2))
    memo: dict = {}
    assert hged(a, b, width=8, memo=memo) == fresh
    assert memo

    def no_search(*_args):
        raise AssertionError("a memo hit must not search")
    monkeypatch.setattr(hged_module, "ged_beam", no_search)
    assert hged(a2, b, width=8, memo=memo) == fresh2
    assert hged(a, b, width=8, memo=memo) == fresh


def test_memo_views_return_the_memoless_result():
    """Pairs that share graphs with earlier pairs of one memo, renumbered
    copies among them, answer what memo-less calls answer."""
    designs = corpus_gen(6, seed=3)[2:]
    a, b, c = (build_het_graph(parse_module(t)) for _n, t in designs[:3])
    a2 = _renumbered_het(a)
    pairs = [(a, b), (a, c), (c, a), (a2, b), (b, a2), (a2, a), (a, a)]
    for costs in (EditCostModel(), FRACTIONAL_COSTS):
        memo: dict = {}
        for x, y in pairs:
            got = hged(x, y, costs, 8, memo)
            assert got == hged(x, y, costs, 8)
        views = [v for v in memo.values()
                 if isinstance(v, hged_module._StageView)]
        assert sorted(id(v.graph) for v in views) == \
            sorted(map(id, (a, a2, b, c)))


def test_memoless_hged_caches_nothing(monkeypatch):
    designs = corpus_gen(6, seed=3)[2:]
    a, b = (build_het_graph(parse_module(t)) for _n, t in designs[:2])
    built = []
    view = hged_module._stage_view
    monkeypatch.setattr(hged_module, "_stage_view",
                        lambda g, memo=None: built.append(g) or view(g, memo))
    first = hged(a, b, width=8)
    assert hged(a, b, width=8) == first
    assert built == [a, b, a, b]
    gc.collect()
    assert not [o for o in gc.get_objects()
                if isinstance(o, hged_module._StageView)
                and (o.graph is a or o.graph is b)]


def _bits(r) -> tuple:
    return (r.stage1_cost.hex(), r.stage2_cost.hex(), r.total.hex(),
            r.normalized.hex(), r.block_mapping)


def test_one_memo_keeps_each_cost_model_to_its_own_tables():
    """A memo shared by calls under the default costs, under fractional
    costs and under one cost object mutated between calls answers what a
    fresh memo answers for each; and a pair under costs agrees with the
    swapped pair under reversed costs, in the same memo."""
    designs = corpus_gen(6, seed=3)[2:]
    a, b, c = (build_het_graph(parse_module(t)) for _n, t in designs[:3])
    pairs = [(a, b), (b, c), (c, a)]
    mutated = EditCostModel()
    memo: dict = {}
    seen = {}
    for step, costs in enumerate((EditCostModel(), FRACTIONAL_COSTS, mutated,
                                  mutated)):
        if step == 3:
            mutated.edge_insert["data"] = 0.3
            mutated.node_delete["instr"] = 0.7
        for x, y in pairs:
            got = hged(x, y, costs, 8, memo)
            assert _bits(got) == _bits(hged(x, y, costs, 8, {}))
            back = hged(y, x, costs.reversed(), 8, memo)
            assert _bits(back)[:4] == _bits(got)[:4]
            assert back.block_mapping == {
                b2: b1 for b1, b2 in got.block_mapping.items()}
            seen.setdefault(step, []).append(_bits(got))
    assert seen[2] != seen[3]
    assert len([k for k in memo if k[0] == "tables"]) >= 4


def test_label_searches_build_each_table_once(monkeypatch):
    """Over one ``dataset_gen`` call of the label benchmark's shape: one
    neighbour table per distinct stage graph, side, extra cost and cost
    model; and on the last level one listing of insertion terms per parent
    at most, made when a child first needs them, not one per child."""
    built, sides, graphs = [0], set(), []
    neighbours = hged_module._neighbours

    def building(g, costs, deleting, entries):
        built[0] += 1
        return neighbours(g, costs, deleting, entries)
    init = hged_module._Search.__init__

    def recording(self, g1, g2, costs, del_extra=0.0, ins_extra=0.0,
                  tables=None):
        graphs.extend((g1, g2))     # alive, so no id is reused
        sides.update({(id(g1), True, del_extra, repr(costs)),
                      (id(g2), False, ins_extra, repr(costs))})
        init(self, g1, g2, costs, del_extra, ins_extra, tables)
    counts = {"listed": 0, "summed": 0}
    insertions = hged_module._Search.insertions
    rest_cost = hged_module._rest_cost

    def listing(self, inv):
        counts["listed"] += 1
        return insertions(self, inv)

    def summing(terms, cand=None):
        counts["summed"] += 1
        return rest_cost(terms, cand)
    parents = []
    expand = hged_module._Search.expand

    def last_level(self, state, i, top=None, width=0):
        if i + 1 < self.n1:
            return expand(self, state, i, top, width)
        before = dict(counts)
        out = expand(self, state, i, top, width)
        parents.append((counts["listed"] - before["listed"],
                        counts["summed"] - before["summed"], len(out)))
        return out
    monkeypatch.setattr(hged_module, "_neighbours", building)
    monkeypatch.setattr(hged_module, "_rest_cost", summing)
    for name, fn in (("__init__", recording), ("insertions", listing),
                     ("expand", last_level)):
        monkeypatch.setattr(hged_module._Search, name, fn)
    dataset_gen(corpus_gen(12, 0), 6, 6, 0, intra_pair_cap=10,
                cross_pairs=40)
    assert built[0] == len(sides) < len(graphs)
    assert all(listed <= 1 for listed, _summed, _out in parents)
    assert all(listed == 1 for listed, summed, _out in parents if summed)
    assert any(listed == 0 for listed, _summed, _out in parents)
    assert sum(listed for listed, *_ in parents) \
        < sum(summed for _l, summed, _o in parents)


def test_label_searches_check_each_cost_model_once(monkeypatch):
    """Over one ``dataset_gen`` call of the label benchmark's shape, every
    search reads whether it may prune and take the identity shortcut, and
    ``bad_costs`` decides that once per cost model the searches run under."""
    checks, models, searches = [0], set(), [0]
    bad_costs, beam = EditCostModel.bad_costs, hged_module.ged_beam

    def counted(self):
        checks[0] += 1
        return bad_costs(self)

    def searching(g1, g2, costs, *args, **kwargs):
        searches[0] += 1
        models.add(repr(costs))
        return beam(g1, g2, costs, *args, **kwargs)
    monkeypatch.setattr(EditCostModel, "bad_costs", counted)
    monkeypatch.setattr(hged_module, "ged_beam", searching)
    dataset_gen(corpus_gen(12, 0), 6, 6, 0, intra_pair_cap=10,
                cross_pairs=40)
    assert checks[0] == len(models) == 1
    assert searches[0] > 100


def test_exact_finds_the_single_deletion():
    """The label bound counts the node just decided, so a best-first search
    under it returned 2 here; exhaustion does not rely on the bound."""
    a, b = StageNode(0, "block", (1.0,)), StageNode(1, "block", (2.0,))
    assert ged_beam(StageGraph([a, b], []), StageGraph([a], []),
                    EditCostModel(), None)[0] == 1.0


@pytest.mark.parametrize("search", ["exact", "beam"])
@pytest.mark.parametrize("looped_first", [True, False])
def test_a_self_loop_costs_its_edge(search, looped_first):
    node = StageNode(0, "block", (1.0,))
    graphs = [StageGraph([node], [StageEdge(0, 0, "control")]),
              StageGraph([node], [])]
    if not looped_first:
        graphs.reverse()
    width = None if search == "exact" else 1
    assert ged_beam(*graphs, EditCostModel(), width)[0] == 1.0


@pytest.mark.parametrize("doc", [
    {"node_insertt": {"instr": 2.0}},
    {"node_delete": {"instrr": 2.0}},
    {"node_delete": 2.0},
    {"w1": -1.0},
    {"edge_delete": {"data": float("nan")}},
    {"edge_sub_mismatch": float("inf")},
    {"w2": "1"},
    {"node_sub_mismatch": True},
    [1.0],
])
def test_edit_costs_reject_bad_input(doc):
    with pytest.raises(ValueError):
        EditCostModel.from_dict(doc)


def test_edit_costs_from_dict():
    m = EditCostModel.from_dict({"node_delete": {"block": 2.0}, "w2": 0.5})
    assert (m.n_del("block"), m.n_del("instr"), m.w2) == (2.0, 1.0, 0.5)
    assert EditCostModel.from_dict(EditCostModel().to_dict()) == EditCostModel()
