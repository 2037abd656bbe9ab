"""Heterogeneous graph construction, serialization, and invariants."""
import numpy as np

from passforge.corpus import corpus_gen
from passforge.graphs import (
    NodeKind, Relation, _block_attr, build_het_graph, homogenize, to_dot,
    to_json,
)
from passforge.ir import natural_loops, parse_module
from passforge.passes import (
    Transitions, apply_pass, apply_pragma_passes, general_passes,
)


def _counts(g):
    nodes = {k: 0 for k in NodeKind}
    for n in g.nodes:
        nodes[n.kind] += 1
    edges = {r: 0 for r in Relation}
    for e in g.edges:
        edges[e.relation] += 1
    return nodes, edges


def test_single_block_three_instructions():
    # Two adds (second uses first) and a ret using the second: 5 nodes,
    # 2 data-flow edges, no control flow, 3 + 1 affiliation edges.
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 2
  ret i32 %y
}
""")
    g = build_het_graph(m)
    nodes, edges = _counts(g)
    assert nodes[NodeKind.INSTR] == 3
    assert nodes[NodeKind.BLOCK] == 1
    assert nodes[NodeKind.FUNC] == 1
    assert edges[Relation.DATA_FLOW] == 2
    assert edges[Relation.CONTROL_FLOW] == 0
    assert edges[Relation.AFFIL_INSTR_BLOCK] == 3
    assert edges[Relation.AFFIL_BLOCK_FUNC] == 1


def test_diamond_has_four_control_edges():
    m = parse_module("""
top func @f(%c: i1, %a: i32) -> i32 {
block entry:
  condbr %c, then, els
block then:
  %x = add i32 %a, 1
  br join
block els:
  %y = add i32 %a, 2
  br join
block join:
  %r = phi i32 [%x, then], [%y, els]
  ret i32 %r
}
""")
    _nodes, edges = _counts(build_het_graph(m))
    assert edges[Relation.CONTROL_FLOW] == 4


def test_empty_body_function():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  ret i32 %a
}
""")
    g = build_het_graph(m)
    nodes, edges = _counts(g)
    assert g.num_nodes == 3
    assert edges[Relation.AFFIL_INSTR_BLOCK] == 1
    assert edges[Relation.AFFIL_BLOCK_FUNC] == 1
    assert edges[Relation.DATA_FLOW] == 0


def test_cardinality_formulas(small_corpus):
    for _name, m in small_corpus:
        g = build_het_graph(m)
        fn = m.top
        n_instr = sum(len(b.all_instructions()) for b in fn.blocks)
        n_succ = sum(len(b.successors()) for b in fn.blocks)
        nodes, edges = _counts(g)
        assert nodes[NodeKind.INSTR] == n_instr
        assert edges[Relation.AFFIL_INSTR_BLOCK] == n_instr
        assert edges[Relation.CONTROL_FLOW] == n_succ
        assert nodes[NodeKind.BLOCK] == len(fn.blocks)
        # Exactly one affiliation per block node, no data self-loops.
        assert edges[Relation.AFFIL_BLOCK_FUNC] == len(fn.blocks)
        for e in g.edges:
            if e.relation is Relation.DATA_FLOW:
                assert e.src != e.dst


def test_determinism_and_whitespace_invariance(dot_module):
    from passforge.ir import print_module
    g1 = build_het_graph(dot_module)
    noisy = print_module(dot_module).replace("\n", "\n\n").replace("  ", "     ")
    g2 = build_het_graph(parse_module(noisy))
    assert to_json(g1) == to_json(g2)


def test_block_relabeling_yields_identical_structure(dot_module):
    from passforge.ir import print_module
    text = print_module(dot_module)
    renamed = (text.replace("hd", "kopf").replace("body", "rumpf")
               .replace("done", "fertig"))
    g1 = build_het_graph(dot_module)
    g2 = build_het_graph(parse_module(renamed))
    assert g1 == g2


def test_dot_output_styles_loops(case1):
    g = build_het_graph(case1)
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert "fillcolor=\"yellow\"" in dot  # loop blocks highlighted


def test_homogenize_idempotent_and_count_preserving(dot_module):
    g = build_het_graph(dot_module)
    h1 = homogenize(g)
    h2 = homogenize(h1)
    assert len(h1.edges) == len(g.edges)
    assert {e.relation for e in h1.edges} == {Relation.DATA_FLOW}
    assert to_json(h1) == to_json(h2)
    assert [n.attr for n in h1.nodes] == [n.attr for n in g.nodes]


def test_block_attr_depth_bucket(case1):
    g = build_het_graph(case1)
    # inner loop blocks sit at depth 2 -> one-hot bucket index 2
    blocks = [n for n in g.nodes if n.kind is NodeKind.BLOCK]
    depth_buckets = {tuple(b.attr) for b in blocks}
    assert (0.0, 0.0, 1.0, 0.0) in depth_buckets
    assert (0.0, 1.0, 0.0, 0.0) in depth_buckets
    assert (1.0, 0.0, 0.0, 0.0) in depth_buckets


def _natural_depth_attrs(fn):
    """Each block's attribute from its innermost natural loop's depth, as
    the graph derived it before it read the blocks' loop annotations."""
    forest = natural_loops(fn)
    return [_block_attr(0 if forest.innermost[b.label] is None
                        else forest.innermost[b.label].depth)
            for b in fn.blocks]


def test_block_attrs_match_the_natural_loop_depth():
    """Over two corpus seeds, raw and pragma-expanded, and after each step
    of random general-pass sequences, every block node carries the depth
    bucket of its innermost natural loop."""
    rng = np.random.default_rng(0)
    general = general_passes()
    checked = 0
    for seed in (0, 1):
        for _name, text in corpus_gen(12, seed):
            raw = parse_module(text)
            for start in (raw, apply_pragma_passes(raw)):
                table = Transitions()
                for _ in range(3):
                    m = start
                    for i in rng.integers(len(general), size=8):
                        m = apply_pass(m, general[i], table).module
                        for fn in m.functions:
                            g = build_het_graph(m, fn.name)
                            attrs = [n.attr for n in g.nodes
                                     if n.kind is NodeKind.BLOCK]
                            assert attrs == _natural_depth_attrs(fn)
                            checked += 1
    assert checked >= 24 * 2 * 3 * 8
