"""Embedding model: gradients, invariances, loss, baselines, training."""
import numpy as np
import pytest

from passforge.embedder import (
    DEFAULT_RELATIONS, PretrainConfig, RgcnConfig, TrainPair, embed,
    featurize_baseline, graph_data, init_params, pair_loss, pair_loss_grad,
    pretrain, save_checkpoint, load_checkpoint, zero_grads,
)
from passforge.graphs import build_het_graph, homogenize
from passforge.ir import parse_module

SRC_A = """
top func @f(%a: i32[8], %b: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %s = phi i32 [0, entry], [%s.next, body]
  %c = icmp slt i32 %i, 8
  condbr %c, body, done
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %m = mul i32 %v, %b
  %s.next = add i32 %s, %m
  %i.next = add i32 %i, 1
  br hd
block done:
  ret i32 %s
}
"""

SRC_B = SRC_A.replace("mul i32 %v, %b", "xor i32 %v, %b")


@pytest.fixture(scope="module")
def fixtures():
    cfg = RgcnConfig(hidden_dim=6, embed_dim=4)
    g1 = build_het_graph(parse_module(SRC_A))
    g2 = build_het_graph(parse_module(SRC_B))
    gds = [graph_data(g1, cfg), graph_data(g2, cfg)]
    return cfg, g1, g2, gds


def _fd_check(params, cfg, gds, pairs, h=1e-5, tol=1e-4):
    loss, grads = pair_loss_grad(params, cfg, gds, pairs)
    worst = 0.0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        gflat = grads[key].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + h
            lp, _ = pair_loss_grad(params, cfg, gds, pairs, want_grads=False)
            flat[idx] = old - h
            lm, _ = pair_loss_grad(params, cfg, gds, pairs, want_grads=False)
            flat[idx] = old
            fd = (lp - lm) / (2 * h)
            rel = abs(gflat[idx] - fd) / (abs(gflat[idx]) + 1e-8)
            worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences(fixtures):
    cfg, _g1, _g2, gds = fixtures
    params = init_params(cfg, seed=4)
    # Labels sit near the model's predictions so the loss value (whose
    # floating-point rounding bounds the finite-difference noise) stays small
    # relative to the gradients under test.
    e0 = embed(gds[0], params, cfg)
    e1 = embed(gds[1], params, cfg)
    pred = float((1 - e0 @ e1) / 2)
    pairs = [(0, 1, pred + 0.05), (0, 1, pred - 0.05), (1, 0, pred + 0.03)]
    worst = _fd_check(params, cfg, gds, pairs)
    assert worst < 1e-4, worst


def test_gradient_zero_at_matched_labels(fixtures):
    cfg, _g1, _g2, gds = fixtures
    params = init_params(cfg, seed=1)
    e0 = embed(gds[0], params, cfg)
    e1 = embed(gds[1], params, cfg)
    label = float((1 - e0 @ e1) / 2)
    loss, grads = pair_loss_grad(params, cfg, gds, [(0, 1, label)])
    assert loss < 1e-20
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert norm < 1e-10


def test_unused_relation_gradient_exactly_zero(fixtures):
    cfg, g1, _g2, gds = fixtures
    # A graph with no call nodes never exercises some relations? All four
    # relations appear here, so test with a single-block function instead.
    tiny = build_het_graph(parse_module("""
top func @t(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  ret i32 %x
}
"""))
    cfg2 = RgcnConfig(hidden_dim=5, embed_dim=3)
    gd = graph_data(tiny, cfg2)
    assert len(gd.rel_edges["control:fwd"][0]) == 0
    params = init_params(cfg2, seed=0)
    _loss, grads = pair_loss_grad(params, cfg2, [gd], [(0, 0, 0.3)])
    for k in range(cfg2.layers):
        assert np.all(grads[f"conv{k}/control:fwd"] == 0.0)
        assert np.all(grads[f"conv{k}/control:rev"] == 0.0)


def test_all_zero_params_give_constant_embedding(fixtures):
    cfg, _g1, _g2, gds = fixtures
    params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
    e0 = embed(gds[0], params, cfg)
    e1 = embed(gds[1], params, cfg)
    assert np.array_equal(e0, e1)
    # zero-handled: either exactly zero or unit norm
    n = np.linalg.norm(e0)
    assert n == 0.0 or abs(n - 1.0) < 1e-12


def test_embedding_is_normalized(fixtures):
    cfg, _g1, _g2, gds = fixtures
    params = init_params(cfg, seed=7)
    for gd in gds:
        assert abs(np.linalg.norm(embed(gd, params, cfg)) - 1.0) < 1e-12


def test_node_permutation_invariance(fixtures):
    # Renaming values/labels leaves the structural node order unchanged, so
    # the embedding must be bitwise equal.
    cfg, g1, _g2, gds = fixtures
    renamed = parse_module(SRC_A.replace("%i", "%zz").replace("%s", "%qq")
                           .replace("body", "blk").replace("hd", "top_of"))
    g_renamed = build_het_graph(renamed)
    params = init_params(cfg, seed=3)
    a = embed(graph_data(g1, cfg), params, cfg)
    b = embed(graph_data(g_renamed, cfg), params, cfg)
    assert np.array_equal(a, b)


def test_relation_sensitivity(fixtures):
    cfg, g1, _g2, _gds = fixtures
    params = init_params(cfg, seed=5)
    base = embed(graph_data(g1, cfg), params, cfg)
    from passforge.graphs import EdgeRecord, HetGraph, Relation
    flipped_edges = []
    flipped_one = False
    for e in g1.edges:
        if not flipped_one and e.relation is Relation.DATA_FLOW:
            flipped_edges.append(EdgeRecord(e.src, e.dst, Relation.CONTROL_FLOW))
            flipped_one = True
        else:
            flipped_edges.append(e)
    g_flip = HetGraph(list(g1.nodes), flipped_edges, g1.function)
    other = embed(graph_data(g_flip, cfg), params, cfg)
    assert not np.array_equal(base, other)


def test_loss_matches_independent_formula(fixtures):
    cfg, _g1, _g2, gds = fixtures
    params = init_params(cfg, seed=2)
    pairs = [(0, 1, 0.25), (1, 0, 0.7), (0, 0, 0.0)]
    loss = pair_loss(params, cfg, gds, pairs)
    # independent evaluation
    es = [embed(gd, params, cfg) for gd in gds]
    expected = 0.0
    for i, j, y in pairs:
        cos = float(np.dot(es[i], es[j]))
        expected += ((1 - cos) / 2 - y) ** 2
    expected /= len(pairs)
    assert abs(loss - expected) < 1e-12


def test_loss_trivial_endpoints():
    # identical embeddings with label 0 and antipodal with label 1 are exact
    e = np.array([1.0, 0.0])
    assert ((1 - e @ e) / 2 - 0.0) ** 2 == 0.0
    assert ((1 - e @ (-e)) / 2 - 1.0) ** 2 == 0.0


def test_featurize_baselines(fixtures):
    _cfg, g1, _g2, _gds = fixtures
    z = featurize_baseline(g1, "all_zero", 8)
    assert np.array_equal(z, np.zeros(8))
    m = parse_module("""
top func @h(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 2
  %z = add i32 %y, 3
  ret i32 %z
}
""")
    h = featurize_baseline(build_het_graph(m), "opcode_histogram", 12)
    from passforge.ir import InstrClass
    assert h[InstrClass.BINARY.value] == pytest.approx(0.75)
    assert h[InstrClass.TERMINATOR.value] == pytest.approx(0.25)
    assert h[9:].sum() == 0.0


def test_histogram_invariant_to_block_reordering():
    src = """
top func @f(%c: i1, %a: i32) -> i32 {
block entry:
  condbr %c, one, two
block one:
  %x = add i32 %a, 1
  br out
block two:
  %y = mul i32 %a, 3
  br out
block out:
  %r = phi i32 [%x, one], [%y, two]
  ret i32 %r
}
"""
    reordered = src.replace(
        "block one:\n  %x = add i32 %a, 1\n  br out\nblock two:\n  %y = mul i32 %a, 3\n  br out",
        "block two:\n  %y = mul i32 %a, 3\n  br out\nblock one:\n  %x = add i32 %a, 1\n  br out")
    h1 = featurize_baseline(build_het_graph(parse_module(src)),
                            "opcode_histogram", 16)
    h2 = featurize_baseline(build_het_graph(parse_module(reordered)),
                            "opcode_histogram", 16)
    assert np.array_equal(h1, h2)


def test_pretrain_loss_decreases_and_is_deterministic(fixtures):
    cfg, g1, g2, gds = fixtures
    variants = [g1, g2, homogenize(g1)]
    pairs = [TrainPair(0, 1, 0.4), TrainPair(0, 2, 0.6), TrainPair(1, 2, 0.5),
             TrainPair(0, 1, 0.4, "val")]
    tcfg = PretrainConfig(seed=0, max_epochs=12, patience=12, batch_size=2)
    params1, log1 = pretrain(variants, pairs, cfg, tcfg)
    params2, log2 = pretrain(variants, pairs, cfg, tcfg)
    assert log1[-1].train_loss < log1[0].train_loss
    for k in params1:
        assert np.array_equal(params1[k], params2[k])
    assert [l.train_loss for l in log1] == [l.train_loss for l in log2]


def test_checkpoint_roundtrip_bitwise(tmp_path, fixtures):
    cfg, _g1, _g2, _gds = fixtures
    params = init_params(cfg, seed=9)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(str(p1), params, cfg.to_dict(), seed=9)
    save_checkpoint(str(p2), params, cfg.to_dict(), seed=9)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, cfg_doc, _doc = load_checkpoint(str(p1))
    assert RgcnConfig.from_dict(cfg_doc).hidden_dim == cfg.hidden_dim
    for k in params:
        assert np.array_equal(loaded[k], params[k])
