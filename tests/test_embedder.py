"""Embedding model: gradients, invariances, loss, baselines, training."""
import hashlib

import numpy as np
import pytest

from passforge.corpus import corpus_gen
from passforge.dataset import dataset_gen
from passforge.embedder import (
    DEFAULT_RELATIONS, PretrainConfig, RgcnConfig, TrainPair, backward, embed,
    featurize_baseline, forward, graph_data, graph_union, init_params,
    pair_loss, pair_loss_grad, pretrain, save_checkpoint, load_checkpoint,
    zero_grads,
)
from passforge.embedder import model as model_module, train as train_module
from passforge.embedder.model import build_plan
from passforge.graphs import build_het_graph, homogenize
from passforge.ir import parse_module
from passforge.passes import apply_pragma_passes

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

#: One block, so no control edges.
TINY = """
top func @t(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  ret i32 %x
}
"""


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
    cfg, g1, g2, gds = fixtures
    params = init_params(cfg, seed=4)
    # Labels sit near the model's predictions so the loss value (whose
    # floating-point rounding bounds the finite-difference noise) stays small
    # relative to the gradients under test.
    e0 = embed(g1, params, cfg)
    e1 = embed(g2, params, cfg)
    pred = float((1 - e0 @ e1) / 2)
    pairs = [(0, 1, pred + 0.05), (0, 1, pred - 0.05), (1, 0, pred + 0.03)]
    worst = _fd_check(params, cfg, gds, pairs)
    assert worst < 1e-4, worst


def test_gradients_match_finite_differences_on_a_union(fixtures):
    # Three graphs of different sizes, the middle one without control
    # edges, so every edge and member offset past it is exercised.
    cfg, _g1, g2, _gds = fixtures
    two_loops = parse_module(SRC_A.replace("""block done:
  ret i32 %s""", """block done:
  br hd2
block hd2 loop(2, depth=1, header):
  %k = phi i32 [0, done], [%k.next, body2]
  %t = phi i32 [%s, done], [%t.next, body2]
  %d = icmp slt i32 %k, 4
  condbr %d, body2, out
block body2 loop(2, depth=1):
  %t.next = mul i32 %t, 3
  %k.next = add i32 %k, 1
  br hd2
block out:
  ret i32 %t"""))
    graphs = (build_het_graph(two_loops), build_het_graph(parse_module(TINY)),
              g2)
    gds = [graph_data(g, cfg) for g in graphs]
    sizes = [gd.num_nodes for gd in gds]
    assert len(set(sizes)) == 3, sizes
    assert len(gds[1].rel_edges["control:fwd"][0]) == 0
    params = init_params(cfg, seed=6)
    es = [embed(g, params, cfg) for g in graphs]
    pairs = [(i, j, float((1 - es[i] @ es[j]) / 2) + d)
             for i, j, d in ((0, 1, 0.04), (1, 2, -0.03), (2, 0, 0.05),
                             (1, 1, 0.02))]
    worst = _fd_check(params, cfg, gds, pairs)
    assert worst < 1e-4, worst


def _corpus_graphs():
    """``corpus_gen(12, 0)``'s designs, each raw and pragma-expanded."""
    graphs = []
    for _name, text in corpus_gen(12, 0):
        m = parse_module(text)
        graphs += [build_het_graph(m), build_het_graph(apply_pragma_passes(m))]
    return graphs


def test_union_forward_matches_each_graph_alone():
    """Each graph's row of one union forward is, bit for bit, its embedding
    on its own."""
    cfg = RgcnConfig()
    params = init_params(cfg, seed=11)
    graphs = _corpus_graphs() + [build_het_graph(parse_module(TINY))]
    outs, _cache = forward(graph_union([graph_data(g, cfg) for g in graphs]),
                           params, cfg)
    assert len(outs) == len(graphs) == 25
    for g, out in zip(graphs, outs):
        assert np.array_equal(embed(g, params, cfg), out)


def test_union_gradients_match_the_sum_of_each_graph_alone():
    """The backward sums a union's products over all its graphs at once, so
    its gradients equal the per-graph sum up to rounding, not bit for bit."""
    cfg = RgcnConfig()
    params = init_params(cfg, seed=12)
    graphs = _corpus_graphs()
    gds = [graph_data(g, cfg) for g in graphs]
    rng = np.random.default_rng(3)
    pairs = [(int(i), int(j), float(y)) for i, j, y in zip(
        rng.integers(len(gds), size=40), rng.integers(len(gds), size=40),
        rng.random(40))]
    _loss, union_grads = pair_loss_grad(params, cfg, gds, pairs)

    needed = sorted({i for i, _, _ in pairs} | {j for _, j, _ in pairs})
    outs, _cache = forward(graph_union([gds[gi] for gi in needed]), params,
                           cfg)
    out_of = dict(zip(needed, outs))
    d_outs = {gi: np.zeros(cfg.embed_dim) for gi in needed}
    for i, j, label in pairs:
        diff = (1.0 - float(out_of[i] @ out_of[j])) / 2.0 - label
        dcos = 2.0 * diff / len(pairs) * (-0.5)
        d_outs[i] += dcos * out_of[j]
        d_outs[j] += dcos * out_of[i]
    summed = zero_grads(params)
    for gi in needed:
        alone = graph_data(graphs[gi], cfg)
        _outs, cache = forward(alone, params, cfg)
        backward(alone, params, cfg, cache, [d_outs[gi]], summed)
    for key in params:
        scale = np.abs(summed[key]).max()
        assert np.abs(union_grads[key] - summed[key]).max() <= 1e-12 * scale, key


#: sha256 of ``pretrain``'s parameters and loss log on a small dataset over
#: ``corpus_gen(4, 0)``; taken while the R-GCN still ran one graph at a
#: time with ``np.add.at`` scatters, again when edit-distance labels began
#: to price self-loops and to search each pair in key order, and again when
#: each layer began to aggregate before it transforms, which rounds
#: differently.
PINNED_PRETRAIN = \
    "9f10110065c67e68d240d90a39b592fe8fe48b73fc51c389b8ef839bb427062f"


def test_pretrain_is_pinned():
    ds = dataset_gen(corpus_gen(4, 0), 3, 3, 0, intra_pair_cap=6,
                     cross_pairs=8)
    assert {p.split for p in ds.pairs} == {"train", "val"}
    params, log = pretrain(ds.graphs(), ds.pairs, RgcnConfig(),
                           PretrainConfig(seed=0, max_epochs=6, patience=6,
                                          batch_size=4))
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    h.update(repr([(e.epoch, e.train_loss, e.val_loss) for e in log]).encode())
    assert h.hexdigest() == PINNED_PRETRAIN


def test_pretrain_builds_a_repeated_union_once(monkeypatch):
    """One batch holds every training pair, so each epoch's batch and
    validation pass run over the two unions built in the first epoch, each
    with the one plan its first forward built, and training ends as it does
    with a union built for every call.  One ``embed`` builds one plan."""
    ds = dataset_gen(corpus_gen(4, 0), 3, 3, 0, intra_pair_cap=6,
                     cross_pairs=8)
    config = PretrainConfig(seed=0, max_epochs=4, patience=4)
    assert len(ds.pairs) <= config.batch_size
    built, planned = [], []
    monkeypatch.setattr(model_module, "graph_union",
                        lambda gds: built.append(len(gds)) or graph_union(gds))
    monkeypatch.setattr(model_module, "build_plan",
                        lambda u, cfg: planned.append(u) or build_plan(u, cfg))
    kept = pretrain(ds.graphs(), ds.pairs, RgcnConfig(), config)
    assert len(built) == 2
    assert len(planned) == 2 and planned[0] is not planned[1]

    del planned[:]
    embed(ds.graphs()[0], kept[0])
    assert len(planned) == 1

    def fresh(fn):
        return lambda *args, unions=None, **kw: fn(*args, **kw)
    monkeypatch.setattr(train_module, "pair_loss_grad", fresh(pair_loss_grad))
    monkeypatch.setattr(train_module, "pair_loss", fresh(pair_loss))
    rebuilt = pretrain(ds.graphs(), ds.pairs, RgcnConfig(), config)
    assert len(built) == 2 + 2 * config.max_epochs
    assert kept[1] == rebuilt[1]
    assert all(np.array_equal(kept[0][k], rebuilt[0][k]) for k in kept[0])


def test_gradient_zero_at_matched_labels(fixtures):
    cfg, g1, g2, gds = fixtures
    params = init_params(cfg, seed=1)
    e0 = embed(g1, params, cfg)
    e1 = embed(g2, params, cfg)
    label = float((1 - e0 @ e1) / 2)
    loss, grads = pair_loss_grad(params, cfg, gds, [(0, 1, label)])
    assert loss < 1e-20
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert norm < 1e-10


def test_unused_relation_gradient_exactly_zero(fixtures):
    cfg, g1, _g2, gds = fixtures
    # A graph with no call nodes never exercises some relations? All four
    # relations appear here, so test with a single-block function instead.
    tiny = build_het_graph(parse_module(TINY))
    cfg2 = RgcnConfig(hidden_dim=5, embed_dim=3)
    gd = graph_data(tiny, cfg2)
    assert len(gd.rel_edges["control:fwd"][0]) == 0
    params = init_params(cfg2, seed=0)
    _loss, grads = pair_loss_grad(params, cfg2, [gd], [(0, 0, 0.3)])
    for k in range(cfg2.layers):
        assert np.all(grads[f"conv{k}/control:fwd"] == 0.0)
        assert np.all(grads[f"conv{k}/control:rev"] == 0.0)


def test_all_zero_params_give_constant_embedding(fixtures):
    cfg, g1, g2, _gds = fixtures
    params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
    e0 = embed(g1, params, cfg)
    e1 = embed(g2, params, cfg)
    assert np.array_equal(e0, e1)
    # zero-handled: either exactly zero or unit norm
    n = np.linalg.norm(e0)
    assert n == 0.0 or abs(n - 1.0) < 1e-12


def test_embedding_is_normalized(fixtures):
    cfg, g1, g2, _gds = fixtures
    params = init_params(cfg, seed=7)
    for g in (g1, g2):
        assert abs(np.linalg.norm(embed(g, params, cfg)) - 1.0) < 1e-12


def test_node_permutation_invariance(fixtures):
    # Renaming values/labels leaves the structural node order unchanged, so
    # the embedding must be bitwise equal.
    cfg, g1, _g2, _gds = fixtures
    renamed = parse_module(SRC_A.replace("%i", "%zz").replace("%s", "%qq")
                           .replace("body", "blk").replace("hd", "top_of"))
    g_renamed = build_het_graph(renamed)
    params = init_params(cfg, seed=3)
    a = embed(g1, params, cfg)
    b = embed(g_renamed, params, cfg)
    assert np.array_equal(a, b)


def test_relation_sensitivity(fixtures):
    cfg, g1, _g2, _gds = fixtures
    params = init_params(cfg, seed=5)
    base = embed(g1, params, cfg)
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
    other = embed(g_flip, params, cfg)
    assert not np.array_equal(base, other)


def test_loss_matches_independent_formula(fixtures):
    cfg, g1, g2, gds = fixtures
    params = init_params(cfg, seed=2)
    pairs = [(0, 1, 0.25), (1, 0, 0.7), (0, 0, 0.0)]
    loss = pair_loss(params, cfg, gds, pairs)
    # independent evaluation
    es = [embed(g, params, cfg) for g in (g1, g2)]
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
