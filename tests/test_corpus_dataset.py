"""Corpus generator contract and dataset construction."""
import os

import numpy as np
import pytest

from passforge.corpus import (
    CASE1_INNER_TRIP, CASE1_UNROLL_FACTOR, case1_module, case2_module,
    corpus_gen, random_inputs,
)
from passforge.dataset import dataset_gen, load_dataset, save_dataset, split_of
from passforge.ir import interpret, natural_loops, parse_module, verify_module
from passforge.qor import trip_count


def test_case1_fixture_parameters(case1):
    assert CASE1_INNER_TRIP == 1482
    assert CASE1_UNROLL_FACTOR == 4
    assert trip_count(case1, "case1", 2) == 1482
    from passforge.ir import PragmaKind
    pragmas = case1.top.pragmas
    assert any(p.kind is PragmaKind.UNROLL and p.factor == 4 and p.target == 2
               for p in pragmas)


def test_case2_fixture_guarded_inner_loop(case2):
    # The guard compares the outer counter's increment with the bound, so the
    # inner loop runs only on the final iteration.
    fn = case2.top
    body = fn.block_map()["body1"]
    term = body.terminator
    assert term.successors() == ["l3_pre", "latch1"]
    forest = natural_loops(fn)
    inner = forest.by_id(3)
    assert inner is not None and inner.depth == 2
    from passforge.ir import PragmaKind
    assert any(p.kind is PragmaKind.PIPELINE and p.target == 1
               for p in fn.pragmas)


def test_every_generated_design_verifies_and_terminates(rng):
    designs = corpus_gen(22, seed=123)
    for name, text in designs:
        m = parse_module(text)
        assert verify_module(m) == [], name
        inputs = random_inputs(m, rng)
        r = interpret(m, inputs, fuel=10**7)
        assert r.executed_instructions > 0, name


def test_corpus_gen_deterministic():
    a = corpus_gen(10, seed=4)
    b = corpus_gen(10, seed=4)
    assert a == b
    c = corpus_gen(10, seed=5)
    assert a != c


def test_split_assignment_partitions():
    splits = {split_of(i) for i in range(30)}
    assert splits == {"train", "val", "test"}


def test_dataset_gen_zero_length_variants_label_zero():
    designs = corpus_gen(4, seed=2, include_cases=False)
    ds = dataset_gen(designs, k_sequences=1, max_len=0, seed=0,
                     intra_pair_cap=5, cross_pairs=4)
    # k=1 with max length 0 keeps only originals (plus pragma expansions when
    # they change the module); intra-design pairs of identical graphs get 0.
    for p in ds.pairs:
        vi, vj = ds.variants[p.i], ds.variants[p.j]
        if vi.design == vj.design and vi.text == vj.text:
            assert p.label == 0.0


def test_dataset_pairs_never_straddle_splits():
    designs = corpus_gen(12, seed=3, include_cases=False)
    ds = dataset_gen(designs, k_sequences=4, max_len=4, seed=1,
                     intra_pair_cap=6, cross_pairs=30)
    for p in ds.pairs:
        assert ds.variants[p.i].split == ds.variants[p.j].split == p.split
        assert p.i != p.j
        assert 0.0 <= p.label <= 1.0


def test_dataset_deterministic_and_roundtrips(tmp_path):
    designs = corpus_gen(5, seed=9, include_cases=False)
    ds1 = dataset_gen(designs, k_sequences=3, max_len=3, seed=7,
                      intra_pair_cap=4, cross_pairs=6)
    ds2 = dataset_gen(designs, k_sequences=3, max_len=3, seed=7,
                      intra_pair_cap=4, cross_pairs=6)
    assert [(v.design, v.name, v.text) for v in ds1.variants] == \
        [(v.design, v.name, v.text) for v in ds2.variants]
    assert [(p.i, p.j, p.label) for p in ds1.pairs] == \
        [(p.i, p.j, p.label) for p in ds2.pairs]

    save_dataset(ds1, str(tmp_path / "ds"))
    assert sorted(os.listdir(tmp_path / "ds")) == ["pairs.json", "variants"]
    loaded = load_dataset(str(tmp_path / "ds"))
    assert len(loaded.variants) == len(ds1.variants)
    assert [(p.i, p.j, p.label) for p in loaded.pairs] == \
        [(p.i, p.j, p.label) for p in ds1.pairs]
    from passforge.graphs import to_json
    for a, b in zip(loaded.variants, ds1.variants):
        assert to_json(a.graph) == to_json(b.graph)


def test_dedup_removes_identical_variants():
    designs = corpus_gen(3, seed=11, include_cases=False)
    ds = dataset_gen(designs, k_sequences=6, max_len=2, seed=3,
                     intra_pair_cap=3, cross_pairs=0)
    texts = {}
    for v in ds.variants:
        texts.setdefault(v.design, set())
        assert v.text not in texts[v.design]
        texts[v.design].add(v.text)
