"""Pass-sequence variant generation and pair labeling.

Each base design is expanded with random pass sequences, structurally
deduplicated, and embedded in the similarity dataset: intra-design pairs (up
to a cap) plus cross-design pairs, labeled with the normalized heterogeneous
edit distance.  Splits are assigned per base design so no pair straddles a
split boundary.

A design's sequences share one ``Transitions`` table and start from the
design's digest, so the design is printed once and a transition that two of
its sequences share runs once.  Each variant is deduplicated by the digest
of the last pass result; an empty sequence keeps the design's digest.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .graphs import HetGraph, build_het_graph
from .hged import EditCostModel, hged
from .ir import parse_module, print_module, text_digest
from .passes import (
    PragmaError, Transitions, apply_pragma_passes, apply_sequence,
    general_passes,
)
from .embedder import TrainPair

#: Beam width of the pair labels.
LABEL_BEAM_WIDTH = 16


@dataclass
class Variant:
    design: str
    name: str
    text: str
    graph: HetGraph
    split: str


@dataclass
class Dataset:
    variants: list[Variant]
    pairs: list[TrainPair]
    seed: int
    meta: dict = field(default_factory=dict)

    def graphs(self) -> list[HetGraph]:
        return [v.graph for v in self.variants]


#: The splits a pair can belong to.
SPLITS = ("train", "val", "test")


def split_of(design_index: int) -> str:
    """Deterministic leave-designs-out split: every 5th design validates,
    every 7th tests (validation wins collisions)."""
    if design_index % 5 == 3:
        return "val"
    if design_index % 7 == 5:
        return "test"
    return "train"


def dataset_gen(designs: list[tuple[str, str]], k_sequences: int,
                max_len: int, seed: int,
                intra_pair_cap: int = 40, cross_pairs: int = 300,
                log_fn=None) -> Dataset:
    rng = np.random.default_rng(seed)
    costs = EditCostModel()
    catalog = general_passes()
    variants: list[Variant] = []
    skipped = 0

    for d_idx, (name, text) in enumerate(designs):
        split = split_of(d_idx)
        base = parse_module(text)
        base_text = print_module(base)
        base_digest = text_digest(base_text)
        seen = {base_digest}
        variants.append(Variant(name, f"{name}__0", base_text,
                                build_het_graph(base), split))
        candidates = []     # (module, digest)
        try:
            expanded = apply_pragma_passes(base)
            candidates.append((expanded, base_digest if expanded is base
                               else expanded.digest()))
        except PragmaError as e:
            skipped += 1
            if log_fn:
                log_fn(f"skip {name} pragma expansion: {e}")
        table = Transitions()     # this design's sequences share it
        for _ in range(k_sequences - 1):
            length = int(rng.integers(min(2, max_len), max_len + 1))
            seq = [catalog[int(rng.integers(0, len(catalog)))]
                   for _ in range(length)]
            out, results = apply_sequence(base, seq, table, base_digest)
            candidates.append((out, results[-1].digest if results
                               else base_digest))
        for out, digest in candidates:
            if digest in seen:
                continue
            seen.add(digest)
            variants.append(Variant(name, f"{name}__{len(seen) - 1}",
                                    print_module(out), build_het_graph(out),
                                    split))

    by_design: dict[str, list[int]] = {}
    for idx, v in enumerate(variants):
        by_design.setdefault(v.design, []).append(idx)

    pair_keys: list[tuple[int, int]] = []
    for name in sorted(by_design):
        idxs = by_design[name]
        all_pairs = [(a, b) for ai, a in enumerate(idxs) for b in idxs[ai + 1:]]
        if len(all_pairs) > intra_pair_cap:
            chosen = rng.choice(len(all_pairs), size=intra_pair_cap,
                                replace=False)
            all_pairs = [all_pairs[int(c)] for c in sorted(chosen)]
        pair_keys.extend(all_pairs)

    split_groups: dict[str, list[str]] = {}
    for name in sorted(by_design):
        v_split = variants[by_design[name][0]].split
        split_groups.setdefault(v_split, []).append(name)
    cross_budget = cross_pairs
    attempts = 0
    seen_cross: set[tuple[int, int]] = set()
    while cross_budget > 0 and attempts < cross_pairs * 20:
        attempts += 1
        split = SPLITS[int(rng.integers(0, len(SPLITS)))]
        names = split_groups.get(split, [])
        if len(names) < 2:
            continue
        d1, d2 = rng.choice(len(names), size=2, replace=False)
        i = int(rng.choice(by_design[names[int(d1)]]))
        j = int(rng.choice(by_design[names[int(d2)]]))
        key = (min(i, j), max(i, j))
        if key in seen_cross:
            continue
        seen_cross.add(key)
        pair_keys.append(key)
        cross_budget -= 1

    pairs: list[TrainPair] = []
    memo: dict = {}     # stage results, shared by this call's pairs only
    for (i, j) in pair_keys:
        result = hged(variants[i].graph, variants[j].graph, costs,
                      LABEL_BEAM_WIDTH, memo)
        pairs.append(TrainPair(i, j, result.normalized, variants[i].split))

    return Dataset(variants, pairs, seed,
                   meta={"skipped": skipped, "designs": len(designs),
                         "k_sequences": k_sequences, "max_len": max_len})


# ---------------------------------------------------------------------------
# On-disk layout
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, out_dir: str) -> None:
    """Writes ``variants/<name>.ir`` and ``pairs.json``; graphs are not
    stored, because ``load_dataset`` rebuilds them from the IR text."""
    os.makedirs(os.path.join(out_dir, "variants"), exist_ok=True)
    index = []
    for v in ds.variants:
        with open(os.path.join(out_dir, "variants", v.name + ".ir"), "w") as f:
            f.write(v.text)
        index.append({"design": v.design, "name": v.name, "split": v.split})
    doc = {
        "seed": ds.seed,
        "meta": ds.meta,
        "variants": index,
        "pairs": [{"i": p.i, "j": p.j, "label": p.label, "split": p.split}
                  for p in ds.pairs],
    }
    with open(os.path.join(out_dir, "pairs.json"), "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def load_dataset(dir_path: str) -> Dataset:
    with open(os.path.join(dir_path, "pairs.json")) as f:
        doc = json.load(f)
    variants = []
    for rec in doc["variants"]:
        with open(os.path.join(dir_path, "variants", rec["name"] + ".ir")) as f:
            text = f.read()
        variants.append(Variant(rec["design"], rec["name"], text,
                                build_het_graph(parse_module(text)),
                                rec["split"]))
    pairs = parse_pairs(doc["pairs"], len(variants))
    return Dataset(variants, pairs, doc["seed"], doc.get("meta", {}))


def parse_pairs(records: list, n_variants: int) -> list[TrainPair]:
    """Training pairs from their JSON records, as ``pairs.json`` stores
    them.  ValueError unless each names two variants by an int in
    ``[0, n_variants)``, has a finite label in [0, 1] and a known split."""
    if not isinstance(records, list):
        raise ValueError("pairs must be a list")
    pairs = []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or \
                not {"i", "j", "label", "split"} <= rec.keys():
            raise ValueError(f"pair {k} needs i, j, label and split")
        for end in ("i", "j"):
            idx = rec[end]
            if type(idx) is not int or not 0 <= idx < n_variants:
                raise ValueError(f"pair {k}: {end} = {idx!r} is not a "
                                 f"variant index in [0, {n_variants})")
        label = rec["label"]
        # NaN fails the range test too.
        if type(label) not in (int, float) or not 0.0 <= label <= 1.0:
            raise ValueError(f"pair {k}: label {label!r} is not a number "
                             f"in [0, 1]")
        if rec["split"] not in SPLITS:
            raise ValueError(f"pair {k}: split {rec['split']!r} is not one "
                             f"of {', '.join(SPLITS)}")
        pairs.append(TrainPair(rec["i"], rec["j"], float(label),
                               rec["split"]))
    return pairs
