"""Command-line interface: subcommands, exit codes, reproducibility stamps."""
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from passforge.cli import main
from passforge.ir import parse_module
from passforge.reporting import geomean


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["corpus-gen", "--out", str(d / "corpus"), "--n", "6",
                 "--seed", "3", "--quiet"]) == 0
    return d


def test_parse_and_verify(workdir, capsys):
    design = str(workdir / "corpus" / "dot_01.ir")
    assert main(["parse", design]) == 0
    out = capsys.readouterr().out
    assert "top func" in out
    assert main(["verify", design, "--quiet"]) == 0


def test_verify_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.ir"
    bad.write_text("""
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %y, 1
  ret i32 %x
}
""")
    assert main(["verify", str(bad)]) == 1
    assert "use-before-def" in capsys.readouterr().err


def test_user_error_exit_code():
    assert main(["parse", "/nonexistent/file.ir"]) == 1


def test_graph_outputs(workdir):
    design = str(workdir / "corpus" / "dot_01.ir")
    dot = str(workdir / "g.dot")
    js = str(workdir / "g.json")
    assert main(["graph", design, "--dot", dot, "--json-out", js,
                 "--quiet"]) == 0
    assert Path(dot).read_text().startswith("digraph")
    doc = json.loads(Path(js).read_text())
    assert doc["schema"] == "hetgraph_v2"


def test_run_with_stats(workdir, capsys):
    design = str(workdir / "corpus" / "vec_combine_00.ir")
    stats = str(workdir / "stats.json")
    emit = str(workdir / "out.ir")
    code = main(["run", design, "-p", "adce,dse,simplifycfg",
                 "--stats", stats, "--emit", emit, "--quiet"])
    assert code == 0
    recs = json.loads(Path(stats).read_text())
    assert [r["pass"] for r in recs] == ["adce", "dse", "simplifycfg"]
    assert main(["verify", emit, "--quiet"]) == 0


def test_estimate_json(workdir, capsys):
    design = str(workdir / "corpus" / "case2.ir")
    assert main(["estimate", design, "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cycles"] >= 1
    assert any(l["achieved_ii"] is not None for l in doc["loops"])


def test_search_reports_budget_and_passes_run(workdir, capsys):
    design = str(workdir / "corpus" / "dot_01.ir")
    assert main(["search", "--method", "greedy", "--design", design]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["passes_run"] < doc["evaluations"]


def test_interp_with_inputs_file(workdir, tmp_path, capsys):
    design = str(workdir / "corpus" / "dot_01.ir")
    m_doc = json.loads(subprocess.run(
        [sys.executable, "-c",
         "import json;"
         "from passforge.ir import parse_module;"
         f"m = parse_module(open({design!r}).read());"
         "print(json.dumps([[1]*p[1].length if p[1].is_array else 1"
         " for p in m.top.params]))"],
        capture_output=True, text=True, check=True).stdout)
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(m_doc))
    assert main(["interp", design, "--inputs", str(inputs), "--oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "memory_digest" in doc and "dynamic_cycles" in doc


def test_hged_cli(workdir, capsys):
    a = str(workdir / "corpus" / "dot_01.ir")
    b = str(workdir / "corpus" / "vec_combine_00.ir")
    assert main(["hged", a, b, "--mode", "beam:8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["normalized"] <= 1.0
    assert main(["hged", a, a, "--mode", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 0.0 and doc["exact"] is True


def test_hged_cli_user_errors(workdir, tmp_path, capsys):
    blocks = "\n".join(f"block b{i}:\n  br b{i + 1}" for i in range(14))
    big = tmp_path / "big.ir"
    big.write_text(f"top func @f(%a: i32) -> i32 {{\n{blocks}\n"
                   f"block b14:\n  ret i32 %a\n}}\n")
    assert main(["hged", str(big), str(big), "--mode", "exact"]) == 1
    assert "--mode beam:N" in capsys.readouterr().err
    assert main(["hged", str(big), str(big), "--mode", "beam:4"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 0.0
    design = str(workdir / "corpus" / "dot_01.ir")
    for mode in ("beam:x", "beam:0", "greedy"):
        assert main(["hged", design, design, "--mode", mode]) == 1
    costs = tmp_path / "costs.json"
    for doc in ({"node_insertt": {"instr": 2.0}}, {"w1": -1.0}, [1]):
        costs.write_text(json.dumps(doc))
        assert main(["hged", design, design, "--costs", str(costs)]) == 1
    assert "bad edit costs" in capsys.readouterr().err
    costs.write_text(json.dumps({"node_delete": {"block": 2.0}}))
    assert main(["hged", design, design, "--costs", str(costs)]) == 0


def test_unknown_function_is_a_user_error(workdir, capsys):
    design = str(workdir / "corpus" / "dot_01.ir")
    names = [f.name for f in parse_module(Path(design).read_text()).functions]
    for argv in (["graph", design, "--fn", "nosuch"],
                 ["hged", design, design, "--fn", "nosuch"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "no function 'nosuch'" in err
        assert f"it has {', '.join(names)}" in err
    assert main(["graph", design, "--fn", names[0], "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["function"] == names[0]


def test_hged_help_describes_its_own_options(capsys):
    with pytest.raises(SystemExit):
        main(["hged", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--costs COSTS edit-cost JSON (EditCostModel fields)" in text
    assert "--fn FN function compared in both files" in text


def test_corpus_gen_resumable(workdir, capsys):
    # Re-running the completed stage is a no-op (stamp digest matches).
    code = main(["corpus-gen", "--out", str(workdir / "corpus"), "--n", "6",
                 "--seed", "3"])
    assert code == 0
    assert "up to date" in capsys.readouterr().out


def test_corpus_gen_byte_identical(tmp_path):
    for d in ("r1", "r2"):
        assert main(["corpus-gen", "--out", str(tmp_path / d), "--n", "5",
                     "--seed", "9", "--quiet"]) == 0
    for fname in sorted(os.listdir(tmp_path / "r1")):
        if fname.endswith(".stamp"):
            continue
        a = (tmp_path / "r1" / fname).read_bytes()
        b = (tmp_path / "r2" / fname).read_bytes()
        assert a == b, fname


def test_catalog_lists_action_indexing(capsys):
    assert main(["catalog"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["pass"] == "simplifycfg" and rows[0]["index"] == 0
    assert sum(1 for r in rows if not r["pragma_anchored"]) == 17


def test_geomean_arithmetic():
    assert geomean([0.5, 2.0]) == pytest.approx(1.0)
    assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Stage stamps, policy search, user errors, per-command options
# ---------------------------------------------------------------------------

PPO = {"iterations": 1, "episodes_per_iteration": 2, "max_episode_len": 3,
       "minibatch_size": 8}


def _ran(capsys, argv) -> bool:
    """Run a stage; True when it ran, False when its stamp matched."""
    assert main(argv) == 0
    return "up to date" not in capsys.readouterr().out


@pytest.fixture(scope="module")
def stages(workdir):
    """A three-design corpus, its dataset, an embedder and a PPO config."""
    d = workdir / "stages"
    (d / "corpus").mkdir(parents=True)
    for name in ("dot_01", "vec_combine_00", "stencil_02"):
        shutil.copy(workdir / "corpus" / f"{name}.ir", d / "corpus")
    assert main(["dataset-gen", "--corpus", str(d / "corpus"),
                 "--out", str(d / "ds"), "--seqs", "2", "--max-len", "2",
                 "--intra-cap", "3", "--cross-pairs", "3", "--quiet"]) == 0
    assert main(["pretrain", "--corpus", str(d / "ds"),
                 "--out", str(d / "emb.ckpt"), "--epochs", "2", "--hidden", "8",
                 "--embed-dim", "12", "--quiet"]) == 0
    (d / "ppo.json").write_text(json.dumps(PPO))
    return d


def test_dataset_gen_stamp_covers_options_and_design_texts(stages, tmp_path,
                                                            capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(stages / "corpus", corpus)
    out = tmp_path / "ds"
    argv = ["dataset-gen", "--corpus", str(corpus), "--out", str(out),
            "--seqs", "2", "--max-len", "2"]
    assert _ran(capsys, argv + ["--intra-cap", "3", "--cross-pairs", "3"])
    assert not _ran(capsys, argv + ["--intra-cap", "3", "--cross-pairs", "3"])
    assert _ran(capsys, argv + ["--intra-cap", "3", "--cross-pairs", "0"])
    assert _ran(capsys, argv + ["--intra-cap", "0", "--cross-pairs", "0"])
    assert json.loads((out / "pairs.json").read_text())["pairs"] == []
    design = corpus / "dot_01.ir"
    design.write_text(design.read_text() + "; edited\n")
    assert _ran(capsys, argv + ["--intra-cap", "0", "--cross-pairs", "0"])
    assert not _ran(capsys, argv + ["--intra-cap", "0", "--cross-pairs", "0"])


def test_pretrain_stamp_covers_patience(stages, tmp_path, capsys):
    # The checkpoint lands inside the dataset directory: a stage's own
    # output is not one of its inputs.
    ds = tmp_path / "ds"
    shutil.copytree(stages / "ds", ds)
    argv = ["pretrain", "--corpus", str(ds), "--out", str(ds / "emb.ckpt"),
            "--epochs", "2", "--hidden", "8", "--embed-dim", "12"]
    assert _ran(capsys, argv + ["--patience", "1"])
    assert not _ran(capsys, argv + ["--patience", "1"])
    assert _ran(capsys, argv + ["--patience", "2"])


def test_rl_train_stamp_covers_obs_dim_and_embedder_bytes(stages, tmp_path,
                                                          capsys):
    from passforge.embedder import load_checkpoint, save_checkpoint

    policy = tmp_path / "policy.ckpt"
    argv = ["rl-train", "--corpus", str(stages / "corpus"),
            "--config", str(stages / "ppo.json"), "--out", str(policy),
            "--obs", "histogram"]
    assert _ran(capsys, argv + ["--obs-dim", "16"])
    assert _ran(capsys, argv + ["--obs-dim", "32"])
    assert load_checkpoint(str(policy))[1]["obs_dim"] == 32
    assert main(["search", "--method", "rl", "--policy", str(policy),
                 "--design", str(stages / "corpus" / "dot_01.ir")]) == 0

    embed = tmp_path / "emb.ckpt"
    shutil.copy(stages / "emb.ckpt", embed)
    argv = ["rl-train", "--corpus", str(stages / "corpus"),
            "--config", str(stages / "ppo.json"), "--out", str(policy),
            "--embed", str(embed)]
    assert _ran(capsys, argv)
    assert not _ran(capsys, argv)
    params, config, _ = load_checkpoint(str(embed))
    save_checkpoint(str(embed), {k: v * 0.5 for k, v in params.items()},
                    config, seed=1)
    assert _ran(capsys, argv)


def _search_rl(capsys, *extra) -> dict:
    capsys.readouterr()
    assert main(["search", "--method", "rl", *extra]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("obs", ["histogram", "rgcn"])
def test_search_rl_reads_observation_from_policy(stages, tmp_path, capsys,
                                                 obs):
    from passforge.agent import infer
    from passforge.embedder import (
        RgcnConfig, embed, featurize_baseline, load_checkpoint,
    )
    from passforge.ir import parse_module

    embed_ckpt = str(stages / "emb.ckpt")
    policy = tmp_path / "policy.ckpt"
    assert main(["rl-train", "--corpus", str(stages / "corpus"),
                 "--config", str(stages / "ppo.json"), "--quiet",
                 "--out", str(policy), "--obs", obs, "--obs-dim", "12",
                 "--embed", embed_ckpt]) == 0
    if obs == "rgcn":
        emb_params, emb_doc, _ = load_checkpoint(embed_ckpt)
        emb_cfg = RgcnConfig.from_dict(emb_doc)
        obs_fn = lambda g: embed(g, emb_params, emb_cfg)
        extra = ["--embed", embed_ckpt]
    else:
        obs_fn = lambda g: featurize_baseline(g, "opcode_histogram", 12)
        extra = []
    design = stages / "corpus" / "vec_combine_00.ir"
    doc = _search_rl(capsys, "--design", str(design), "--policy", str(policy),
                     *extra)
    seq, cycles, best = infer(parse_module(design.read_text()),
                              load_checkpoint(str(policy))[0], obs_fn)
    assert doc["sequence"] == [p.value for p in seq]
    assert doc["trace"] == cycles and doc["cycles"] == cycles[best]


@pytest.mark.parametrize("obs", ["histogram", "zero"])
def test_rl_train_rejects_small_obs_dim(stages, tmp_path, obs):
    assert main(["rl-train", "--corpus", str(stages / "corpus"),
                 "--out", str(tmp_path / "p.ckpt"), "--obs", obs,
                 "--obs-dim", "8", "--quiet"]) == 1


def test_bad_input_files_are_user_errors(stages, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    missing = str(tmp_path / "missing.json")
    rl = ["rl-train", "--corpus", str(stages / "corpus"), "--obs",
          "histogram", "--out", str(tmp_path / "p.ckpt"), "--quiet"]
    pre = ["pretrain", "--corpus", str(stages / "ds"), "--quiet",
           "--out", str(tmp_path / "e.ckpt")]
    for path in (str(bad), missing):
        assert main(rl + ["--config", path]) == 1
        assert main(pre + ["--pairs", path]) == 1
    design = str(stages / "corpus" / "dot_01.ir")
    for doc in ({"memory_ports": 0}, {"lattency": {"add": 1}},
                {"latency": {"add": -1}}):
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps(doc))
        assert main(["estimate", design, "--costs", str(costs)]) == 1
    ds = tmp_path / "ds"
    shutil.copytree(stages / "ds", ds)
    next((ds / "variants").iterdir()).write_text("not ir\n")
    assert main(["pretrain", "--corpus", str(ds), "--quiet",
                 "--out", str(tmp_path / "e.ckpt")]) == 1


def test_bad_or_mismatched_checkpoints_are_user_errors(stages, tmp_path):
    policy = tmp_path / "policy.ckpt"
    assert main(["rl-train", "--corpus", str(stages / "corpus"), "--quiet",
                 "--config", str(stages / "ppo.json"), "--out", str(policy),
                 "--obs", "histogram", "--obs-dim", "12"]) == 0
    bad = tmp_path / "bad.ckpt"
    bad.write_text(json.dumps({"format": "other"}))
    design = str(stages / "corpus" / "dot_01.ir")
    embed = str(stages / "emb.ckpt")
    rl = ["rl-train", "--corpus", str(stages / "corpus"), "--quiet",
          "--config", str(stages / "ppo.json"), "--out", str(tmp_path / "p")]
    assert main(rl + ["--embed", str(bad)]) == 1
    assert main(rl + ["--embed", str(policy)]) == 1
    search = ["search", "--method", "rl", "--design", design]
    assert main(search + ["--policy", str(bad)]) == 1
    assert main(search + ["--policy", embed]) == 1
    assert main(search + ["--policy", str(policy), "--embed", embed]) == 0


def test_rgcn_observation_homogenizes_for_a_homogenized_embedder(stages,
                                                                  tmp_path):
    from passforge.cli import _obs_fn
    from passforge.embedder import RgcnConfig, embed, load_checkpoint
    from passforge.graphs import build_het_graph, homogenize
    from passforge.ir import parse_module

    ckpt = str(tmp_path / "homog.ckpt")
    assert main(["pretrain", "--corpus", str(stages / "ds"), "--out", ckpt,
                 "--epochs", "1", "--hidden", "8", "--embed-dim", "12",
                 "--homogenize", "--quiet"]) == 0
    params, cfg_doc, _ = load_checkpoint(ckpt)
    cfg = RgcnConfig.from_dict(cfg_doc)
    g = build_het_graph(parse_module(
        (stages / "corpus" / "dot_01.ir").read_text()))
    obs_fn, obs_dim = _obs_fn("rgcn", 0, ckpt)
    assert obs_dim == 12
    obs = obs_fn(g)
    assert np.array_equal(obs, embed(homogenize(g), params, cfg))
    assert not np.array_equal(obs, embed(g, params, cfg))


def test_pretrain_without_training_pairs_is_user_error(stages, tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [
        {"i": 0, "j": 1, "label": 0.5, "split": "val"}]}))
    assert main(["pretrain", "--corpus", str(stages / "ds"), "--quiet",
                 "--pairs", str(pairs), "--out", str(tmp_path / "e.ckpt")]) == 1


def _variant_count(stages) -> int:
    return len(json.loads((stages / "ds" / "pairs.json").read_text())
               ["variants"])


@pytest.mark.parametrize("bad", [
    pytest.param(lambda n: {"j": n}, id="j-past-last-variant"),
    pytest.param(lambda n: {"i": -1}, id="negative-i"),
    pytest.param(lambda n: {"label": float("nan")}, id="nan-label"),
    pytest.param(lambda n: {"label": 7.0}, id="label-above-one"),
    pytest.param(lambda n: {"split": "dev"}, id="unknown-split"),
])
def test_bad_pairs_are_user_errors(stages, tmp_path, bad):
    """A bad pair is refused whether it comes in by ``--pairs`` or in the
    dataset's own ``pairs.json``."""
    pair = {"i": 0, "j": 1, "label": 0.5, "split": "train"}
    pair.update(bad(_variant_count(stages)))
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [pair]}))
    pre = ["pretrain", "--quiet", "--epochs", "1", "--hidden", "8",
           "--embed-dim", "12", "--out", str(tmp_path / "e.ckpt")]
    assert main(pre + ["--corpus", str(stages / "ds"),
                       "--pairs", str(pairs)]) == 1
    ds = tmp_path / "ds"
    shutil.copytree(stages / "ds", ds)
    doc = json.loads((ds / "pairs.json").read_text())
    doc["pairs"].append(pair)
    (ds / "pairs.json").write_text(json.dumps(doc))
    assert main(pre + ["--corpus", str(ds)]) == 1


def test_good_pairs_file_trains(stages, tmp_path):
    n = _variant_count(stages)
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [
        {"i": 0, "j": n - 1, "label": 1, "split": "train"},
        {"i": n - 1, "j": n - 1, "label": 0.0, "split": "val"}]}))
    assert main(["pretrain", "--corpus", str(stages / "ds"), "--quiet",
                 "--epochs", "1", "--hidden", "8", "--embed-dim", "12",
                 "--pairs", str(pairs), "--out", str(tmp_path / "e.ckpt")]) == 0


@pytest.mark.parametrize("argv", [
    ["catalog", "--seed", "0"],
    ["parse", "x.ir", "--seed", "0"],
    ["search", "--method", "rl", "--design", "x.ir", "--obs", "histogram"],
    ["infer", "--design", "x.ir", "--policy", "p.ckpt"],
])
def test_unread_options_and_removed_commands_are_rejected(argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2


# ---------------------------------------------------------------------------
# search -> report
# ---------------------------------------------------------------------------

METHODS = ("greedy", "random", "genetic", "rl")
#: The search methods that read each method-specific option.
READERS = {"--seed": ("random", "genetic"), "--budget": ("random",),
           "--policy": ("rl",), "--embed": ("rl",)}


@pytest.mark.parametrize("method,option", [
    (method, option) for option, readers in READERS.items()
    for method in METHODS if method not in readers])
def test_search_rejects_options_its_method_does_not_read(workdir, capsys,
                                                          method, option):
    design = str(workdir / "corpus" / "dot_01.ir")
    capsys.readouterr()
    assert main(["search", "--method", method, "--design", design,
                 option, "1"]) == 1
    assert f"--method {method} does not read {option}" in \
        capsys.readouterr().err


def test_report_tabulates_search_outputs(stages, tmp_path):
    policy = str(tmp_path / "policy.ckpt")
    assert main(["rl-train", "--corpus", str(stages / "corpus"), "--quiet",
                 "--config", str(stages / "ppo.json"), "--out", policy,
                 "--obs", "histogram", "--obs-dim", "12"]) == 0
    # Each method gets only the options it reads.
    options = {"greedy": [], "random": ["--budget", "4", "--seed", "2"],
               "genetic": ["--seed", "3"], "rl": ["--policy", policy]}
    files = []
    for design in ("dot_01", "vec_combine_00"):
        for method in METHODS:
            files.append(tmp_path / f"{design}.{method}.json")
            assert main(["search", "--method", method, *options[method],
                         "--design", str(stages / "corpus" / f"{design}.ir"),
                         "--out", str(files[-1])]) == 0
    records = [json.loads(f.read_text()) for f in files]
    rl = [r for r in records if r["method"] == "rl"]
    assert all(r["evaluations"] == len(r["trace"]) - 1 for r in rl)
    assert {r["method"]: r.get("seed") for r in records} == \
        {"greedy": None, "random": 2, "genetic": 3, "rl": None}

    table = tmp_path / "table.csv"
    assert main(["report", "--results", *map(str, files), "--out-csv",
                 str(table), "--quiet"]) == 0
    rows = list(csv.DictReader(table.read_text().splitlines()))
    means = {r["design"]: r for r in rows if r["design"].startswith("geomean")}
    rows = [r for r in rows if not r["design"].startswith("geomean")]
    assert sorted((r["design"], r["method"], r["seed"]) for r in rows) == \
        sorted((r["design"], r["method"], str(r.get("seed", "")))
               for r in records)
    for method in METHODS:
        mine = [r for r in records if r["method"] == method]
        mean = means.pop(f"geomean[{method}]")
        assert float(mean["cycles_ratio"]) == pytest.approx(geomean(
            r["cycles"] / r["baseline_cycles"] for r in mine), abs=1e-4)
        assert int(mean["evaluations"]) == sum(r["evaluations"] for r in mine)
    assert means == {}


def test_report_rejects_unreadable_records(stages, tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["search", "--method", "random", "--budget", "2", "--design",
                 str(stages / "corpus" / "dot_01.ir"), "--out",
                 str(good)]) == 0
    record = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    for doc in ({k: v for k, v in record.items() if k != "cycles"},
                [record, {**record, "evaluations": "many"}],
                {"design": "d1", "method": "rl", "cycles": 50, "lut_proxy": 1,
                 "dsp": 1, "baseline_cycles": 100, "baseline_lut": 1,
                 "baseline_dsp": 1},
                {**record, "seed": "zero"}, [record, 3], "record"):
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--results", str(good), str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err
    bad.write_text(json.dumps({k: v for k, v in record.items()
                               if k not in ("cycles", "sequence")}))
    assert main(["report", "--results", str(bad)]) == 1
    assert "sequence, cycles" in capsys.readouterr().err
