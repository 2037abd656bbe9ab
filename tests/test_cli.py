"""Command-line interface: subcommands, exit codes, reproducibility stamps."""
import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from passforge.agent import search_greedy
from passforge.cli import _MINIMUMS, build_parser, main
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


@pytest.mark.parametrize("body, annotated", [
    ("block body:", "no loop"),
    ("block body loop(7, depth=3):", "loop(7, depth=3)"),
], ids=["missing", "wrong"])
def test_verify_rejects_a_wrong_loop_body_annotation(tmp_path, capsys, body,
                                                     annotated):
    assert main(["corpus-gen", "--out", str(tmp_path), "--n", "3", "--seed",
                 "0", "--quiet"]) == 0
    design = tmp_path / "vec_combine_00.ir"
    text = design.read_text()
    assert main(["verify", str(design), "--quiet"]) == 0
    assert "block body loop(1, depth=1):" in text
    design.write_text(text.replace("block body loop(1, depth=1):", body))
    capsys.readouterr()
    assert main(["verify", str(design)]) == 1
    assert capsys.readouterr().err == (
        f"[loop-member] vec_combine_00: block 'body' annotated {annotated}, "
        f"derived loop(1, depth=1)\n")


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


def test_run_stats_count_what_each_pass_removed_and_added(tmp_path):
    design = tmp_path / "dead.ir"
    design.write_text("""
top func @f(%a: i32) -> i32 {
block entry:
  %dead = add i32 %a, 5
  %live = add i32 %a, 1
  ret i32 %live
}
""")
    stats = tmp_path / "stats.json"
    assert main(["run", str(design), "-p", "adce,adce", "--stats", str(stats),
                 "--emit", str(tmp_path / "out.ir"), "--quiet"]) == 0
    assert json.loads(stats.read_text()) == [
        {"pass": "adce", "changed": True, "instructions_removed": 1,
         "instructions_added": 0, "blocks_removed": 0},
        {"pass": "adce", "changed": False, "instructions_removed": 0,
         "instructions_added": 0, "blocks_removed": 0}]


#: An unroll pragma on a loop whose bound is loaded: it cannot expand.
LOADED_BOUND_IR = """
global @n : i32[1]
#pragma unroll(factor=2) loop=1
top func @f(%a: i32[64]) -> i32 {
block entry:
  %pn = getelementptr @n, 0
  %n = load i32 %pn
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, %n
  condbr %c, body, out
block body loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
"""


def test_run_pragma_failure_is_a_user_error(tmp_path, capsys):
    """An unroll pragma on a loop whose bound is loaded is the input's
    fault, for ``run`` as for ``estimate``."""
    design = tmp_path / "loaded.ir"
    design.write_text(LOADED_BOUND_IR)
    for argv in (["run", str(design), "-p", "apply_unroll_pragma"],
                 ["estimate", str(design)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {design}: loop 1 in @f is not in "
                              "canonical countable form")


def test_run_unknown_pass_is_a_user_error(workdir, capsys):
    """The message is the pass lookup's own ``ValueError`` text."""
    design = str(workdir / "corpus" / "dot_01.ir")
    assert main(["run", design, "--passes", "adce,bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown pass: 'bogus' is not a valid "
                            "PassId\n")


#: One faulty file per case, by name, with its text.
BAD_CORPUS_FILES = {
    "pragma": ("loaded.ir", LOADED_BOUND_IR),
    "empty-manifest": ("manifest.json", "{}"),
    "syntax": ("bad.ir", "top func @f() -> i32 {\nblock entry:\n"
                         "  %x = frob i32 1\n  ret i32 %x\n}\n"),
}


@pytest.mark.parametrize("command,case", [
    ("search", "pragma"), ("rl-train", "pragma"),
    ("dataset-gen", "empty-manifest"), ("rl-train", "empty-manifest"),
    ("dataset-gen", "syntax"), ("rl-train", "syntax"),
])
def test_bad_designs_and_manifests_are_user_errors(tmp_path, capsys, command,
                                                   case):
    """A design whose pragma cannot expand, a manifest without designs and
    a design that does not parse exit 1 with one error line that names the
    file, and leave nothing behind."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    name, text = BAD_CORPUS_FILES[case]
    bad = corpus / name
    bad.write_text(text)
    argv = {"search": ["search", "--method", "greedy", "--design", str(bad)],
            "dataset-gen": ["dataset-gen", "--corpus", str(corpus),
                            "--out", str(tmp_path / "ds"), "--quiet"],
            "rl-train": ["rl-train", "--corpus", str(corpus), "--obs",
                         "histogram", "--out", str(tmp_path / "p.ckpt"),
                         "--quiet"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(bad) in captured.err
    assert captured.err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["corpus"]
    assert os.listdir(corpus) == [name]


def test_a_literal_outside_i32_exits_1(tmp_path, capsys):
    bad = tmp_path / "wide.ir"
    bad.write_text("func @f(%a: i32) -> i1 {\nblock entry:\n"
                   "%c = icmp slt i32 %a, 4294967296\nret i1 %c\n}\n")
    for argv in (["parse", str(bad)], ["interp", str(bad), "--inputs", "5"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: line 3:23: literal 4294967296 "
                                "is outside i32's [-2^31, 2^31-1]\n")


@pytest.mark.parametrize("text, where", [
    ("func @f(%a: i32) -> i32 {\nblock entry:\n  %b = add i32 %a, \u0663\n"
     "  ret i32 %b\n}\n", "line 3:20"),
    ("global @g : i32[\u0663]\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}\n", "line 1:17"),
], ids=["operand", "array-length"])
def test_a_non_ascii_digit_exits_1(tmp_path, capsys, text, where):
    """Both once parsed, a regex's \\d reading the Arabic-Indic digit
    U+0663 as 3, and printed back as 3."""
    bad = tmp_path / "digit.ir"
    bad.write_text(text, encoding="utf-8")
    assert main(["parse", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: {where}: unexpected character "
                            "'\u0663'\n")


_BODY = "func @f(%a: i32) -> i32 {{\nblock entry:\n{line}\n  ret i32 0\n}}\n"


@pytest.mark.parametrize("text, where, char", [
    (_BODY.format(line="  %0 = add i32 %a, 1"), "line 3:3", "%"),
    (_BODY.format(line="  %_b = add i32 %a, 1"), "line 3:3", "%"),
    (_BODY.format(line="  %x = add i32 %.a, 1"), "line 3:16", "%"),
    ("func @.f() -> i32 {\nblock entry:\n  ret i32 0\n}\n", "line 1:6", "@"),
    ("func @f() -> i32 {\nblock _e:\n  ret i32 0\n}\n", "line 2:7", "_"),
    (_BODY.format(line="  %x = add\u00a0i32 %a, 1"), "line 3:11", "\xa0"),
    (_BODY.format(line="  %x = add i32 %a, 1\u2028  %y = add i32 %x, 1"),
     "line 3:21", "\u2028"),
    (_BODY.format(line="  %x = add i32 %a, 1\f  %y = add i32 %x, 1"),
     "line 3:21", "\x0c"),
], ids=["value-digit", "value-underscore", "value-dot", "global-dot",
        "label-underscore", "no-break-space", "line-separator", "form-feed"])
def test_an_off_grammar_name_or_break_exits_1(tmp_path, capsys, text, where,
                                               char):
    """Each once parsed; the spaces and breaks printed back rewritten."""
    bad = tmp_path / "names.ir"
    bad.write_bytes(text.encode("utf-8"))
    assert main(["parse", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: {where}: unexpected character "
                            f"{char!r}\n")


def _inline_chain(depth: int) -> str:
    """``@g1`` .. ``@g<depth>``, each inlined and calling the next twice, so
    full inlining doubles the code at each level."""
    fns = [f"#pragma inline\nfunc @g{d}(%x: i32) -> i32 {{\nblock entry:\n"
           f"  %a = call i32 @g{d + 1}(%x)\n  %b = call i32 @g{d + 1}(%a)\n"
           f"  ret i32 %b\n}}\n" for d in range(1, depth)]
    fns.append(f"#pragma inline\nfunc @g{depth}(%x: i32) -> i32 {{\n"
               "block entry:\n  %a = add i32 %x, 1\n  ret i32 %a\n}\n")
    fns.append("top func @f(%x: i32) -> i32 {\nblock entry:\n"
               "  %r = call i32 @g1(%x)\n  ret i32 %r\n}\n")
    return "\n".join(fns)


def test_an_inline_expansion_past_the_budget_exits_1(tmp_path, capsys):
    """A 20-deep chain would inline about 2.6 million instructions; the
    inliner refuses it before inlining any call, as unroll refuses a loop
    past the same budget."""
    design = tmp_path / "chain.ir"
    design.write_text(_inline_chain(20))
    for argv in (["estimate", str(design)],
                 ["search", "--method", "greedy", "--design", str(design)],
                 ["run", str(design), "-p", "apply_inline_pragma"]):
        t = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - t < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {design}: inlining into @g")
        assert captured.err.endswith(" instructions (budget 50000)\n")
        assert captured.err.count("\n") == 1


def test_an_array_parameter_shorter_than_one_exits_1(tmp_path, capsys):
    """The interpreter once died on it in numpy (exit 2), though a global
    of that length already failed to verify."""
    bad = tmp_path / "neg.ir"
    bad.write_text("func @f(%a: i32[-5]) -> i32 {\nblock entry:\n"
                   "  ret i32 0\n}\n")
    for argv in (["parse", str(bad)], ["interp", str(bad)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: [array-len] f: array %a "
                                "has length -5\n")


@pytest.mark.parametrize("ret, params, body, message", [
    ("i32", "", "  ret void", "[type] f:entry: ret is void, expected the "
     "function's i32"),
    ("void", "", "  ret i32 3", "[type] f:entry: ret is i32, expected the "
     "function's void"),
    ("i32", "%c: i1", "  %x = add i32 %c, 1\n  ret i32 %x",
     "[type] f:entry: add operand %c is i1, expected i32"),
    ("i32", "%a: i32", "  %d = load i32 %a\n  ret i32 %d",
     "[type] f:entry: load operand %a is i32, expected ptr"),
    ("i32", "%a: i32", "  condbr %a, l, l\nblock l:\n  ret i32 0",
     "[type] f:entry: condbr operand %a is i32, expected i1"),
], ids=["ret-void-in-i32", "ret-i32-in-void", "add-on-i1", "load-of-i32",
        "condbr-on-i32"])
def test_a_mistyped_design_exits_1(tmp_path, capsys, ret, params, body,
                                   message):
    """Each once verified: ``interp`` ran the others, returning None and 3
    on the ret mismatches, and died on the load with a TypeError (exit 2)."""
    bad = tmp_path / "typed.ir"
    bad.write_text(f"func @f({params}) -> {ret} {{\nblock entry:\n{body}\n}}\n")
    for argv in (["parse", str(bad)], ["interp", str(bad)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {message}\n"
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_estimate_json(workdir, capsys):
    design = str(workdir / "corpus" / "case2.ir")
    assert main(["estimate", design, "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cycles"] >= 1
    assert any(l["achieved_ii"] is not None for l in doc["loops"])


def test_search_reports_budget_and_passes_run(workdir, capsys):
    # The record's one count, its evaluations, is the passes greedy ran.
    design = str(workdir / "corpus" / "dot_01.ir")
    assert main(["search", "--method", "greedy", "--design", design]) == 0
    doc = json.loads(capsys.readouterr().out)
    ran = search_greedy(parse_module(Path(design).read_text())).evaluations
    assert doc["evaluations"] == ran > 0
    assert "passes_run" not in doc


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
    chains = []
    for n in (14, 13):
        blocks = "\n".join(f"block b{i}:\n  br b{i + 1}" for i in range(n - 1))
        chains.append(tmp_path / f"chain{n}.ir")
        chains[-1].write_text(f"top func @f(%a: i32) -> i32 {{\n{blocks}\n"
                              f"block b{n - 1}:\n  ret i32 %a\n}}\n")
    big, smaller = map(str, chains)
    assert main(["hged", big, smaller, "--mode", "exact"]) == 1
    assert "--mode beam:N" in capsys.readouterr().err
    assert main(["hged", big, smaller, "--mode", "beam:4"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] > 0.0
    design = str(workdir / "corpus" / "dot_01.ir")
    for mode in ("beam:x", "beam:0", "greedy"):
        assert main(["hged", design, design, "--mode", mode]) == 1
    capsys.readouterr()
    # str.isdigit takes both for digits: int() then raised on the first
    # (exit 2), and the second ran at width 3.
    for mode in ("beam:\u00b2", "beam:\u0663"):
        assert main(["hged", design, design, "--mode", mode]) == 1
        assert capsys.readouterr().err == (
            f"error: bad --mode {mode!r}: use exact or beam:WIDTH\n")
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
    assert "refuses a stage pair of more than 100,000 paths" in text
    assert "block mapping stage 1 returns, not the two-stage optimum" in text


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


@pytest.mark.parametrize("doc,message", [
    ({"iterations": -1}, "iterations must be an int >= 1, not -1"),
    ({"minibatch_size": 2.0}, "minibatch_size must be an int >= 1, not 2.0"),
    ({"episodes_per_iteration": True},
     "episodes_per_iteration must be an int >= 1, not True"),
    ({"hidden": 64}, "hidden must be a pair of ints >= 1, not 64"),
    ({"hidden": [64, 0]}, "hidden must be a pair of ints >= 1, not [64, 0]"),
    ({"lr": 0}, "lr must be a finite number > 0, not 0"),
    ({"clip_eps": float("inf")}, "clip_eps must be a finite number > 0, not inf"),
    ({"gamma": 1.5}, "gamma must be a number in [0, 1], not 1.5"),
    ({"gae_lambda": float("nan")}, "gae_lambda must be a number in [0, 1], not nan"),
    ({"entropy_coef": -0.01},
     "entropy_coef must be a finite number >= 0, not -0.01"),
    ({"value_coef": "0.5"}, "value_coef must be a finite number >= 0, not '0.5'"),
], ids=["count-negative", "count-float", "count-bool", "hidden-int",
        "hidden-zero", "lr-zero", "clip-inf", "gamma-above-one",
        "lambda-nan", "entropy-negative", "value-string"])
def test_bad_ppo_config_values_are_user_errors(stages, tmp_path, capsys, doc,
                                               message):
    """Each exits 1 before training, with one error line and no output."""
    config = tmp_path / "ppo.json"
    config.write_text(json.dumps({**PPO, **doc}))
    out = tmp_path / "p.ckpt"
    assert main(["rl-train", "--corpus", str(stages / "corpus"), "--obs",
                 "histogram", "--out", str(out), "--config", str(config),
                 "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad PPO config {config}: {message}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == [config]


SCALAR_SRC = """
top func @g(%x: i32, %a: i32[2]) -> i32 {
block entry:
  ret i32 %x
}
"""


@pytest.mark.parametrize("src,doc,message", [
    ("case1", [[1, 2]], "expected a list of 3 inputs, one per parameter of "
     "@case1"),
    ("case1", {"a": 1}, "expected a list of 3 inputs, one per parameter of "
     "@case1"),
    ("case1", [[0] * 1482, [0] * 1482, [0] * 3],
     "%acc takes a list of 1482 ints"),
    ("case1", [[0] * 1481 + [1.5], [0] * 1482, [0] * 1482],
     "%a takes a list of 1482 ints"),
    ("scalar", [True, [1, 2]], "%x takes an int, not True"),
    ("scalar", [3.0, [1, 2]], "%x takes an int, not 3.0"),
    ("scalar", [3, 4], "%a takes a list of 2 ints"),
], ids=["wrong-count", "not-a-list", "short-array", "float-in-array",
        "bool-scalar", "float-scalar", "int-for-array"])
def test_bad_interp_inputs_are_user_errors(tmp_path, capsys, src, doc, message):
    """An inputs file that does not match the top signature exits 1 with
    one error line."""
    from passforge.corpus import case1_text
    design = tmp_path / "design.ir"
    design.write_text(case1_text() if src == "case1" else SCALAR_SRC)
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(doc))
    assert main(["interp", str(design), "--inputs", str(inputs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad inputs file {inputs}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["corpus-gen", "--n", "-3"], "--n must be >= 1, not -3"),
    (["dataset-gen", "--corpus", "{corpus}", "--seqs", "-1"],
     "--seqs must be >= 1, not -1"),
    (["dataset-gen", "--corpus", "{corpus}", "--max-len", "0"],
     "--max-len must be >= 1, not 0"),
    (["dataset-gen", "--corpus", "{corpus}", "--intra-cap", "-1"],
     "--intra-cap must be >= 0, not -1"),
    (["dataset-gen", "--corpus", "{corpus}", "--cross-pairs", "-1"],
     "--cross-pairs must be >= 0, not -1"),
    (["search", "--method", "random", "--design", "{design}", "--budget",
      "-2"], "--budget must be >= 1, not -2"),
    (["pretrain", "--corpus", "{ds}", "--epochs", "-1"],
     "--epochs must be >= 1, not -1"),
    (["pretrain", "--corpus", "{ds}", "--patience", "-1"],
     "--patience must be >= 0, not -1"),
    (["pretrain", "--corpus", "{ds}", "--embed-dim", "0"],
     "--embed-dim must be >= 1, not 0"),
    (["pretrain", "--corpus", "{ds}", "--hidden", "0"],
     "--hidden must be >= 1, not 0"),
    (["pretrain", "--corpus", "{ds}", "--hidden", "-1"],
     "--hidden must be >= 1, not -1"),
    (["interp", "{design}", "--fuel", "-5"], "--fuel must be >= 1, not -5"),
    (["rl-train", "--corpus", "{corpus}", "--obs", "zero", "--obs-dim", "0"],
     "--obs-dim must be >= 1, not 0"),
    (["corpus-gen", "--seed", "-1"], "--seed must be >= 0, not -1"),
    (["dataset-gen", "--corpus", "{corpus}", "--seed", "-1"],
     "--seed must be >= 0, not -1"),
    (["pretrain", "--corpus", "{ds}", "--seed", "-1"],
     "--seed must be >= 0, not -1"),
    (["rl-train", "--corpus", "{corpus}", "--obs", "histogram", "--seed",
      "-1"], "--seed must be >= 0, not -1"),
    (["interp", "{design}", "--seed", "-1"], "--seed must be >= 0, not -1"),
    (["search", "--method", "random", "--design", "{design}", "--seed", "-1"],
     "--seed must be >= 0, not -1"),
    (["search", "--method", "genetic", "--design", "{design}", "--seed",
      "-1"], "--seed must be >= 0, not -1"),
], ids=["n", "seqs", "max-len", "intra-cap", "cross-pairs", "budget", "epochs",
        "patience", "embed-dim", "hidden-0", "hidden-negative", "fuel",
        "obs-dim", "seed-corpus-gen", "seed-dataset-gen", "seed-pretrain",
        "seed-rl-train", "seed-interp", "seed-random", "seed-genetic"])
def test_bad_counts_and_sizes_are_user_errors(stages, tmp_path, capsys, argv,
                                              message):
    """Each exits 1 before it runs: no output file, no traceback."""
    out = tmp_path / "out"
    paths = dict(corpus=stages / "corpus", ds=stages / "ds",
                 design=stages / "corpus" / "dot_01.ir")
    argv = [a.format(**paths) for a in argv]
    if argv[0] != "interp":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_interp_of_a_scalar_passed_as_an_array_is_a_user_error(tmp_path,
                                                                capsys):
    """The interpreter once died on it with a TypeError (exit 2)."""
    design = tmp_path / "call.ir"
    design.write_text("""
top func @g(%i: i32) -> i32 {
block entry:
  %r = call i32 @f(%i)
  ret i32 %r
}
func @f(%x: i32[4]) -> i32 {
block entry:
  %p = getelementptr %x, 0
  %v = load i32 %p
  ret i32 %v
}
""")
    assert main(["interp", str(design)]) == 1
    assert "[type] g:entry: call operand %i is i32, expected i32[4]" in \
        capsys.readouterr().err


def test_every_int_option_has_a_floor():
    """An int option below its floor would reach numpy or a loop bound and
    die with a traceback, so every one has a floor in ``_MINIMUMS``."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unchecked = [f"{name} --{a.dest}" for name, p in commands.items()
                 for a in p._actions
                 if a.type is int and a.dest not in _MINIMUMS]
    assert unchecked == []


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
