"""passforge command-line interface.

Subcommands: parse, verify, graph, run, estimate, interp, hged, corpus-gen,
dataset-gen, pretrain, rl-train, search, report, catalog.  Each takes only the
shared options (--seed, --costs, --json, --quiet) its handler reads; --seed
goes to interp, corpus-gen, dataset-gen, pretrain and rl-train, and fixes
their outputs byte for byte.  The shared --costs is a QoR cost table; hged
has its own --costs, which reads edit costs.  search rejects an option its
--method does not read: --seed is for random and genetic, --budget for
random, and --policy and --embed for rl.

The generative stages (corpus-gen, dataset-gen, pretrain, rl-train) stamp
their primary output with a digest of the version and every option but
--quiet, where an option naming an input file or directory counts by the
bytes it holds (stamps and the stage's own outputs excluded), not by its
path.  Re-running a stage whose stamp matches is a no-op.

Exit codes: 0 ok, 1 user error (bad input, an option out of range, failed
verification), 2 internal error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .corpus import corpus_gen, random_inputs
from .dataset import dataset_gen, load_dataset, parse_pairs, save_dataset
from .graphs import build_het_graph, to_dot, to_json
from .hged import (
    DEFAULT_BEAM_WIDTH, EXACT_PATH_LIMIT, EditCostModel, SizeError, hged,
)
from .ir import (
    FuelExhausted, InstrClass, IrSyntaxError, TrapError, VerifyError,
    check_inputs, interpret, parse_module, print_module, verify_module,
)
from .passes import (
    PassError, PassId, PragmaError, apply_pragma_passes, apply_sequence,
    pass_catalog,
)
from .passes.rewrite import block_count, instruction_count
from .qor import EstimateError, OpCostTable, dynamic_cycle_oracle, estimate
from .reporting import RECORD_TYPES, content_digest, report


class UserError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise UserError(f"cannot read {path}: {e}")


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _parse(path: str, text: str, verify: bool = True):
    """The module ``text``, read from ``path``, holds."""
    try:
        return parse_module(text, verify=verify)
    except (IrSyntaxError, VerifyError) as e:
        raise UserError(f"{path}: {e}")


def _read_module(path: str, verify: bool = True):
    return _parse(path, _read_text(path), verify)


def _read_graph(path: str, fn: str | None):
    """The program graph of function ``fn`` (default: top) of a module."""
    m = _read_module(path)
    names = [f.name for f in m.functions]
    if fn is not None and fn not in names:
        raise UserError(f"{path}: no function {fn!r}; it has "
                        f"{', '.join(names)}")
    return build_het_graph(m, fn)


def _load_json(path: str, what: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise UserError(f"bad {what} {path}: {e}")


def _load_costs(path: str | None) -> OpCostTable:
    if path is None:
        return OpCostTable()
    try:
        return OpCostTable.from_dict(_load_json(path, "cost table"))
    except ValueError as e:
        raise UserError(f"bad cost table {path}: {e}")


def _load_checkpoint(path: str, kind: str) -> tuple[dict, dict, dict]:
    """(params, config, extra) of a 'policy' or 'embedder' checkpoint."""
    from .embedder import load_checkpoint
    try:
        params, config, doc = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as e:
        raise UserError(f"bad checkpoint {path}: {e}")
    found = config.get("kind", "embedder")
    if found != kind:
        raise UserError(f"{path} holds a {found!r} checkpoint, "
                        f"expected {kind!r}")
    return params, config, doc.get("extra", {})


def _say(args, *message):
    if not args.quiet:
        print(*message)


def _up_to_date(args, primary_out: str, digest: str, extra_outputs=()) -> bool:
    stamp = primary_out + ".stamp"
    outputs = [primary_out, *extra_outputs]
    if os.path.exists(stamp) and all(os.path.exists(o) for o in outputs):
        with open(stamp) as f:
            if f.read().strip() == digest:
                _say(args, f"{primary_out}: up to date (digest {digest})")
                return True
    return False


def _write_stamp(primary_out: str, digest: str) -> None:
    _write(primary_out + ".stamp", digest + "\n")


def _contents_digest(path: str, skip: list[str]) -> str:
    """Digest of a file's bytes, or of a directory's file names and bytes
    but for stamps and the files at or under a `skip` path."""
    if not os.path.isdir(path):
        return content_digest(path)
    items: list = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            if not name.endswith(".stamp") and not any(
                    full == p or full.startswith(p + os.sep) for p in skip):
                items += [os.path.relpath(full, path).encode() + b"\x00", full]
    return content_digest(*items)


def _stage_digest(args, inputs=(), outputs=("out",)) -> str:
    """Stamp key of a generative stage: the version and every parsed option
    but --quiet, with the options named in `inputs` (input files or
    directories) standing for the bytes they hold instead of their path.
    The stage's own `outputs` never count as input bytes, so a stage may
    write into its input directory and still be up to date on a re-run."""
    h = hashlib.sha256(__version__.encode())
    skip = [os.path.abspath(getattr(args, o)) for o in outputs if getattr(args, o)]
    for name, value in sorted(vars(args).items()):
        if name in ("quiet", "handler"):
            continue
        if name in inputs and value is not None:
            try:
                value = _contents_digest(os.path.abspath(value), skip)
            except OSError as e:
                raise UserError(f"cannot read {value}: {e}")
        h.update(f"\x00{name}={value}".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Simple IR-level commands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    m = _read_module(args.file)
    text = print_module(m)
    if args.emit:
        _write(args.emit, text)
        _say(args, f"wrote {args.emit}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    violations = verify_module(_read_module(args.file, verify=False))
    if not violations:
        _say(args, "ok")
        return 0
    for v in violations:
        print(str(v), file=sys.stderr)
    return 1


def cmd_graph(args) -> int:
    g = _read_graph(args.file, args.fn)
    if args.dot:
        _write(args.dot, to_dot(g))
        _say(args, f"wrote {args.dot}")
    if args.json_out:
        _write(args.json_out, to_json(g) + "\n")
        _say(args, f"wrote {args.json_out}")
    if args.json or (not args.dot and not args.json_out):
        print(to_json(g))
    return 0


def cmd_run(args) -> int:
    m = _read_module(args.file)
    try:
        seq = [PassId(name.strip()) for name in args.passes.split(",") if name.strip()]
    except ValueError as e:
        raise UserError(f"unknown pass: {e}")
    try:
        out, results = apply_sequence(m, seq)
    except PragmaError as e:
        raise UserError(f"{args.file}: {e}")
    except PassError as e:
        print(f"pass failure: {e}", file=sys.stderr)
        return 2
    if args.emit:
        _write(args.emit, print_module(out))
        _say(args, f"wrote {args.emit}")
    else:
        sys.stdout.write(print_module(out))
    if args.stats:
        stats = []
        for before, r in zip([m, *(s.module for s in results)], results):
            n_in = instruction_count(before)
            n_out = instruction_count(r.module)
            stats.append({"pass": r.pass_id.value, "changed": r.changed,
                          "instructions_removed": max(0, n_in - n_out),
                          "instructions_added": max(0, n_out - n_in),
                          "blocks_removed": max(0, block_count(before)
                                                - block_count(r.module))})
        _write(args.stats, _json_text(stats))
    return 0


def cmd_estimate(args) -> int:
    m = _read_module(args.file)
    costs = _load_costs(args.costs)
    try:
        if not args.raw:
            m = apply_pragma_passes(m)
        rep = estimate(m, costs)
    except (PragmaError, EstimateError) as e:
        raise UserError(f"{args.file}: {e}")
    doc = rep.to_dict()
    if args.json_out:
        _write(args.json_out, _json_text(doc))
        _say(args, f"wrote {args.json_out}")
    if args.json or not args.json_out:
        print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_interp(args) -> int:
    m = _read_module(args.file)
    if args.inputs:
        inputs = _load_json(args.inputs, "inputs file")
        try:
            check_inputs(m, inputs)
        except ValueError as e:
            raise UserError(f"bad inputs file {args.inputs}: {e}")
    else:
        inputs = random_inputs(m, np.random.default_rng(args.seed))
    try:
        res = interpret(m, inputs, fuel=args.fuel)
    except (TrapError, FuelExhausted) as e:
        raise UserError(f"execution failed: {e}")
    doc = {"return_value": res.return_value,
           "memory_digest": res.memory_digest,
           "executed_instructions": res.executed_instructions,
           "dynamic_op_counts": res.dynamic_op_counts}
    if args.oracle:
        doc["dynamic_cycles"] = dynamic_cycle_oracle(
            m, inputs, _load_costs(args.costs), fuel=args.fuel)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_hged(args) -> int:
    g1 = _read_graph(args.file_a, args.fn)
    g2 = _read_graph(args.file_b, args.fn)
    width = {"exact": None, "beam": DEFAULT_BEAM_WIDTH}.get(args.mode, 0)
    if args.mode.startswith("beam:"):
        digits = args.mode[len("beam:"):]
        width = int(digits) if digits.isascii() and digits.isdigit() else 0
    if width == 0:
        raise UserError(f"bad --mode {args.mode!r}: use exact or beam:WIDTH")
    costs = EditCostModel()
    if args.costs:
        try:
            costs = EditCostModel.from_dict(_load_json(args.costs,
                                                       "edit costs"))
        except ValueError as e:
            raise UserError(f"bad edit costs {args.costs}: {e}")
    try:
        result = hged(g1, g2, costs, width)
    except SizeError as e:
        raise UserError(f"{e}; use --mode beam:N for graphs this large")
    doc = {"stage1_cost": result.stage1_cost, "stage2_cost": result.stage2_cost,
           "total": result.total, "normalized": result.normalized,
           "exact": result.exact,
           "block_mapping": {str(k): v for k, v in
                             sorted(result.block_mapping.items())}}
    print(json.dumps(doc, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Generative stages
# ---------------------------------------------------------------------------

def cmd_corpus_gen(args) -> int:
    digest = _stage_digest(args)
    manifest_path = os.path.join(args.out, "manifest.json")
    if _up_to_date(args, manifest_path, digest):
        return 0
    os.makedirs(args.out, exist_ok=True)
    designs = corpus_gen(args.n, args.seed)
    index = []
    for name, text in designs:
        _write(os.path.join(args.out, name + ".ir"), text)
        index.append({"name": name, "file": name + ".ir",
                      "digest": parse_module(text).digest()})
    _write(manifest_path,
           _json_text({"seed": args.seed, "n": args.n, "designs": index}))
    _write_stamp(manifest_path, digest)
    _say(args, f"wrote {len(designs)} designs to {args.out}")
    return 0


def _load_corpus_dir(path: str) -> list[tuple[str, str, str]]:
    """(name, file, text) of each design of a corpus directory: those its
    manifest lists, or else its .ir files."""
    manifest = os.path.join(path, "manifest.json")
    if os.path.exists(manifest):
        doc = _load_json(manifest, "manifest")
        try:
            files = [(rec["name"], os.path.join(path, rec["file"]))
                     for rec in doc["designs"]]
        except (KeyError, TypeError):
            raise UserError(f"bad manifest {manifest}: expected a \"designs\" "
                            f"list of records with a name and a file")
    elif os.path.isdir(path):
        files = [(f[:-3], os.path.join(path, f))
                 for f in sorted(os.listdir(path)) if f.endswith(".ir")]
    else:
        raise UserError(f"{path} is not a corpus directory")
    if not files:
        raise UserError(f"no .ir designs found in {path}")
    return [(name, file, _read_text(file)) for name, file in files]


def cmd_dataset_gen(args) -> int:
    digest = _stage_digest(args, inputs=("corpus",))
    pairs_path = os.path.join(args.out, "pairs.json")
    if _up_to_date(args, pairs_path, digest):
        return 0
    designs = []
    for name, file, text in _load_corpus_dir(args.corpus):
        _parse(file, text)      # names the file on an error; dataset_gen would not
        designs.append((name, text))
    log = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet else None
    ds = dataset_gen(designs, args.seqs, args.max_len, args.seed,
                     intra_pair_cap=args.intra_cap,
                     cross_pairs=args.cross_pairs, log_fn=log)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(ds, args.out)
    _write_stamp(pairs_path, digest)
    _say(args, f"dataset: {len(ds.variants)} variants, {len(ds.pairs)} pairs "
               f"({ds.meta.get('skipped', 0)} skipped sequences)")
    return 0


def cmd_pretrain(args) -> int:
    from .embedder import (
        DEFAULT_RELATIONS, PretrainConfig, RgcnConfig, pretrain,
        save_checkpoint,
    )
    from .graphs import homogenize

    digest = _stage_digest(args, inputs=("corpus", "pairs"))
    if _up_to_date(args, args.out, digest):
        return 0
    try:
        ds = load_dataset(args.corpus)
    except (OSError, ValueError, KeyError, IrSyntaxError, VerifyError) as e:
        raise UserError(f"bad dataset {args.corpus}: {e}")
    if args.pairs:
        doc = _load_json(args.pairs, "pairs file")
        try:
            ds.pairs = parse_pairs(doc["pairs"], len(ds.variants))
        except (KeyError, TypeError, ValueError) as e:
            raise UserError(f"bad pairs file {args.pairs}: {e}")
    if not any(p.split == "train" for p in ds.pairs):
        raise UserError(f"no training pairs in {args.pairs or args.corpus}")
    graphs = ds.graphs()
    if args.homogenize:
        graphs = [homogenize(g) for g in graphs]
        relations = ("data:fwd", "data:rev")
    else:
        relations = DEFAULT_RELATIONS
    model_cfg = RgcnConfig(hidden_dim=args.hidden, embed_dim=args.embed_dim,
                           relations=relations)
    train_cfg = PretrainConfig(seed=args.seed, max_epochs=args.epochs,
                               patience=args.patience)
    log = None
    if not args.quiet:
        log = lambda e: print(f"epoch {e.epoch}: train {e.train_loss:.5f} "
                              f"val {e.val_loss:.5f}", file=sys.stderr)
    params, history = pretrain(graphs, ds.pairs, model_cfg, train_cfg, log_fn=log)
    save_checkpoint(args.out, params, model_cfg.to_dict(), args.seed,
                    extra={"epochs_run": len(history),
                           "final_val": history[-1].val_loss if history else None,
                           "homogenized": bool(args.homogenize)})
    _write_stamp(args.out, digest)
    _say(args, f"wrote {args.out} ({len(history)} epochs)")
    return 0


def _obs_fn(obs: str, obs_dim: int, embed: str | None):
    """(observation function, its dimension) for an observation mode; an
    rgcn observation takes its dimension from the embedder checkpoint, and
    homogenizes each graph when the embedder was pretrained on homogenized
    graphs."""
    from .embedder import RgcnConfig, embed as embed_fn, featurize_baseline
    from .graphs import homogenize

    if obs == "rgcn":
        if not embed:
            raise UserError("an rgcn observation requires --embed CKPT")
        params, cfg_doc, extra = _load_checkpoint(embed, "embedder")
        cfg = RgcnConfig.from_dict(cfg_doc)
        if extra.get("homogenized"):
            return (lambda g: embed_fn(homogenize(g), params, cfg)), cfg.embed_dim
        return (lambda g: embed_fn(g, params, cfg)), cfg.embed_dim
    mode = {"histogram": "opcode_histogram", "zero": "all_zero"}[obs]
    return (lambda g: featurize_baseline(g, mode, obs_dim)), obs_dim


def cmd_rl_train(args) -> int:
    from .agent import N_ACTIONS, PpoConfig, train
    from .embedder import save_checkpoint

    if args.obs != "rgcn" and args.obs_dim < len(InstrClass):
        raise UserError(f"--obs {args.obs} needs --obs-dim >= "
                        f"{len(InstrClass)}, one per instruction class")
    digest = _stage_digest(args, inputs=("corpus", "embed", "config", "costs"),
                           outputs=("out", "log"))
    if _up_to_date(args, args.out, digest, extra_outputs=[args.log] if args.log else ()):
        return 0
    ppo_doc = _load_json(args.config, "PPO config") if args.config else {}
    try:
        config = PpoConfig(seed=args.seed, **ppo_doc)
    except (TypeError, ValueError) as e:
        raise UserError(f"bad PPO config {args.config}: {e}")
    designs = []
    for name, file, text in _load_corpus_dir(args.corpus):
        m = _parse(file, text)
        try:
            apply_pragma_passes(m)     # names the file on an error; train would not
        except PragmaError as e:
            raise UserError(f"{file}: {e}")
        designs.append((name, m))
    obs_fn, obs_dim = _obs_fn(args.obs, args.obs_dim, args.embed)
    log = None
    if not args.quiet:
        log = lambda p: print(f"iter {p.iteration}: return {p.mean_return:.4f} "
                              f"ratio {p.mean_cycles_ratio:.4f}", file=sys.stderr)
    params, curve = train(designs, obs_fn, config, args.seed, obs_dim,
                          costs=_load_costs(args.costs), log_fn=log)
    save_checkpoint(args.out, params,
                    {"kind": "policy", "obs_dim": obs_dim,
                     "n_actions": N_ACTIONS, "obs": args.obs,
                     "ppo": {"hidden": list(config.hidden)}},
                    args.seed)
    if args.log:
        _write(args.log, "iteration,mean_return,mean_cycles_ratio\n" + "".join(
            f"{p.iteration},{p.mean_return:.6f},{p.mean_cycles_ratio:.6f}\n"
            for p in curve))
    _write_stamp(args.out, digest)
    _say(args, f"wrote {args.out}")
    return 0


#: The ``search`` options only some methods read, with those methods.
_METHOD_OPTIONS = {"policy": ("rl",), "embed": ("rl",), "budget": ("random",),
                   "seed": ("random", "genetic")}


def cmd_search(args) -> int:
    from .agent import infer, search_genetic, search_greedy, search_random

    unread = [f"--{opt}" for opt, methods in _METHOD_OPTIONS.items()
              if getattr(args, opt) is not None and args.method not in methods]
    if unread:
        raise UserError(f"--method {args.method} does not read "
                        f"{', '.join(unread)}")
    m = _read_module(args.design)
    costs = _load_costs(args.costs)
    t0 = time.time()
    result = {"design": os.path.splitext(os.path.basename(args.design))[0]}
    if args.method == "rl":
        if not args.policy:
            raise UserError("--method rl requires --policy CKPT")
        policy, cfg, _ = _load_checkpoint(args.policy, "policy")
        obs_fn, obs_dim = _obs_fn(cfg["obs"], cfg["obs_dim"], args.embed)
        if obs_dim != cfg["obs_dim"]:
            raise UserError(f"{args.embed} embeds into {obs_dim} dimensions; "
                            f"the policy observes {cfg['obs_dim']}")
        try:
            seq, cycles, best_idx = infer(m, policy, obs_fn, costs)
        except PragmaError as e:
            raise UserError(f"{args.design}: {e}")
        # One evaluation per priced step of the episode.
        result.update(method="rl", sequence=[p.value for p in seq],
                      cycles=cycles[best_idx], baseline_cycles=cycles[0],
                      evaluations=len(cycles) - 1, trace=cycles)
    else:
        seed = 0 if args.seed is None else args.seed
        budget = 64 if args.budget is None else args.budget
        search = {
            "random": lambda: search_random(m, budget, seed, costs=costs),
            "greedy": lambda: search_greedy(m, costs=costs),
            "genetic": lambda: search_genetic(m, seed=seed, costs=costs),
        }[args.method]
        try:
            sr = search()
        except PragmaError as e:
            raise UserError(f"{args.design}: {e}")
        result.update(method=sr.method,
                      sequence=[p.value for p in sr.sequence],
                      cycles=sr.cycles, baseline_cycles=sr.baseline_cycles,
                      evaluations=sr.evaluations)
        if args.method in _METHOD_OPTIONS["seed"]:
            result["seed"] = seed
    if args.out:
        _write(args.out, _json_text(result))
    print(json.dumps({**result, "wall_time_s": round(time.time() - t0, 3)},
                     sort_keys=True))
    return 0


def _read_records(path: str) -> list[dict]:
    """The search records in a results file: one record, or a list of them."""
    doc = _load_json(path, "results file")
    records = doc if isinstance(doc, list) else [doc]
    if not all(isinstance(r, dict) for r in records):
        raise UserError(f"{path}: expected a search record or a list of them")
    for i, rec in enumerate(records):
        bad = [k for k, t in RECORD_TYPES.items()
               if not isinstance(rec.get(k), t)]
        if not isinstance(rec.get("seed", 0), int):
            bad.append("seed")
        if bad:
            raise UserError(f"{path}: record {i}: missing or malformed "
                            f"{', '.join(bad)}")
    return records


def cmd_report(args) -> int:
    csv_text, summary = report([rec for path in args.results
                                for rec in _read_records(path)])
    if args.out_csv:
        _write(args.out_csv, csv_text)
        _say(args, f"wrote {args.out_csv}")
    else:
        sys.stdout.write(csv_text)
    if not args.quiet:
        print(summary)
    return 0


def cmd_catalog(args) -> int:
    rows = [{"index": i, "pass": e.pass_id.value, "category": e.category,
             "pragma_anchored": e.pragma_anchored, "description": e.description}
            for i, e in enumerate(pass_catalog())]
    print(json.dumps(rows, indent=1, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

#: Options several subcommands share; each subcommand takes only those its
#: handler reads.
_SHARED = {
    "seed": dict(type=int, default=0),
    "costs": dict(default=None, help="cost-table JSON overriding the defaults"),
    "json": dict(action="store_true", help="prefer JSON on stdout"),
    "quiet": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passforge",
        description="Structure-aware compiler pass ordering on a mini SSA IR.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *shared):
        p = subs.add_parser(name, help=help)
        for opt in shared:
            p.add_argument("--" + opt, **_SHARED[opt])
        p.set_defaults(handler=handler)
        return p

    p = command("parse", cmd_parse, "parse, verify, and reprint", "quiet")
    p.add_argument("file")
    p.add_argument("--emit")

    p = command("verify", cmd_verify, "report structural violations", "quiet")
    p.add_argument("file")

    p = command("graph", cmd_graph, "emit the heterogeneous graph",
                "json", "quiet")
    p.add_argument("file")
    p.add_argument("--fn", default=None,
                   help="function to graph (default: top)")
    p.add_argument("--dot")
    p.add_argument("--json-out", dest="json_out")

    p = command("run", cmd_run, "apply a pass sequence", "quiet")
    p.add_argument("file")
    p.add_argument("-p", "--passes", required=True,
                   help='comma-separated, e.g. "sccp,simplifycfg,adce"')
    p.add_argument("--emit")
    p.add_argument("--stats")

    p = command("estimate", cmd_estimate, "latency estimate",
                "costs", "json", "quiet")
    p.add_argument("file")
    p.add_argument("--raw", action="store_true",
                   help="skip pragma expansion before estimating")
    p.add_argument("--json-out", dest="json_out")

    p = command("interp", cmd_interp, "run the reference interpreter",
                "seed", "costs")
    p.add_argument("file")
    p.add_argument("--inputs", help="JSON list matching the top signature")
    p.add_argument("--fuel", type=int, default=10**8)
    p.add_argument("--oracle", action="store_true",
                   help="also report latency-weighted dynamic cycles")

    p = command("hged", cmd_hged, "heterogeneous graph edit distance")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--fn", default=None,
                   help="function compared in both files (default: top)")
    p.add_argument("--costs", default=None,
                   help="edit-cost JSON (EditCostModel fields) overriding "
                        "the unit defaults")
    p.add_argument("--mode", default="beam:32", help="exact | beam:WIDTH; exact "
                   "searches every edit path of each stage, so the total is the "
                   "cheapest stage 2 under the block mapping stage 1 returns, "
                   "not the two-stage optimum, and refuses a stage pair of more "
                   f"than {EXACT_PATH_LIMIT:,} paths")

    p = command("corpus-gen", cmd_corpus_gen, "generate synthetic kernels",
                "seed", "quiet")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=24)

    p = command("dataset-gen", cmd_dataset_gen,
                "pass-sequence variants + pair labels", "seed", "quiet")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seqs", type=int, default=20)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--intra-cap", type=int, default=40)
    p.add_argument("--cross-pairs", type=int, default=300)

    p = command("pretrain", cmd_pretrain,
                "siamese embedder regression onto HGED labels", "seed", "quiet")
    p.add_argument("--corpus", required=True,
                   help="dataset directory from dataset-gen")
    p.add_argument("--pairs", default=None,
                   help="pairs file (default: <corpus>/pairs.json)")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--patience", type=int, default=15)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--homogenize", action="store_true",
                   help="single-relation ablation model")

    p = command("rl-train", cmd_rl_train, "train the PPO policy",
                "seed", "costs", "quiet")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embed", default=None)
    p.add_argument("--obs", default="rgcn", choices=["rgcn", "histogram", "zero"])
    p.add_argument("--obs-dim", type=int, default=32)
    p.add_argument("--config", default=None, help="PPO config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="reward curve CSV")

    p = command("search", cmd_search, "search for a pass sequence", "costs")
    p.add_argument("--method", required=True,
                   choices=["rl", "greedy", "genetic", "random"])
    p.add_argument("--design", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="random and genetic only (default 0)")
    p.add_argument("--budget", type=int, default=None,
                   help="random only: sequences to try (default 64)")
    p.add_argument("--policy", default=None,
                   help="rl only: rl-train checkpoint; its observation mode "
                        "applies")
    p.add_argument("--embed", default=None,
                   help="rl only: embedder checkpoint for an rgcn policy")
    p.add_argument("--out", default=None)

    p = command("report", cmd_report, "tabulate method results", "quiet")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--out-csv")

    command("catalog", cmd_catalog, "list the pass catalog")
    return parser


#: The least value of each count or size option, whichever subcommand
#: takes it.
_MINIMUMS = {"n": 1, "seqs": 1, "max_len": 1, "intra_cap": 0, "cross_pairs": 0,
             "epochs": 1, "patience": 0, "hidden": 1, "embed_dim": 1,
             "obs_dim": 1, "fuel": 1, "budget": 1, "seed": 0}


def _check_minimums(args) -> None:
    for name, least in _MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise UserError(f"--{name.replace('_', '-')} must be >= {least}, "
                            f"not {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_minimums(args)
        return args.handler(args)
    except UserError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - internal error boundary
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
