"""No handler in the package may catch every exception: a ``PassError`` is a
bug and must propagate.  The CLI's internal-error boundary is the exception.
No process-lifetime cache and no reference cycle keeps a caller's state
alive.  Equality of IR objects compares every field.  No scatter goes
through a ufunc's ``at``."""
import ast
import dataclasses
import gc
import inspect
from pathlib import Path

import pytest

import passforge
from passforge.agent import (
    Evaluator, PassEnv, PpoConfig, search_baseline, train,
)
from passforge.dataset import dataset_gen
from passforge.embedder import featurize_baseline
from passforge.graphs import HetGraph
from passforge.hged import StageGraph, _Search, _StageView
from passforge.ir import (
    Const, GlobalArray, GlobalRef, IrBlock, IrFunction, IrInstruction,
    IrModule, IrType, LabelRef, Loop, LoopInfo, PragmaDirective, ValueRef,
    print_module,
)

PACKAGE = Path(passforge.__file__).resolve().parent
ALLOWED = {("cli.py", "main")}


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(t is None or isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in types)


def test_no_broad_except_outside_cli_boundary():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text())
        allowed = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and (rel, f.name) in ALLOWED]
        found += [f"{rel}:{h.lineno}" for h in ast.walk(tree)
                  if isinstance(h, ast.ExceptHandler) and _catches_everything(h)
                  and not any(a <= h.lineno <= b for a, b in allowed)]
    assert found == []


def _private_imports(tree: ast.AST) -> list[ast.ImportFrom]:
    """``from <passforge module> import _name`` statements, relative or
    absolute; dunder names such as ``__version__`` are public."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "passforge")
            and any(a.name.startswith("_") and not a.name.startswith("__")
                    for a in node.names)]


def test_no_private_name_imported_from_another_module():
    """A leading underscore keeps a name to its own module."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        found += [f"{rel}:{node.lineno}"
                  for node in _private_imports(ast.parse(path.read_text()))]
    assert found == []


#: Everything a module holds.  The pass driver takes a pass whose output
#: equals its input for one that changed nothing, and returns the input
#: without printing or verifying the output: sound only while equality
#: compares every field the printer and the verifier read.
IR_CLASSES = [IrModule, IrFunction, IrBlock, IrInstruction, LoopInfo,
              PragmaDirective, GlobalArray, IrType, ValueRef, Const, GlobalRef,
              LabelRef]


@pytest.mark.parametrize("cls", IR_CLASSES, ids=lambda c: c.__name__)
def test_ir_equality_compares_every_field(cls):
    """Each class keeps the ``__eq__`` its dataclass decorator wrote, and
    that ``__eq__`` leaves no field out."""
    eq = cls.__dict__.get("__eq__")
    assert eq is not None and cls.__dataclass_params__.eq
    assert eq.__code__.co_filename != inspect.getfile(cls)
    assert [f.name for f in dataclasses.fields(cls) if not f.compare] == []


#: ``functools`` caches that live as long as the process.  ``cached_property``
#: is not one: it stores its value on the instance and dies with it.
PROCESS_CACHES = {"cache", "lru_cache"}


def _process_caches(tree: ast.AST) -> list[ast.AST]:
    """Uses of ``functools``' process-lifetime caches, imported by name or
    reached as an attribute of ``functools`` under any alias."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "functools"}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(a.name in PROCESS_CACHES for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
            and isinstance(node.value, ast.Name) and node.value.id in aliases]


def test_no_process_lifetime_cache():
    """A ``functools`` cache is shared by every caller in the process and
    keeps its arguments alive; each cache in the package belongs to a caller
    and dies with it (the search evaluator's memos, ``hged``'s ``memo``)."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        found += [f"{rel}:{node.lineno}"
                  for node in _process_caches(ast.parse(path.read_text()))]
    assert found == []


def test_process_cache_detector_sees_each_spelling():
    sources = ["from functools import lru_cache",
               "import functools\n@functools.cache\ndef f(): pass",
               "import functools as ft\nx = ft.lru_cache(maxsize=8)"]
    assert [len(_process_caches(ast.parse(s))) for s in sources] == [1, 1, 1]
    assert _process_caches(ast.parse(
        "from functools import cached_property, reduce")) == []


def _ufunc_at_uses(tree: ast.AST) -> list[ast.AST]:
    """``<ufunc>.at`` on a ufunc reached through ``numpy`` under any alias
    (``np.add.at``) or imported from it by name (``add.at``)."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "numpy"}
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy"
             for a in node.names}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "at"
            and (isinstance(node.value, ast.Name) and node.value.id in names
                 or isinstance(node.value, ast.Attribute)
                 and isinstance(node.value.value, ast.Name)
                 and node.value.value.id in modules)]


def test_no_ufunc_at_scatter():
    """``np.bincount`` over flat indices adds in the same order as
    ``np.add.at``, so it gives the same bits, about five times faster."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        found += [f"{rel}:{node.lineno}"
                  for node in _ufunc_at_uses(ast.parse(path.read_text()))]
    assert found == []


def test_ufunc_at_detector_sees_each_spelling():
    sources = ["import numpy as np\nnp.add.at(a, i, 1.0)",
               "import numpy\nnumpy.maximum.at(a, i, b)",
               "from numpy import add\nf = add.at"]
    assert [len(_ufunc_at_uses(ast.parse(s))) for s in sources] == [1, 1, 1]
    assert _ufunc_at_uses(ast.parse(
        "import numpy as np\nnp.bincount(i, w)\nx.at(0)")) == []


def _unreachable(kinds: tuple[type, ...]) -> list[str]:
    """Names of the objects of ``kinds`` that only a full collection frees."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = sorted(type(o).__name__ for o in gc.garbage
                       if isinstance(o, kinds))
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
    return found


def test_no_reference_cycle_keeps_environments_alive(small_corpus, case2):
    """Environments, evaluators, modules and the loops found in them die
    with their last reference: a cycle through them (a stored
    ``EstimateError``'s traceback, a recursive closure over a pass's locals,
    a loop's link back to its parent, say) would keep everything they hold
    until a full collection.  So do the graphs, stage views and searches of
    ``dataset_gen``'s labels.  ``case2``'s episodes and searches hit estimate
    errors."""
    designs = small_corpus[:2] + [("case2", case2)]
    config = PpoConfig(iterations=2, episodes_per_iteration=6,
                       max_episode_len=6, minibatch_size=16, seed=0)
    gc.collect()
    gc.disable()
    try:
        train(designs, lambda g: featurize_baseline(g, "opcode_histogram", 16),
              config, seed=0, obs_dim=16)
        for method in ("random", "greedy", "genetic"):
            search_baseline(case2, method, budget=8)
        dataset_gen([(name, print_module(m)) for name, m in designs], 3, 3,
                    seed=0, intra_pair_cap=2, cross_pairs=2)
        found = _unreachable((PassEnv, Evaluator, IrModule, IrFunction,
                              IrBlock, IrInstruction, Loop, HetGraph,
                              StageGraph, _StageView, _Search))
    finally:
        gc.enable()
    assert found == []
