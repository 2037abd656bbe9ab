"""No handler in the package may catch every exception: a ``PassError`` is a
bug and must propagate.  The CLI's internal-error boundary is the exception.
No process-lifetime cache and no reference cycle keeps a caller's state
alive.  Equality of IR objects compares every field.  No scatter goes
through a ufunc's ``at``.  Nothing is defined that the package never reads,
and no dataclass or named tuple has a field that the package never loads.
Every per-opcode fact lives in the opcode table of ``ir/types.py``, and every
icmp predicate fact in its predicate table.  No enumeration is an
``enum.Enum``."""
import ast
import dataclasses
import enum
import gc
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import passforge
from passforge.agent import (
    Evaluator, PassEnv, PpoConfig, search_genetic, search_greedy,
    search_random, train,
)
from passforge.dataset import dataset_gen
from passforge.embedder import featurize_baseline
from passforge.graphs import HetGraph
from passforge.hged import StageGraph, _Search, _StageView
from passforge.ir import (
    Const, GlobalArray, GlobalRef, IrBlock, IrFunction, IrInstruction,
    IrModule, IrType, LabelRef, Loop, LoopInfo, Opcode, PragmaDirective,
    ValueRef, print_module,
)
from passforge.ir.types import ICMP_PREDICATES

PACKAGE = Path(passforge.__file__).resolve().parent
OPCODE_NAMES = {op.value for op in Opcode}
PREDICATE_NAMES = set(ICMP_PREDICATES)
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


def _names_read(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module):
    """``(label, name, node)`` for each top-level function, class and
    constant, and each method of a top-level class; dunder names, which
    Python reads itself, are left out."""
    for d in tree.body:
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
            yield d.name, d.name, d
        elif isinstance(d, (ast.Assign, ast.AnnAssign)):
            targets = d.targets if isinstance(d, ast.Assign) else [d.target]
            for t in targets:
                for n in t.elts if isinstance(t, ast.Tuple) else [t]:
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id, n.id, d
        if isinstance(d, ast.ClassDef):
            for f in d.body:
                if isinstance(f, ast.FunctionDef) and \
                        not f.name.startswith("__"):
                    yield f"{d.name}.{f.name}", f.name, f


def test_every_top_level_definition_is_read_in_the_package():
    """A function, class, method or constant that only tests, demos or
    ``__all__`` name is code the program does not run."""
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    unread = [f"{rel}:{label}" for rel, tree in trees.items()
              for label, name, node in _definitions(tree)
              if read[name] <= _names_read(node)[name]]
    assert unread == []


#: Dataclasses that ``asdict`` writes out whole: ``QoRReport`` and
#: ``OpCostTable`` through their ``to_dict``, and ``LoopReport`` as the
#: items of ``QoRReport.loops``.
SERIALIZED_WHOLE = {"QoRReport", "OpCostTable", "LoopReport"}


def _dataclass_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """``(class, field)`` for each field of each class that a ``dataclass``
    decorator, under any spelling, turns into a dataclass, and of each
    ``NamedTuple``: a table's column (``OpInfo``'s, say) is such a field."""
    return [(cls.name, a.target.id) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and (any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                 or any(ast.unparse(b).split(".")[-1] == "NamedTuple"
                        for b in cls.bases))
            for a in cls.body if isinstance(a, ast.AnnAssign)
            and isinstance(a.target, ast.Name)
            and "ClassVar" not in ast.unparse(a.annotation)]


def _attributes_loaded(tree: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_dataclass_field_is_read_in_the_package():
    """A field or table column that nothing loads is data written for no
    reader."""
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    loaded = set().union(*map(_attributes_loaded, trees.values()))
    unread = [f"{rel}:{cls}.{name}" for rel, tree in trees.items()
              for cls, name in _dataclass_fields(tree)
              if cls not in SERIALIZED_WHOLE and name not in loaded]
    assert unread == []


def test_dataclass_field_detector_sees_each_spelling():
    source = ("@dataclass\nclass A:\n    x: int\n    k: ClassVar[int] = 0\n"
              "@dataclasses.dataclass(frozen=True)\nclass B(A):\n"
              "    y: int = 0\n    def f(self):\n        return self.y\n"
              "class C:\n    z: int\n"
              "class D(NamedTuple):\n    w: int\n"
              "class E(typing.NamedTuple):\n    v: int = 0\n"
              "class F(tuple):\n    u: int\n")
    assert _dataclass_fields(ast.parse(source)) == [
        ("A", "x"), ("B", "y"), ("D", "w"), ("E", "v")]
    assert _attributes_loaded(ast.parse(
        "a.x = 1\nb.y += 1\ndel c.z\nprint(d.u.v)")) == {"u", "v"}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_stores(node: ast.AST) -> list[str]:
    """Names that ``node``'s body binds, outside nested functions and
    classes; an augmented assignment binds its target without reading it."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            out.append(child.id)
        out += _own_stores(child)
    return out


def _write_only_locals(fn: ast.FunctionDef) -> set[str]:
    """Local names ``fn`` stores and neither it nor a function nested in
    it reads; ``_``-prefixed names and names declared ``nonlocal`` or
    ``global`` anywhere in ``fn`` are left out."""
    read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}
    declared = {name for n in ast.walk(fn)
                if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
    return {name for name in _own_stores(fn)
            if name not in read and name not in declared
            and not name.startswith("_")}


def test_no_function_stores_a_local_it_never_reads():
    """A value computed only to be dropped is work nothing reads."""
    found = sorted(f"{path.relative_to(PACKAGE).as_posix()}:{fn.name}.{name}"
                   for path in PACKAGE.rglob("*.py")
                   for fn in ast.walk(ast.parse(path.read_text()))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for name in _write_only_locals(fn))
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


def _opcode_tables(tree: ast.AST) -> list[ast.AST]:
    """Set, tuple and dict displays holding two or more ``Opcode`` members,
    as elements, keys or values, and dict displays keyed by two or more
    opcode names."""
    def members(nodes) -> int:
        return sum(isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                   and n.value.id == "Opcode" for n in nodes)

    def names(nodes) -> int:
        return sum(isinstance(n, ast.Constant) and n.value in OPCODE_NAMES
                   for n in nodes)

    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Set, ast.Tuple))
            and members(node.elts) >= 2
            or isinstance(node, ast.Dict)
            and (members([*node.keys, *node.values]) >= 2
                 or names(node.keys) >= 2)]


def test_no_opcode_table_outside_the_opcode_table():
    """A per-opcode fact is a column of ``ir.types.OPCODES``; a set, tuple
    or map of opcodes anywhere else would be a second definition of it."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel != "ir/types.py":
            found += [f"{rel}:{node.lineno}"
                      for node in _opcode_tables(ast.parse(path.read_text()))]
    assert found == []


def test_opcode_table_detector_sees_each_spelling():
    sources = ["S = {Opcode.ADD, Opcode.MUL}",
               "A = {Opcode.ADD: 2, Opcode.SELECT: 3}",
               "P = {'add': Opcode.ADD, 'sub': Opcode.SUB}",
               "U = PURE | {Opcode.SDIV, Opcode.SREM}",
               "T = (Opcode.BR, Opcode.RET)",
               "if op in (Opcode.ADD, Opcode.MUL):\n    pass",
               "L = {'add': 1, 'mul': 3, 'x': 0}",
               "_BR, _RET = Opcode.BR, Opcode.RET"]
    assert [len(_opcode_tables(ast.parse(s))) for s in sources] == [1] * 8
    assert _opcode_tables(ast.parse(
        "S = {Opcode.ADD}\nif op in (Opcode.ADD, x):\n    pass\n"
        "K = {'add': 1, 'x': 2}\nV = {'a': 'add', 'b': 'mul'}\n"
        "C = {op: row.cls for op, row in OPCODES.items()}")) == []


def _predicate_tables(tree: ast.AST) -> list[ast.AST]:
    """Dict displays and ``dict(...)`` calls keyed by three or more icmp
    predicate names."""
    def names(keys) -> int:
        return sum(isinstance(k, ast.Constant) and k.value in PREDICATE_NAMES
                   for k in keys)

    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Dict) and names(node.keys) >= 3
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and names(
                ast.Constant(k.arg) for k in node.keywords) >= 3]


def test_no_predicate_table_outside_the_predicate_table():
    """An icmp predicate's test, negation and swap are a row of
    ``ir.types.PREDICATES``; a map keyed by predicates anywhere else would
    be a second definition of one of them."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel != "ir/types.py":
            found += [f"{rel}:{node.lineno}" for node
                      in _predicate_tables(ast.parse(path.read_text()))]
    assert found == []


def test_predicate_table_detector_sees_each_spelling():
    sources = ["S = {'eq': 'eq', 'ne': 'ne', 'slt': 'sgt', 'sgt': 'slt'}",
               "def f(p):\n    return {'eq': 'ne', 'ne': 'eq', 'slt': 'sge'}[p]",
               "T = {'sle': operator.le, 'x': 1, 'sgt': operator.gt, 'sge': 0}",
               "D = dict(eq=1, ne=2, slt=3)"]
    assert [len(_predicate_tables(ast.parse(s))) for s in sources] == [1] * 4
    assert _predicate_tables(ast.parse(
        "P = ('eq', 'ne', 'slt')\nif pred in ('eq', 'ne'):\n    pass\n"
        "K = {'eq': 1, 'ne': 2, 'x': 3}\nV = {'a': 'eq', 'b': 'ne', 'c': 'slt'}\n"
        "C = dict(eq=1, ne=2)\nR = {**PREDICATES, 'eq': 0}")) == []


def _enum_imports(tree: ast.AST) -> list[ast.AST]:
    """Imports of the standard ``enum`` module, under any spelling."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name == "enum" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "enum"]


def test_no_stdlib_enum():
    """Every enumeration has ``ir.types.PlainEnum`` for its base: on the
    ``enum.Enum`` class a member read, ``.value`` and ``hash`` run Python
    code, and the passes, verifier, printer and cost model do all three in
    their inner loops."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        found += [f"{rel}:{node.lineno}"
                  for node in _enum_imports(ast.parse(path.read_text()))]
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(("passforge", *parts)))
        found += [f"{rel}:{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and issubclass(obj, enum.Enum)
                  and obj.__module__ == module.__name__]
    assert found == []


def test_enum_import_detector_sees_each_spelling():
    sources = ["import enum", "import enum as e", "import os, enum",
               "from enum import Enum", "from enum import IntEnum, auto"]
    assert [len(_enum_imports(ast.parse(s))) for s in sources] == [1] * 5
    assert _enum_imports(ast.parse(
        "from .ir.types import PlainEnum\nimport enumerate\n"
        "from passforge import enum_table\nx = enumerate(y)")) == []


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
        search_random(case2, 8, 0)
        search_greedy(case2)
        search_genetic(case2)
        dataset_gen([(name, print_module(m)) for name, m in designs], 3, 3,
                    seed=0, intra_pair_cap=2, cross_pairs=2)
        found = _unreachable((PassEnv, Evaluator, IrModule, IrFunction,
                              IrBlock, IrInstruction, Loop, HetGraph,
                              StageGraph, _StageView, _Search))
    finally:
        gc.enable()
    assert found == []
