"""No handler in the package may catch every exception: a ``PassError`` is a
bug and must propagate.  The CLI's internal-error boundary is the exception."""
import ast
from pathlib import Path

import passforge

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
