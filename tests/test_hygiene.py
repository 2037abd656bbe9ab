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
