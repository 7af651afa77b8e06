"""Static checks of the names in src/limpoly, read with the stdlib ast alone.

- No module imports a name it never uses (an import line marked `# noqa`
  is exempt, and so is `from __future__ import ...`).  The package's
  `__init__.py` imports names to export them, so it is checked by the
  next two rules instead.
- Every name in a module's `__all__` is bound at the top level of that module.
- Every name a module imports from a sibling module (`from .m import name`),
  which includes every top-level `limpoly` export, is bound at the top
  level of that sibling.

A deletion that leaves an import, an `__all__` entry or an export behind
fails here, before anything imports the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "limpoly"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_name(alias) for alias in node.names)
    return names


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.partition(".")[0]


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[_bound_name(alias)] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_declared_all(tree))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_module_has_an_unused_import(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_is_bound(path):
    tree = _tree(path)
    bound = _top_level_names(tree)
    assert [name for name in _declared_all(tree) if name not in bound] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_sibling_import_resolves(path):
    missing = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            bound = _top_level_names(_tree(PACKAGE / f"{node.module}.py"))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in bound]
    assert missing == []

