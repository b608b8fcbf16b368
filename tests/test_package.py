"""Package hygiene: no unused imports, and __all__ matches the public namespace."""

import ast
import types
from pathlib import Path

import pytest

import srqkd

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "srqkd").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A name listed in __all__ is imported to be re-exported.
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_all_lists_the_public_namespace():
    public = {name for name, value in vars(srqkd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(srqkd.__all__) == sorted(public)
    assert len(srqkd.__all__) == len(set(srqkd.__all__))
