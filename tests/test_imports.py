"""Every name a lavlab module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "lavlab").glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    """The names the module's imports bind (the first part of a dotted
    `import a.b`), `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(imported_names(tree)) - read) == []
