"""Every name a lavlab module imports is read somewhere in that module, and
every call the README's module table cites names real code."""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

import lavlab

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "lavlab").glob("*.py") if p.name != "__init__.py")


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


def module_table_calls():
    """(module, dotted name) for each backticked call, `name(...)` or
    `a.b(...)`, in the `| `lavlab.X` |` rows of README.md."""
    for line in (ROOT / "README.md").read_text().splitlines():
        row = re.match(r"\| `(lavlab\.\w+)` \|", line)
        if row:
            for name in re.findall(r"`([A-Za-z_][\w.]*)\(", line):
                yield row.group(1), name


def resolves(obj, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split("."), obj)
    except AttributeError:
        return False
    return True


def test_readme_module_table_cites_only_real_calls():
    calls = list(module_table_calls())
    assert calls
    missing = [(module, name) for module, name in calls
               if not (resolves(importlib.import_module(module), name) or resolves(lavlab, name))]
    assert missing == []
