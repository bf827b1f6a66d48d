"""Every name a `waveform_lab` module imports is used in that module,
every function and class it defines is used somewhere in the package, and
no module builds array strides by hand."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "waveform_lab"


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, at any depth; `import a.b` binds `a`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


# `__init__.py` is left out: its imports are the package's public re-exports.
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _references(node: ast.AST) -> Counter:
    """How often each name is read below `node`, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_the_package_never_uses(path):
    package = sum((_references(ast.parse(p.read_text(encoding="utf-8")))
                   for p in PACKAGE.glob("*.py")), Counter())
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    # A definition's reads of its own name (recursion) do not count as a use.
    assert [d.name for d in defs if package[d.name] == _references(d)[d.name]] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_builds_no_strides_by_hand(path):
    # Windows over a stream are `sliding_window_view`s or reshapes, whose
    # bounds numpy checks; only the test oracles may call `as_strided`.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set(_references(tree)) | {a.name for node in ast.walk(tree)
                                      if isinstance(node, (ast.Import, ast.ImportFrom))
                                      for a in node.names}
    assert "as_strided" not in names
