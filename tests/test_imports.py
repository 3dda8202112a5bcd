"""Every name a module of the package imports is used in that module, and
every private name a module defines is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superstrict"

# (module, name) imported for other code to look up there, never used by the module itself.
ALLOWED = {
    ("search", "relation_satisfies"),  # bench/tracing.py wraps it at this call site
}


def unused_imports(source: str) -> set[str]:
    """Names bound by the imports of `source` that nothing in it reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    allowed = {name for m, name in ALLOWED if m == module}
    assert unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) == allowed



def private_definitions(tree: ast.Module) -> set[str]:
    """The private names, `_x` but not dunder, that the top level of a module binds."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_definition_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert set().union(*map(private_definitions, trees)) - read == set()
