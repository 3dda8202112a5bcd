"""Every name a module of the package imports is used in that module."""

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

