"""Every name a module of the package imports is used in that module, every
private name a module defines is read somewhere in the package, and numpy
is imported at the first search that needs it, past three worlds or past
the int form's budget, not with the package, a search that never leaves
Python ints or the frames of three worlds or fewer."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from superstrict import NAMED_CLASSES, find_countermodel, model_to_json, parse, search

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superstrict"

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


# The functions that may read a relational condition of a `FrameClass`: the
# one statement of the conditions, and the test of which of them let a
# search make idle rows least.
CONDITION_READERS = {("semantics", "relation_satisfies"), ("search", "_idle_least")}


def test_frame_conditions_are_read_in_one_place():
    fields = {"reflexive", "transitive", "serial", "symmetric", "euclidean"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Attribute) and node.attr in fields for node in ast.walk(top)):
                readers.add((path.stem, getattr(top, "name", None)))
    assert readers == CONDITION_READERS


# Commands that never search, then a search to n = 3 on ints, the frames of s3 at n = 3, and a
# search to n = 4; one JSON line on stdout.
LAZY_NUMPY = """
import contextlib, io, json, sys
import superstrict
loaded = {"import superstrict": "numpy" in sys.modules}
import superstrict.cli as cli
loaded["import superstrict.cli"] = "numpy" in sys.modules
model, script, formula, fc = sys.argv[1:]
for argv in (["parse", "--formula", formula], ["parse", "--json", "--formula", formula],
             ["translate", "--to", "box", "--formula", formula],
             ["eval", "--formula", formula, "--model", model, "--world", "0"],
             ["prove", "--system", "lemmon-s2", "--script", script], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded[" ".join(argv[:2])] = code, "numpy" in sys.modules
report = superstrict.find_countermodel(superstrict.parse(formula), superstrict.NAMED_CLASSES[fc], 3)
loaded["search"] = "numpy" in sys.modules
frames = sum(1 for _ in superstrict.enumerate_frames(3, superstrict.NAMED_CLASSES["s3"]))
loaded["enumerate_frames"] = frames, "numpy" in sys.modules
superstrict.find_countermodel(superstrict.parse("p -> p"), superstrict.NAMED_CLASSES["s2_0"], 4)
loaded["search at n = 4"] = "numpy" in sys.modules
print(json.dumps({"loaded": loaded, "report": [report.frame_size, report.world, superstrict.model_to_json(report.model)]}))
"""


def test_numpy_loads_at_the_first_search(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"worlds": 2, "rel": [[1], [1]], "normals": [0], "val": {"p": [1]}}))
    formula, fc = "(p |> q) -> (q |> p)", "s2"
    run = subprocess.run([sys.executable, "-c", LAZY_NUMPY, str(model), str(ROOT / "tests" / "data" / "lemmon_becker.proof"),
                          formula, fc], env={**os.environ, "PYTHONPATH": str(SRC.parent)}, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert out["loaded"] == {"import superstrict": False, "import superstrict.cli": False,
                             "parse --formula": [0, False], "parse --json": [0, False],
                             "translate --to": [0, False], "eval --formula": [0, False],
                             "prove --system": [0, False], "--help": [0, False], "search": False,
                             "enumerate_frames": [232, False], "search at n = 4": True}
    report = find_countermodel(parse(formula), NAMED_CLASSES[fc], 3)
    assert out["report"] == [report.frame_size, report.world, model_to_json(report.model)]


# Command-line calls whose searches stop at n <= 3 within the int budget,
# with whether numpy was loaded after each; one JSON line on stdout.
INT_CALLS = """
import contextlib, io, json, sys
import superstrict.cli as cli
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out.append([code, "numpy" in sys.modules])
print(json.dumps(out))
"""
# (formula, exit status of `countermodel` over s2, s3 and kt), each also run through `valid`
INT_SEARCHES = [
    ("(p |> q) & (q |> r) -> (p |> r)", (1, 1, 1)),  # transitivity of |>: no countermodel to n = 3
    ("box p -> p", (1, 1, 1)),  # axiom T: every class here is reflexive
    ("box p -> box box p", (0, 0, 0)),  # axiom 4: s2 and s3 have non-normal worlds, kt is not transitive
    ("dia (p & q & r) -> box (p | q | r)", (0, 0, 0)),
]


def test_the_default_suite_and_small_searches_never_load_numpy(tmp_path):
    calls = [["suite"], ["suite", "--max-n", "2", "--json", str(tmp_path / "suite.json")]]
    expected = [0, 0]
    for formula, codes in INT_SEARCHES:
        for fc, code in zip(("s2", "s3", "kt"), codes):
            calls += [["countermodel", "--formula", formula, "--class", fc, "--max-n", "3"],
                      ["valid", "--formula", formula, "--class", fc, "--max-n", "3"]]
            expected += [code, 1 - code]
    run = subprocess.run([sys.executable, "-c", INT_CALLS, json.dumps(calls)], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [[code, False] for code in expected]
    assert (tmp_path / "suite.json").read_text(encoding="utf-8") == (ROOT / "tests" / "golden" / "suite_max2.json").read_text(encoding="utf-8")


# The modules loaded by `import superstrict`, then by reading one name, then
# by importing the search; one JSON line, `json` imported only to write it.
LAZY_PACKAGE = """
import sys
import superstrict
loaded = {"import superstrict": sorted(sys.modules)}
superstrict.parse
loaded["superstrict.parse"] = sorted(sys.modules)
import superstrict.search
loaded["import superstrict.search"] = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""


def test_the_package_loads_no_submodule_until_a_name_is_read(tmp_path):
    run = subprocess.run([sys.executable, "-c", LAZY_PACKAGE], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    heavy = {f"superstrict.{m}" for m in ("syntax", "semantics", "search", "proof", "catalog", "cli")}
    assert sorted((heavy | {"dataclasses", "numpy"}) & set(out["import superstrict"])) == []
    assert [m for m in out["superstrict.parse"] if m.startswith("superstrict")] == ["superstrict", "superstrict.syntax"]
    assert "numpy" not in out["superstrict.parse"]
    # the search and the modules it loads write no JSON, and `json` takes milliseconds to import
    searching = [m for m in out["import superstrict.search"] if m.startswith("superstrict")]
    assert searching == ["superstrict", "superstrict.search", "superstrict.semantics", "superstrict.syntax"]
    assert not {"json", "numpy"} & set(out["import superstrict.search"])


def test_numpy_attributes_are_kept_on_the_proxy():
    assert search.np.arange is numpy.arange
    assert vars(search.np)["arange"] is numpy.arange
