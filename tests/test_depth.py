"""Formulas far deeper than Python's recursion limit go through every
bottom-up walk: the translations, substitution, modal depth, the JSON form,
the scalar evaluator, `taut` and `hash` all run on `fold`.  The parser, the
printer, `formula_from_json` and `==` keep their own stacks too, and
`replace_at` walks each path in a loop.  The printer's memory is linear in
the depth."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from superstrict.proof import taut
from superstrict.semantics import Frame, Model, extension
from superstrict.syntax import (
    And,
    Box,
    Imp,
    Var,
    children,
    desugar,
    fold,
    formula_from_json,
    formula_to_json,
    modal_depth,
    parse,
    pretty,
    replace_at,
    substitute_many,
    to_box_language,
    to_strict_language,
)

DEPTH = 5000
P, Q = Var("p"), Var("q")

# one reflexive normal world where p holds
LOOP = Model(Frame.from_edges(1, [(0, 0)], [0]), {"p": 1})


def box_chain():
    f = P
    for _ in range(DEPTH):
        f = Box(f)
    return f


def imp_chain():
    """p -> p -> ... -> p, nested to the right."""
    f = P
    for _ in range(DEPTH):
        f = Imp(P, f)
    return f


def json_depth(data):
    depth = 0
    while data["op"] != "var":
        data, depth = data["args"][-1], depth + 1
    return depth


def test_depth_exceeds_the_recursion_limit():
    assert DEPTH > sys.getrecursionlimit()


def test_box_chain():
    f = box_chain()
    assert modal_depth(f) == DEPTH
    assert pretty(f) == "box " * DEPTH + "p"
    assert pretty(substitute_many(f, {"p": Q})) == "box " * DEPTH + "q"
    assert to_box_language(f) is f
    assert pretty(to_strict_language(f)) == "top => " * DEPTH + "p"
    assert modal_depth(desugar(f)) == DEPTH
    assert json_depth(formula_to_json(f)) == DEPTH
    assert extension(LOOP, f) == 1


def test_imp_chain():
    f = imp_chain()
    assert modal_depth(f) == 0
    assert pretty(f) == " -> ".join(["p"] * (DEPTH + 1))
    assert pretty(substitute_many(f, {"p": Q})) == " -> ".join(["q"] * (DEPTH + 1))
    assert desugar(f) is f
    assert to_box_language(f) is f
    assert to_strict_language(f) is f
    assert json_depth(formula_to_json(f)) == DEPTH
    assert extension(LOOP, f) == 1
    assert taut(f)


def test_parse():
    assert pretty(parse("~" * DEPTH + "p")) == "~" * DEPTH + "p"
    assert parse("(" * DEPTH + "p" + ")" * DEPTH) == P
    text = pretty(imp_chain())
    assert pretty(parse(text)) == text


@pytest.mark.parametrize("chain", [box_chain, imp_chain])
def test_json_round_trip(chain):
    text = pretty(chain())
    assert pretty(formula_from_json(formula_to_json(chain()))) == text


def test_replace_at_the_leaf():
    leaf = (0,) * DEPTH
    assert pretty(replace_at(box_chain(), [leaf], Q)) == "box " * DEPTH + "q"
    assert pretty(replace_at(imp_chain(), [(0,), (1,) * DEPTH], Q)) == " -> ".join(["q"] + ["p"] * (DEPTH - 1) + ["q"])


@pytest.mark.parametrize("chain", [box_chain, imp_chain])
def test_equality_and_hash(chain):
    f, g = chain(), chain()
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != replace_at(g, [(1,) * DEPTH if chain is imp_chain else (0,) * DEPTH], Q)


def test_fold_visits_each_node_object_once():
    # 101 node objects, 2^101 - 1 nodes as a tree
    f = P
    for _ in range(100):
        f = And(f, f)
    calls = []
    assert fold(f, lambda g, kids: calls.append(g) or 1 + max(kids, default=0)) == 101
    assert len(calls) == 101
    assert desugar(f) is f
    assert modal_depth(f) == 0


def post_order(f):
    return [g for kid in children(f) for g in post_order(kid)] + [f]


@pytest.mark.parametrize("text", ["p & q -> r", "box (p |> q) ||> dia r", "~(p => q) | top"])
def test_fold_runs_children_first_left_to_right(text):
    f = parse(text)
    order = []
    fold(f, lambda g, kids: order.append(g))
    assert [id(g) for g in order] == [id(g) for g in post_order(f)]


@pytest.mark.parametrize("text", ["~" * 200_000 + "p", "box " * 30_000 + "p"], ids=["negations", "boxes"])
def test_printer_memory_is_linear(text):
    f = parse(text)
    tracemalloc.start()
    try:
        assert pretty(f) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


# In a fresh process, with the command line's stack: `parse --json` of a
# `box` chain `sys.argv[1]` deep, as `main` prints it and as `json.dumps`
# writes it (or the error either raises); one JSON line.
PARSE_JSON = """
import contextlib, io, json, sys
from superstrict.cli import main
from superstrict.syntax import formula_to_json, parse
text = "box " * int(sys.argv[1]) + "p"
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["parse", "--json", "--formula", text])
try:
    reference = json.dumps(formula_to_json(parse(text)), indent=2, sort_keys=True) + "\\n"
except RecursionError:
    reference = "RecursionError"
print(json.dumps([code, out.getvalue(), err.getvalue(), reference]))
"""


def parse_json(depth):
    run = subprocess.run([sys.executable, "-c", PARSE_JSON, str(depth)], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    return json.loads(run.stdout)


def test_parse_json_writes_as_deep_as_json_dumps():
    code, out, err, reference = parse_json(490)
    assert (code, err) == (0, "") and out == reference
    assert out.count("\n") == 5 * 490 + 6  # a box: "{", "args": [, "],", "op", "}"; then the variable's 6


def test_parse_json_refuses_what_it_cannot_write():
    # the parser reads any depth; the writer recurses once a container, as `json.dumps` does
    assert parse_json(DEPTH) == [2, "", "error: input nested too deeply\n", "RecursionError"]
