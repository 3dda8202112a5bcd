"""Write `replace_corpus.json`: seeded `replace_at` cases with their recorded results.

Each of the 1,200 cases is a random formula over `p`, `q` and `bot`, a list
of occurrence paths and a replacement.  The paths cover every shape the
function distinguishes: the empty set, the root alone or with other paths,
one path or several (listed out of order, sometimes twice) to equal
subformulas, paths to distinct subformulas, and invalid paths (a step out
of range or negative), alone or among valid ones.  The replacement is a
random formula, a fresh copy of the addressed subformula, or (`null` in
the file) the addressed object itself, taken at the first listed path.
Each entry holds `formula_to_json` of the result and whether the result is
the input object, or the exact `ValueError` text.  The file pins
`replace_at`'s contract, so regenerate it only when that contract changes
on purpose:

    PYTHONPATH=src python tests/golden/make_replace_corpus.py
"""

import json
import random
from pathlib import Path

from superstrict.syntax import (And, Bot, Box, Dia, Imp, Or, Ssi, Sssi, Strict, Var, children, formula_to_json, parse,
                                pretty, replace_at, subformula_at)

SEED = 20221009
CASES = 1200
HERE = Path(__file__).parent
KINDS = ["empty", "root", "equal", "equal", "distinct", "invalid", "invalid", "mixed"]


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var("p"), Var("q"), Bot()])
    ctor = rng.choice([And, Or, Imp, Ssi, Sssi, Strict, Box, Dia])
    if ctor in (Box, Dia):
        return ctor(random_formula(rng, depth - 1))
    return ctor(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def positions(f) -> list[tuple[int, ...]]:
    """Every path of `f`, in pre-order."""
    out, stack = [], [((), f)]
    while stack:
        path, g = stack.pop()
        out.append(path)
        stack += ((path + (i,), k) for i, k in reversed(list(enumerate(children(g)))))
    return out


def invalid_path(rng: random.Random, f, at: list[tuple[int, ...]]) -> tuple[int, ...]:
    """A valid path followed by a step its node lacks, sometimes then more steps."""
    path = rng.choice(at)
    width = len(children(subformula_at(f, path)))
    bad = rng.choice([width, width + rng.randint(1, 3), -1])
    return path + (bad,) + tuple(rng.randint(0, 1) for _ in range(rng.choice([0, 0, 1, 2])))


def paths_for(rng: random.Random, kind: str, f) -> list[tuple[int, ...]]:
    at = positions(f)
    if kind == "empty":
        return []
    if kind == "root":
        return [()] + rng.sample(at, rng.choice([0, 0, 1]))
    if kind in ("equal", "mixed"):
        target = subformula_at(f, rng.choice(at))
        same = [p for p in at if subformula_at(f, p) == target]
        chosen = rng.sample(same, rng.randint(1, len(same)))
        if rng.random() < 0.3:
            chosen.append(rng.choice(chosen))  # a duplicate
        if kind == "mixed":  # a valid path set with invalid ones among it
            chosen += [invalid_path(rng, f, at) for _ in range(rng.randint(1, 2))]
        rng.shuffle(chosen)
        return chosen
    if kind == "distinct":
        a = rng.choice(at)
        others = [p for p in at if subformula_at(f, p) != subformula_at(f, a)]
        chosen = [a] + rng.sample(others, min(len(others), rng.randint(1, 2)))
        rng.shuffle(chosen)
        return chosen
    return [invalid_path(rng, f, at) for _ in range(rng.randint(1, 2))]


def record(text: str, paths: list[tuple[int, ...]], replacement: str | None) -> dict:
    """The case and its outcome; a `None` replacement is the object at `paths[0]`."""
    f = parse(text)
    g = subformula_at(f, paths[0]) if replacement is None else parse(replacement)
    entry = {"formula": text, "paths": [list(p) for p in paths], "replacement": replacement}
    try:
        result = replace_at(f, paths, g)
    except ValueError as exc:
        return {**entry, "error": str(exc)}
    return {**entry, "result": formula_to_json(result), "same": result is f}


def main() -> None:
    rng = random.Random(SEED)
    lines = []
    for _ in range(CASES):
        f = parse(pretty(random_formula(rng, rng.randint(0, 4))))
        kind = rng.choice(KINDS)
        paths = paths_for(rng, kind, f)
        choice = rng.random()
        if kind in ("equal", "root") and choice < 0.3:
            replacement = None
        elif kind in ("equal", "root") and choice < 0.45:
            replacement = pretty(subformula_at(f, paths[0]))  # equal, but a new object
        else:
            replacement = pretty(random_formula(rng, rng.randint(0, 2)))
        lines.append(json.dumps(record(pretty(f), paths, replacement), sort_keys=True, separators=(",", ":")))
    (HERE / "replace_corpus.json").write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
