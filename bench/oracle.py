"""References the timed code does not produce.

Everything here works on the JSON interchange forms with plain sets, in the
manner of ``tests/oracles.py``, so that agreement with the package's bitmask
and numpy machinery means something:

* ``eval_json`` re-evaluates a formula at a world of a printed model;
* ``in_class`` checks a printed frame against a class defined here by name;
* ``schema_valid`` gives the textbook correspondence verdict of the schemas
  T, 4, 5, B, D and K over a named class;
* ``FRAMES`` counts the frames of each class per size, so that the work of a
  scan can be estimated, capped and printed before the scan starts.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

from superstrict.syntax import And, Bot, Box, Dia, Formula, Imp, Or, Ssi, Sssi, Strict, Var

# Frame conditions of each named class, written out from the textbook
# definitions rather than read from the package.  The second member says
# whether every point is normal.
CLASS_DEFS: dict[str, tuple[frozenset[str], bool]] = {
    "s2_0": (frozenset(), False),
    "s2": (frozenset({"reflexive"}), False),
    "s3": (frozenset({"reflexive", "transitive"}), False),
    "k": (frozenset(), True),
    "kd": (frozenset({"serial"}), True),
    "kt": (frozenset({"reflexive"}), True),
    "kb": (frozenset({"symmetric"}), True),
    "k4": (frozenset({"transitive"}), True),
    "k5": (frozenset({"euclidean"}), True),
    "k45": (frozenset({"transitive", "euclidean"}), True),
    "kd45": (frozenset({"serial", "transitive", "euclidean"}), True),
    "ktb": (frozenset({"reflexive", "symmetric"}), True),
    "s4": (frozenset({"reflexive", "transitive"}), True),
    "s5": (frozenset({"reflexive", "euclidean"}), True),
}

# FRAMES[c][n - 1] is the number of frames of class c on n worlds, and
# FRAMES_NORMAL[c][n - 1] the number of those with at least one normal
# point (the frames a countermodel search evaluates).  Counted once by
# exhaustive enumeration; the benchmark's own test re-counts n <= 3.
FRAMES: dict[str, tuple[int, ...]] = {
    "s2_0": (4, 64, 4096, 1048576),
    "s2": (2, 16, 512, 65536),
    "s3": (2, 16, 232, 5680),
    "k": (2, 16, 512, 65536),
    "kd": (1, 9, 343, 50625),
    "kt": (1, 4, 64, 4096),
    "kb": (2, 8, 64, 1024),
    "k4": (2, 13, 171, 3994),
    "k5": (2, 7, 39, 306),
    "k45": (2, 7, 33, 186),
    "kd45": (1, 4, 17, 89),
    "ktb": (1, 2, 8, 64),
    "s4": (1, 4, 29, 355),
    "s5": (1, 2, 5, 15),
}
FRAMES_NORMAL: dict[str, tuple[int, ...]] = {
    **FRAMES,
    "s2_0": (2, 48, 3584, 983040),
    "s2": (1, 12, 448, 61440),
    "s3": (1, 12, 203, 5325),
}

SCHEMAS: dict[str, str] = {
    "T": "box A -> A",
    "4": "box A -> box box A",
    "5": "dia A -> box dia A",
    "B": "A -> box dia A",
    "D": "box A -> dia A",
    "K": "box (A -> B) -> (box A -> box B)",
}
_SCHEMA_PROPERTY = {"T": "reflexive", "4": "transitive", "5": "euclidean",
                    "B": "symmetric", "D": "serial", "K": None}


def eval_json(mj: dict, w: int, f: Formula) -> bool:
    """Truth at a world, full non-normal clauses, coded over sets."""
    n = mj["worlds"]
    succ = {i: set(row) for i, row in enumerate(mj["rel"])}
    normals = set(mj["normals"])
    val = {name: set(ws) for name, ws in mj["val"].items()}

    def ev(w: int, g: Formula) -> bool:
        match g:
            case Var(name):
                return w in val.get(name, set())
            case Bot():
                return False
            case And(a, b):
                return ev(w, a) and ev(w, b)
            case Or(a, b):
                return ev(w, a) or ev(w, b)
            case Imp(a, b):
                return (not ev(w, a)) or ev(w, b)
            case Ssi(a, b):
                sat = [v for v in succ[w] if ev(v, a)]
                return w in normals and bool(sat) and all(ev(v, b) for v in sat)
            case Sssi(a, b):
                sat = [v for v in succ[w] if ev(v, a)]
                return (w in normals and bool(sat) and all(ev(v, b) for v in sat)
                        and any(not ev(v, b) for v in succ[w]))
            case Strict(a, b):
                return w in normals and all(ev(v, b) for v in succ[w] if ev(v, a))
            case Box(a):
                return w in normals and all(ev(v, a) for v in succ[w])
            case Dia(a):
                return w not in normals or any(ev(v, a) for v in succ[w])
        raise TypeError(f"not a formula: {g!r}")

    if not 0 <= w < n:
        raise ValueError(f"world {w} out of range")
    return ev(w, f)


def opaque_atoms(f: Formula) -> int:
    """Distinct maximal non-classical subformulas: the atoms a classical
    tautology check assigns truth values to."""
    atoms, stack = set(), [f]
    while stack:
        g = stack.pop()
        match g:
            case And(a, b) | Or(a, b) | Imp(a, b):
                stack += (a, b)
            case Bot():
                pass
            case _:
                atoms.add(g)
    return len(atoms)


def _has(prop: str, n: int, edges: set[tuple[int, int]]) -> bool:
    match prop:
        case "reflexive":
            return all((i, i) in edges for i in range(n))
        case "serial":
            return all(any((i, j) in edges for j in range(n)) for i in range(n))
        case "symmetric":
            return all((j, i) in edges for i, j in edges)
        case "transitive":
            return all((i, k) in edges for i, j in edges for j2, k in edges if j == j2)
        case "euclidean":
            return all((j, k) in edges for i, j in edges for i2, k in edges if i == i2)
    raise ValueError(f"unknown frame property {prop!r}")


def in_class(mj: dict, class_name: str) -> bool:
    """Whether a printed frame belongs to the named class."""
    props, all_normal = CLASS_DEFS[class_name]
    n = mj["worlds"]
    edges = {(i, j) for i, row in enumerate(mj["rel"]) for j in row}
    if all_normal and set(mj["normals"]) != set(range(n)):
        return False
    return all(_has(p, n, edges) for p in props)


@lru_cache(maxsize=None)
def class_has(class_name: str, prop: str) -> bool:
    """Whether every frame of the class on at most 3 worlds has `prop`.

    For the named classes and the five properties, a property that fails
    on some frame of the class already fails on one of at most 3 worlds
    (each property speaks of at most 3 worlds at a time)."""
    props, _ = CLASS_DEFS[class_name]
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for bits in itertools.product((0, 1), repeat=n * n):
            edges = {pair for pair, b in zip(pairs, bits) if b}
            if all(_has(p, n, edges) for p in props) and not _has(prop, n, edges):
                return False
    return True


def schema_valid(schema: str, class_name: str) -> bool:
    """Textbook verdict on a schema over a class.

    On classes whose points are all normal this is the correspondence
    theorem: T, 4, 5, B and D are valid exactly on the reflexive,
    transitive, euclidean, symmetric and serial frames, and K everywhere.
    Over the classes with non-normal points only T, D and K are used: at a
    normal point box and dia read as usual, so T and D hold iff the class
    is reflexive, and K always."""
    prop = _SCHEMA_PROPERTY[schema]
    if prop is None:
        return True
    _, all_normal = CLASS_DEFS[class_name]
    if not all_normal:
        if schema not in ("T", "D"):
            raise ValueError(f"no textbook verdict for {schema} over {class_name}")
        return class_has(class_name, "reflexive")
    return class_has(class_name, prop)


def check_witness(mj: dict, world: int, n: int, f: Formula, class_name: str) -> str | None:
    """Problem with a printed countermodel, or None when it is one."""
    if mj.get("worlds") != n:
        return f"witness has {mj.get('worlds')} worlds, reported n={n}"
    if world not in mj["normals"]:
        return f"witness world {world} is not normal"
    if not in_class(mj, class_name):
        return f"witness frame is not in class {class_name}"
    if eval_json(mj, world, f):
        return "formula is true at the witness world"
    return None


def parse_cli_witness(stdout: str) -> tuple[int, int, dict]:
    """(n, world, model JSON) from 'countermodel at n=N, world W' output."""
    head, _, body = stdout.partition("\n")
    prefix = "countermodel at n="
    if not head.startswith(prefix):
        raise ValueError(f"not a countermodel report: {head!r}")
    n_text, _, world_text = head[len(prefix):].partition(", world ")
    return int(n_text), int(world_text), json.loads(body)
