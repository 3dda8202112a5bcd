"""Independent reference implementations used to cross-check the package.

Everything here is written against the JSON interchange forms with plain
sets and recursion, deliberately avoiding the bitmask machinery of the
package, so that agreement between the two routes is meaningful.  Two
keep an earlier form of a package function as the reference for its
successor: `tokenize` and `representatives`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from superstrict.search import _PAIRS
from superstrict.syntax import And, Bot, Box, Dia, Formula, Imp, Or, ParseError, Ssi, Sssi, Strict, Var, fold

_KEYWORDS = {"bot", "top", "box", "dia"}
_SYMBOLS = ["||>", "|>", "->", "=>", "(", ")", "&", "|", "~"]


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `text` as (kind, text, line, column), one character at
    a time with `str.isspace`, `str.isalpha` and `str.isalnum`: the
    package's tokenizer before it read them with one regular expression."""
    toks = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append((word if word in _KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append((sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unknown token {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def eval_json(mj: dict, w: int, f: Formula) -> bool:
    """Truth at a world, full non-normal clauses, coded over sets."""
    truth = {name: [{0} if v in ws else set() for v in range(mj["worlds"])] for name, ws in mj["val"].items()}
    return 0 in extensions(mj, truth, 1)(f)[w]


def extensions(mj: dict, truth: dict[str, list[set[int]]], count: int) -> Callable[[Formula], list[set[int]]]:
    """On the frame of model JSON `mj`, a formula's truth under `count`
    valuations at once: for each world, the set of valuations (0..count-1)
    under which it holds there.  `truth[x]` gives variable x so, and a
    variable missing from it is false.  The frame's sets are built once, and
    each subformula is evaluated once."""
    n = mj["worlds"]
    every = set(range(count))
    normal = [every if w in mj["normals"] else set() for w in range(n)]
    succ = [sorted(set(row)) for row in mj["rel"]]
    memo: dict[int, tuple[Formula, list[set[int]]]] = {}  # keeps g, so its id stays unique

    def some(x: list[set[int]]) -> list[set[int]]:
        """Where some successor is in x."""
        return [set().union(*(x[v] for v in succ[w])) for w in range(n)]

    def ext(g: Formula) -> list[set[int]]:
        if id(g) not in memo:
            memo[id(g)] = g, clause(g)
        return memo[id(g)][1]

    def clause(g: Formula) -> list[set[int]]:
        match g:
            case Var(name):
                return truth.get(name) or [set() for _ in range(n)]
            case Bot():
                return [set() for _ in range(n)]
            case And(a, b):
                return [x & y for x, y in zip(ext(a), ext(b))]
            case Or(a, b):
                return [x | y for x, y in zip(ext(a), ext(b))]
            case Imp(a, b):
                return [(every - x) | y for x, y in zip(ext(a), ext(b))]
            case Ssi(a, b):  # some successor in a, none in a and not b
                sat, bad = some(ext(a)), some([x - y for x, y in zip(ext(a), ext(b))])
                return [(nw & s) - t for nw, s, t in zip(normal, sat, bad)]
            case Sssi(a, b):  # and some successor not in b
                sat, bad = some(ext(a)), some([x - y for x, y in zip(ext(a), ext(b))])
                out = some([every - y for y in ext(b)])
                return [(nw & s & o) - t for nw, s, o, t in zip(normal, sat, out, bad)]
            case Strict(a, b):
                bad = some([x - y for x, y in zip(ext(a), ext(b))])
                return [nw - t for nw, t in zip(normal, bad)]
            case Box(a):
                bad = some([every - x for x in ext(a)])
                return [nw - t for nw, t in zip(normal, bad)]
            case Dia(a):
                return [(every - nw) | s for nw, s in zip(normal, some(ext(a)))]
        raise TypeError(f"not a formula: {g!r}")

    return ext


def normal_eval_json(mj: dict, w: int, f: Formula) -> bool:
    """Truth at a world under the plain normal clauses.

    Normality plays no role here at all: every modal clause quantifies over
    successors and nothing else."""
    n = mj["worlds"]
    edges = {(i, j) for i, row in enumerate(mj["rel"]) for j in row}
    val = {name: set(ws) for name, ws in mj["val"].items()}

    def ev(w: int, g: Formula) -> bool:
        succ = [v for v in range(n) if (w, v) in edges]
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
                sat = [v for v in succ if ev(v, a)]
                return bool(sat) and all(ev(v, b) for v in sat)
            case Sssi(a, b):
                sat = [v for v in succ if ev(v, a)]
                return bool(sat) and all(ev(v, b) for v in sat) and any(not ev(v, b) for v in succ)
            case Strict(a, b):
                return all(ev(v, b) for v in succ if ev(v, a))
            case Box(a):
                return all(ev(v, a) for v in succ)
            case Dia(a):
                return any(ev(v, a) for v in succ)
        raise TypeError(f"not a formula: {g!r}")

    return ev(w, f)


# The relational conditions of a frame class, and every set of them as
# `naive_frames` keywords: 32 sets.
RELATIONAL = ("reflexive", "transitive", "serial", "symmetric", "euclidean")
CONDITION_SETS = [dict(zip(RELATIONAL, bits)) for bits in itertools.product((False, True), repeat=len(RELATIONAL))]


def condition_id(conditions: dict[str, bool]) -> str:
    """A test id for a set of conditions: the names that hold, joined by '+'."""
    return "+".join(name for name, on in conditions.items() if on) or "none"


def naive_frames(
    n: int,
    *,
    reflexive: bool = False,
    transitive: bool = False,
    serial: bool = False,
    symmetric: bool = False,
    euclidean: bool = False,
    all_normal: bool = False,
) -> Iterator[tuple[set[tuple[int, int]], set[int]]]:
    """All (edges, normals) pairs on n worlds meeting the constraints, in
    the canonical order: relation bits then normality bits, both big-endian
    with row-major relation bits."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for relbits in itertools.product((0, 1), repeat=n * n):
        edges = {pair for pair, bit in zip(pairs, relbits) if bit}
        if reflexive and any((i, i) not in edges for i in range(n)):
            continue
        if serial and any(all((i, j) not in edges for j in range(n)) for i in range(n)):
            continue
        if symmetric and any((j, i) not in edges for (i, j) in edges):
            continue
        if transitive and any(
            (i, k) not in edges for (i, j) in edges for (j2, k) in edges if j == j2
        ):
            continue
        if euclidean and any(
            (j, k) not in edges for (i, j) in edges for (i2, k) in edges if i == i2
        ):
            continue
        for normbits in itertools.product((0, 1), repeat=n):
            normals = {i for i in range(n) if normbits[i]}
            if all_normal and len(normals) != n:
                continue
            yield edges, normals


_INFIX_TEXT = {And: ("&", 3), Or: ("|", 2), Imp: ("->", 1), Strict: ("=>", 1), Ssi: ("|>", 1), Sssi: ("||>", 1)}


def pretty_bottom_up(f: Formula) -> str:
    """The printer as a bottom-up `fold`: each node's text and binding level
    (atoms 5, prefix 4, infix 3 to 1) from its children's.  It keeps every
    node's text, so a deep chain costs quadratic memory; keep it to small
    formulas."""
    def operand(kid: tuple[str, int], need: int) -> str:
        text, level = kid
        return "(" + text + ")" if level < need else text

    def step(g: Formula, kids) -> tuple[str, int]:
        t = type(g)
        if t is Var:
            return g.name, 5
        if t is Bot:
            return "bot", 5
        if t is Imp and type(g.right) is Bot:
            return ("top", 5) if type(g.left) is Bot else ("~" + operand(kids[0], 4), 4)
        if t is Box or t is Dia:
            return ("box " if t is Box else "dia ") + operand(kids[0], 4), 4
        symbol, level = _INFIX_TEXT[t]
        a, b = kids
        return f"{operand(a, level + 1)} {symbol} {operand(b, level if type(g.right) is t else level + 1)}", level

    return fold(f, step)[0]


def representatives(program: list[tuple], roots: Sequence[int], k: int) -> tuple[int, ...] | None:
    """The smallest assignment of each propositional type of a compiled
    program, as `search._representatives` returns them, with its own clauses
    for conjunction, disjunction and implication: the package's function
    before it evaluated the slots with `search._run`."""
    if 1 << k > _PAIRS:
        return None
    full = (1 << (1 << k)) - 1  # bit a of a slot's int: its truth under assignment a
    exts: list[int | None] = []
    maximal = set(roots)
    for op, a, b in program:
        match op:
            case "leaf" if a >= 2:  # variable a - 2, bit k + 1 - a of an assignment
                s = 1 << k + 1 - a  # false under s assignments, then true under s, and so on
                v = ((1 << s) - 1 << s) * (full // ((1 << 2 * s) - 1))
            case "leaf":  # bot, or the normal points, which are not propositional
                v = 0 if a == 0 else None
            case "ex":
                v = None
                maximal.add(a)
            case _:
                x, y = exts[a], exts[b]
                if x is None or y is None:
                    v = None
                    maximal.update((a, b))
                else:
                    v = x & y if op == "and" else x | y if op == "or" else (full ^ x) | y
        exts.append(v)
    atoms = {exts[s] for s in maximal} - {None}
    if atoms >= {exts[s] for s, (op, a, _) in enumerate(program) if op == "leaf" and a >= 2}:
        return None  # every variable an atom: each assignment its own class
    classes = [full]
    for x in atoms:
        classes = [c for part in classes for c in (part & x, part & ~x) if c]
    if len(classes) == 1 << k:
        return None
    return tuple(sorted((c & -c).bit_length() - 1 for c in classes))
