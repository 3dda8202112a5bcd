"""Syntax for the language of super-strict implication.

Concrete grammar (ASCII):

    atom     ::= IDENT | "bot" | "top" | "(" formula ")"
    unary    ::= ("~" | "box" | "dia") unary | atom
    conj     ::= unary ("&" conj)?
    disj     ::= conj ("|" disj)?
    formula  ::= disj (ARROW disj)*        ARROW in {"->", "=>", "|>", "||>"}

Binding strength is {~, box, dia} > & > | > arrows.  Every binary operator
associates to the right.  The four arrows share one precedence level and are
mutually non-associative: mixing two different arrows needs parentheses.

`top` and `~` are notation, not AST nodes: the parser expands `top` to
`bot -> bot` and `~a` to `a -> bot`, and the printer folds both back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    """Material implication."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Ssi(Formula):
    """Super-strict implication `|>`: strictness plus a possible antecedent."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Sssi(Formula):
    """Strong super-strict implication `||>`: adds a possibly-false consequent."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Dia(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Strict(Formula):
    """Strict implication `=>`."""

    left: Formula
    right: Formula


def top() -> Formula:
    return Imp(Bot(), Bot())


def neg(f: Formula) -> Formula:
    return Imp(f, Bot())


_BINARY = frozenset({And, Or, Imp, Ssi, Sssi, Strict})


def children(f: Formula) -> tuple[Formula, ...]:
    t = type(f)
    if t in _BINARY:
        return (f.left, f.right)
    if t is Box or t is Dia:
        return (f.child,)
    if t is Var or t is Bot:
        return ()
    raise TypeError(f"not a formula: {f!r}")


T = TypeVar("T")


def fold(f: Formula, step: Callable[[Formula, Sequence[T]], T]) -> T:
    """`step(node, results of its children)`, children first, bottom-up.

    Each node object is visited once, so a subformula shared by several
    parents is folded once.  The walk keeps its own stack, so its depth is
    bounded by memory, not by Python's recursion limit.
    """
    done: dict[int, T] = {}  # id of a node -> its result
    results: list[T] = []  # results of the nodes whose parent is still open
    stack: list = [f]  # nodes to visit, and (node, number of children) to close
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g, k = g
            r = step(g, results[-k:])
            del results[-k:]
        elif id(g) in done:
            results.append(done[id(g)])
            continue
        else:
            kids = children(g)
            if kids:
                stack.append((g, len(kids)))
                stack += reversed(kids)
                continue
            r = step(g, ())
        done[id(g)] = r
        results.append(r)
    return results[0]


def _rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """`f` over `kids`; `f` itself when every child object is unchanged."""
    if all(map(operator.is_, kids, children(f))):
        return f
    return type(f)(*kids)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Pre-order traversal, the node itself first."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


class Language(Enum):
    """Connective vocabularies the toolkit distinguishes."""

    CORE = frozenset({Var, Bot, And, Or, Imp, Ssi})
    STRICT = frozenset({Var, Bot, And, Or, Imp, Strict})
    BOX = frozenset({Var, Bot, And, Or, Imp, Box, Dia})
    FULL = frozenset({Var, Bot, And, Or, Imp, Ssi, Sssi, Box, Dia, Strict})


def in_language(f: Formula, lang: Language) -> bool:
    allowed = lang.value
    return all(type(g) in allowed for g in subformulas(f))


def weight(f: Formula) -> int:
    """Number of binary connective nodes; box and dia contribute nothing."""
    return sum(1 for g in subformulas(f) if type(g) in _BINARY)


def modal_depth(f: Formula) -> int:
    return fold(f, lambda g, kids: max(kids, default=0) + isinstance(g, (Ssi, Sssi, Box, Dia, Strict)))


def substitute_uniform(f: Formula, name: str, replacement: Formula) -> Formula:
    """Replace every occurrence of the variable `name` by `replacement`."""
    return substitute_many(f, {name: replacement})


def substitute_many(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneous uniform substitution."""
    return fold(f, lambda g, kids: mapping.get(g.name, g) if type(g) is Var else _rebuild(g, kids))


Path = tuple[int, ...]


def subformula_at(f: Formula, path: Iterable[int]) -> Formula:
    node = f
    for i, step in enumerate(path):
        kids = children(node)
        if not 0 <= step < len(kids):
            raise ValueError(f"invalid path at position {i}: node has {len(kids)} children")
        node = kids[step]
    return node


def replace_at(f: Formula, paths: Iterable[Iterable[int]], replacement: Formula) -> Formula:
    """Replace the subformula occurrences addressed by `paths`.

    Every path must address the same formula (syntactic identity); the
    occurrence set may be empty, in which case `f` is returned unchanged.
    """
    pset = {tuple(p) for p in paths}
    if not pset:
        return f
    targets = [subformula_at(f, p) for p in sorted(pset)]
    if any(t != targets[0] for t in targets):
        raise ValueError("paths address distinct subformulas")

    def go(node: Formula, here: Path) -> Formula:
        if here in pset:
            return replacement
        return _rebuild(node, [go(kid, here + (i,)) for i, kid in enumerate(children(node))])

    return go(f, ())


def _desugar_step(g: Formula, kids: Sequence[Formula]) -> Formula:
    match g:
        case Sssi():
            a, b = kids
            return And(Ssi(a, b), Ssi(neg(b), top()))
        case Dia():
            return Ssi(kids[0], top())
        case Box():
            return neg(Ssi(neg(kids[0]), top()))
        case Strict():
            a, b = kids
            return neg(Ssi(And(a, neg(b)), top()))
    return _rebuild(g, kids)


def desugar(f: Formula) -> Formula:
    """Rewrite into the core language, innermost first.

    ||> unfolds to its defining conjunction, dia a to `a |> top`, box a to
    `~(~a |> top)`, and => to `~((a & ~b) |> top)`.  Idempotent; the result
    uses only core connectives, and is `f` itself when `f` already does.
    """
    return fold(f, _desugar_step)


def _box_step(g: Formula, kids: Sequence[Formula]) -> Formula:
    match g:
        case Ssi():
            a, b = kids
            return And(Dia(a), Box(Imp(a, b)))
        case Strict():
            return Box(Imp(*kids))
        case Sssi():
            a, b = kids
            nb = neg(b)
            return And(And(Dia(a), Box(Imp(a, b))), And(Dia(nb), Box(Imp(nb, top()))))
    return _rebuild(g, kids)


def to_box_language(f: Formula) -> Formula:
    """Translate arrows away in favour of box and dia.

    `a |> b` becomes `dia a & box (a -> b)` and `a => b` becomes
    `box (a -> b)`; `||>` goes through its defining conjunction first.
    Truth-preserving at every point, normal or not, under the primitive
    clauses.
    """
    return fold(f, _box_step)


def _dia_strict(g: Formula) -> Formula:
    return neg(Strict(top(), neg(g)))


def _strict_step(g: Formula, kids: Sequence[Formula]) -> Formula:
    match g:
        case Ssi():
            a, b = kids
            return And(_dia_strict(a), Strict(a, b))
        case Sssi():
            a, b = kids
            nb = neg(b)
            return And(And(_dia_strict(a), Strict(a, b)), And(_dia_strict(nb), Strict(nb, top())))
        case Box():
            return Strict(top(), kids[0])
        case Dia():
            return _dia_strict(kids[0])
    return _rebuild(g, kids)


def to_strict_language(f: Formula) -> Formula:
    """Translate into the strict-implication language.

    box a reads as `top => a`, dia a as `~(top => ~a)`, and `a |> b` as
    possible antecedent plus strictness.  Truth-preserving at every point
    under the primitive clauses.
    """
    return fold(f, _strict_step)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


_KEYWORDS = {"bot", "top", "box", "dia"}
_SYMBOLS = ("||>", "|>", "->", "=>", "(", ")", "&", "|", "~")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
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
            toks.append(_Tok(word if word in _KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Tok(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unknown token {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


_ARROW_KINDS: dict[str, type] = {"->": Imp, "=>": Strict, "|>": Ssi, "||>": Sssi}


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def formula(self) -> Formula:
        first = self.disj()
        op = self.peek().kind
        if op not in _ARROW_KINDS:
            return first
        parts = [first]
        while self.peek().kind == op:
            self.take()
            parts.append(self.disj())
            nxt = self.peek()
            if nxt.kind in _ARROW_KINDS and nxt.kind != op:
                raise ParseError(
                    f"cannot mix {op!r} and {nxt.kind!r} without parentheses",
                    nxt.line,
                    nxt.col,
                )
        ctor = _ARROW_KINDS[op]
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = ctor(part, result)
        return result

    def disj(self) -> Formula:
        left = self.conj()
        if self.peek().kind == "|":
            self.take()
            return Or(left, self.disj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        if self.peek().kind == "&":
            self.take()
            return And(left, self.conj())
        return left

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "~":
            self.take()
            return neg(self.unary())
        if t.kind == "box":
            self.take()
            return Box(self.unary())
        if t.kind == "dia":
            self.take()
            return Dia(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        t = self.take()
        if t.kind == "ident":
            return Var(t.text)
        if t.kind == "bot":
            return Bot()
        if t.kind == "top":
            return top()
        if t.kind == "(":
            f = self.formula()
            closing = self.take()
            if closing.kind != ")":
                raise ParseError(
                    f"expected ')', found {closing.text or 'end of input'!r}",
                    closing.line,
                    closing.col,
                )
            return f
        raise ParseError(
            f"expected a formula, found {t.text or 'end of input'!r}", t.line, t.col
        )


def parse(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
    return f


# ---------------------------------------------------------------------------
# printing

_ARROW_TEXT = {Imp: "->", Strict: "=>", Ssi: "|>", Sssi: "||>"}


def pretty(f: Formula) -> str:
    """Minimal-parenthesization concrete syntax; parse(pretty(f)) == f."""
    return fold(f, _pretty_step)[0]


def _operand(kid: tuple[str, int], need: int) -> str:
    text, prec = kid
    return "(" + text + ")" if prec < need else text


def _pretty_step(g: Formula, kids: Sequence[tuple[str, int]]) -> tuple[str, int]:
    """The text of `g` and its precedence: atoms 5, prefix 4, & 3, | 2, arrows 1."""
    t = type(g)
    if t is Var:
        return g.name, 5
    if t is Bot:
        return "bot", 5
    if t is Imp and type(g.right) is Bot:
        return ("top", 5) if type(g.left) is Bot else ("~" + _operand(kids[0], 4), 4)
    if t is Box or t is Dia:
        return ("box " if t is Box else "dia ") + _operand(kids[0], 4), 4
    a, b = kids
    if t is And:
        return _operand(a, 4) + " & " + _operand(b, 3), 3
    if t is Or:
        return _operand(a, 3) + " | " + _operand(b, 2), 2
    # a same-operator right operand continues the chain, anything else at
    # arrow level needs parentheses
    return _operand(a, 2) + " " + _ARROW_TEXT[t] + " " + _operand(b, 1 if type(g.right) is t else 2), 1


# ---------------------------------------------------------------------------
# JSON form

_OP_NAME = {
    Var: "var",
    Bot: "bot",
    And: "and",
    Or: "or",
    Imp: "imp",
    Ssi: "ssi",
    Sssi: "sssi",
    Box: "box",
    Dia: "dia",
    Strict: "strict",
}
_NAME_OP = {v: k for k, v in _OP_NAME.items()}


def formula_to_json(f: Formula) -> dict:
    return fold(f, lambda g, kids: {"op": _OP_NAME[type(g)], "args": [g.name] if type(g) is Var else list(kids)})


def formula_from_json(data: object) -> Formula:
    if not isinstance(data, dict) or not isinstance(data.get("op"), str):
        raise ValueError("formula JSON must be an object with an 'op' string")
    op = data["op"]
    args = data.get("args", [])
    if not isinstance(args, list):
        raise ValueError("'args' must be a list")
    ctor = _NAME_OP.get(op)
    if ctor is None:
        raise ValueError(f"unknown op {op!r}")
    if ctor is Var:
        if len(args) != 1 or not isinstance(args[0], str):
            raise ValueError("'var' takes one string argument")
        return Var(args[0])
    kids = tuple(formula_from_json(a) for a in args)
    arity = {Bot: 0, Box: 1, Dia: 1}.get(ctor, 2)
    if len(kids) != arity:
        raise ValueError(f"{op!r} takes {arity} arguments, got {len(kids)}")
    return ctor(*kids) if kids else ctor()
