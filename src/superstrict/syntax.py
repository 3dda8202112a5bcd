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
`_INFIX` and `_PREFIX` hold this notation once, for the parser and the printer.

`top` and `~` are notation, not AST nodes: the parser expands `top` to
`bot -> bot` and `~a` to `a -> bot`, and the printer folds both back.

The three translations are tables of templates in this grammar over the
children `a` and `b` (`_TO_CORE`, `_TO_BOX`, `_TO_STRICT`), each compiled
once at import; those tables are the only statement of the definitions.

No function here recurses: the parser, `fold`, structural `==` and the
other walks keep their own stacks or loops, so their depth is bounded by
memory.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable.

    Equality is structural and, like `hash`, walks its own stack, so it
    handles formulas of any depth.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        mine, theirs = [self], [other]  # the nodes still to compare, pairwise
        while mine:
            f, g = mine.pop(), theirs.pop()
            if f is g:
                continue
            if type(f) is not type(g) or (type(f) is Var and f.name != g.name):
                return False
            mine += children(f)
            theirs += children(g)
        return True

    def __hash__(self) -> int:
        return fold(self, lambda g, kids: hash((type(g), g.name) if type(g) is Var else (type(g), *kids)))


@dataclass(frozen=True, slots=True, eq=False)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Imp(Formula):
    """Material implication."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Ssi(Formula):
    """Super-strict implication `|>`: strictness plus a possible antecedent."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Sssi(Formula):
    """Strong super-strict implication `||>`: adds a possibly-false consequent."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Box(Formula):
    child: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Dia(Formula):
    child: Formula


@dataclass(frozen=True, slots=True, eq=False)
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


def _walk(f: Formula, path: Iterable[int]) -> list[Formula]:
    """The nodes along `path`, from `f` down to the one it addresses."""
    nodes = [f]
    for i, step in enumerate(path):
        kids = children(nodes[-1])
        if not 0 <= step < len(kids):
            raise ValueError(f"invalid path at position {i}: node has {len(kids)} children")
        nodes.append(kids[step])
    return nodes


def subformula_at(f: Formula, path: Iterable[int]) -> Formula:
    return _walk(f, path)[-1]


def replace_at(f: Formula, paths: Iterable[Iterable[int]], replacement: Formula) -> Formula:
    """Replace the subformula occurrences addressed by `paths`.

    Every path must address the same formula (syntactic identity); the
    occurrence set may be empty, in which case `f` is returned unchanged.
    Every path is checked before any is replaced.
    """
    ordered = sorted({tuple(p) for p in paths})
    targets = [subformula_at(f, p) for p in ordered]
    if any(t != targets[0] for t in targets):
        raise ValueError("paths address distinct subformulas")
    # No path extends another (a formula never equals a proper part of
    # itself), so each path still addresses its target once the ones before
    # it are replaced.
    for p in ordered:
        new = replacement
        for node, step in zip(reversed(_walk(f, p)[:-1]), reversed(p)):
            kids = list(children(node))
            kids[step] = new
            new = _rebuild(node, kids)
        f = new
    return f


def desugar(f: Formula) -> Formula:
    """Rewrite into the core language by the templates of `_TO_CORE`, innermost first.

    Idempotent; the result uses only core connectives, and is `f` itself
    when `f` already does.
    """
    return _translate(f, _TO_CORE)


def to_box_language(f: Formula) -> Formula:
    """Translate arrows away in favour of box and dia by the templates of `_TO_BOX`.

    Truth-preserving at every point, normal or not, under the primitive
    clauses.
    """
    return _translate(f, _TO_BOX)


def to_strict_language(f: Formula) -> Formula:
    """Translate into the strict-implication language by the templates of `_TO_STRICT`.

    Truth-preserving at every point under the primitive clauses.
    """
    return _translate(f, _TO_STRICT)


def _translate(f: Formula, table: Mapping[type, Callable[[Sequence[Formula]], Formula]]) -> Formula:
    """`f` with each node of a type in `table` replaced by its template over
    the node's translated children, innermost first."""
    def step(g: Formula, kids: Sequence[Formula]) -> Formula:
        build = table.get(type(g))
        return _rebuild(g, kids) if build is None else build(kids)

    return fold(f, step)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_INFIX: dict[str, tuple[int, type]] = {"&": (3, And), "|": (2, Or), "->": (1, Imp), "=>": (1, Strict),
                                        "|>": (1, Ssi), "||>": (1, Sssi)}  # symbol -> (binding level, node)
_PREFIX: dict[str, Callable[[Formula], Formula]] = {"~": neg, "box": Box, "dia": Dia}  # they bind tightest
_KEYWORDS = {"bot", "top", "box", "dia"}
_SYMBOLS = sorted(["(", ")", *_INFIX, "~"], key=len, reverse=True)  # "||>" before "|>" before "|"
# Spaces other than newlines, then one of: a newline, a run of word characters, a symbol, or any other
# character but a space.  On str, `\w` is `str.isalnum()` or "_" and `\s` is `str.isspace()`.
_TOKEN = re.compile(r"[^\S\n]*(?:(\n)|(\w+)|(" + "|".join(map(re.escape, _SYMBOLS)) + r")|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `text` as (kind, text, line, column), ending in an
    "eof" token; a word is a keyword or an identifier, which starts with a
    letter or "_"."""
    toks: list[tuple[str, str, int, int]] = []
    line, start = 1, 0  # start: the offset of the line's first character
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        i = m.start(group)
        if group == 1:
            line, start = line + 1, i + 1
            continue
        word = m.group(group)
        if group == 2 and (word[0].isalpha() or word[0] == "_"):
            toks.append((word if word in _KEYWORDS else "ident", word, line, i - start + 1))
        elif group == 3:
            toks.append((word, word, line, i - start + 1))
        else:
            raise ParseError(f"unknown token {word[0]!r}", line, i - start + 1)
    toks.append(("eof", "", line, len(text) - start + 1))
    return toks


def parse(text: str) -> Formula:
    """Operator precedence on two explicit stacks (Dijkstra's shunting-yard).

    `pending` holds the prefix and infix operators not yet applied and the
    open parentheses, each with its binding level (prefix 4, "(" 0);
    applying an operator replaces its operands on `operands` by the node it
    builds.
    """
    operands: list[Formula] = []
    pending: list[tuple[int, str]] = []
    want_operand = True
    for k, word, line, col in _tokenize(text):
        if want_operand:
            if k in _PREFIX or k == "(":
                pending.append((4 if k in _PREFIX else 0, k))
                continue
            if k not in ("ident", "bot", "top"):
                raise ParseError(f"expected a formula, found {word or 'end of input'!r}", line, col)
            operands.append(Var(word) if k == "ident" else Bot() if k == "bot" else top())
            want_operand = False
            continue
        # an operand is complete: apply what binds tighter than `k`, back to the innermost "("
        level = _INFIX[k][0] if k in _INFIX else 0
        while pending and pending[-1][0] > level:
            _, op = pending.pop()
            if op in _PREFIX:
                operands[-1] = _PREFIX[op](operands[-1])
            else:
                right = operands.pop()
                operands[-1] = _INFIX[op][1](operands[-1], right)
        if k in _INFIX:
            if pending and pending[-1][0] == level and pending[-1][1] != k:
                raise ParseError(f"cannot mix {pending[-1][1]!r} and {k!r} without parentheses", line, col)
            pending.append((level, k))
            want_operand = True
        elif k == ")" and pending:
            pending.pop()
        elif pending:
            raise ParseError(f"expected ')', found {word or 'end of input'!r}", line, col)
        elif k != "eof":
            raise ParseError(f"unexpected {word!r}", line, col)
    return operands.pop()  # the last token is eof


# ---------------------------------------------------------------------------
# translation templates: each connective's definition, once, over its children `a` and `b`


def _template(text: str) -> Callable[[Sequence[Formula]], Formula]:
    """Compile a template into a builder: `a` and `b` take the first and
    second child objects as they are, every other node is built afresh."""
    def step(g: Formula, kids: Sequence[Callable]) -> Callable[[Sequence[Formula]], Formula]:
        if type(g) is Var:
            return operator.itemgetter("ab".index(g.name))
        return lambda args: type(g)(*[build(args) for build in kids])

    return fold(parse(text), step)


_TO_CORE = {node: _template(text) for node, text in {
    Sssi: "(a |> b) & (~b |> top)",
    Dia: "a |> top",
    Box: "~(~a |> top)",
    Strict: "~((a & ~b) |> top)",
}.items()}

_TO_BOX = {node: _template(text) for node, text in {
    Ssi: "dia a & box (a -> b)",
    Strict: "box (a -> b)",
    Sssi: "(dia a & box (a -> b)) & (dia ~b & box (~b -> top))",
}.items()}

_TO_STRICT = {node: _template(text) for node, text in {
    Ssi: "~(top => ~a) & (a => b)",
    Sssi: "(~(top => ~a) & (a => b)) & (~(top => ~~b) & (~b => top))",
    Box: "top => a",
    Dia: "~(top => ~a)",
}.items()}


# ---------------------------------------------------------------------------
# printing

_LEVEL = {node: level for level, node in _INFIX.values()} | {Var: 5, Bot: 5, Box: 4, Dia: 4}
_TEXT = {node: f" {symbol} " for symbol, (_, node) in _INFIX.items()} | {Box: "box ", Dia: "dia "}


def pretty(f: Formula) -> str:
    """Minimal-parenthesization concrete syntax; parse(pretty(f)) == f.

    The text is written top-down as a list of pieces, so a chain of any
    depth prints in time and memory linear in its length.  The second time
    an inner node is met, its text is written once more, as one piece that
    every later meeting appends (a node met again inside that text is just
    written in it), so a shared subformula is not walked again and again.
    """
    out: list[str] = []
    seen: set[int] = set()  # ids of the inner nodes met
    texts: dict[int, str] = {}  # id -> the text of an inner node written twice
    span = None  # (id, start in `out`) of the node being written the second time
    stack: list = [f]  # nodes and pieces to write, and None to close `span`
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
            continue
        if t is Var or t is Bot:
            out.append(g.name if t is Var else "bot")
            continue
        if g is None:
            i, start = span
            texts[i] = "".join(out[start:])
            out[start:] = [texts[i]]
            span = None
            continue
        i = id(g)
        if i in texts:
            out.append(texts[i])
            continue
        if i not in seen:
            seen.add(i)
        elif span is None:  # met again, and not inside such a text: write it as one piece
            span = i, len(out)
            stack.append(None)
        if t is Box or t is Dia:
            out.append(_TEXT[t])
            _push(stack, g.child, 4)
        elif t is Imp and type(g.right) is Bot:
            if type(g.left) is Bot:
                out.append("top")
            else:
                out.append("~")
                _push(stack, g.left, 4)
        else:
            # operators associate to the right: only a same-operator right
            # operand continues the chain without parentheses
            level = _LEVEL[t]
            _push(stack, g.right, level if type(g.right) is t else level + 1)
            stack.append(_TEXT[t])
            _push(stack, g.left, level + 1)
    return "".join(out)


def _push(stack: list, g: Formula, need: int) -> None:
    """Put `g` on the printer's stack, in parentheses if it binds looser than
    `need`: atoms bind at level 5, prefix operators 4, infix as in `_INFIX`."""
    t = type(g)
    if _LEVEL[t] < need and (t is not Imp or type(g.right) is not Bot):
        stack += (")", g, "(")
    else:
        stack.append(g)


# ---------------------------------------------------------------------------
# JSON form

_NAME_OP = {node.__name__.lower(): node for node in Language.FULL.value}


def formula_to_json(f: Formula) -> dict:
    return fold(f, lambda g, kids: {"op": type(g).__name__.lower(), "args": [g.name] if type(g) is Var else list(kids)})


def formula_from_json(data: object) -> Formula:
    """The inverse of `formula_to_json`, read from a tree such as `json.load` returns.

    The walk keeps its own stack and reads children left to right before
    their parent, so a bad child is reported before its parent's arity.
    """
    done: list[Formula] = []  # results of the nodes whose parent is still open
    todo: list[tuple] = [(None, data)]  # (None, a node to read), or (node type, its args) to build
    while todo:
        ctor, data = todo.pop()
        if ctor is not None:
            k = len(data)
            arity = {Bot: 0, Box: 1, Dia: 1}.get(ctor, 2)
            if k != arity:
                raise ValueError(f"{ctor.__name__.lower()!r} takes {arity} arguments, got {k}")
            kids = done[len(done) - k:]
            del done[len(done) - k:]
            done.append(ctor(*kids))
            continue
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
            done.append(Var(args[0]))
            continue
        todo.append((ctor, args))
        todo += ((None, a) for a in reversed(args))
    return done[0]
