"""Checking axiomatic derivations in the two classical proof styles.

Strict-arrow systems (`lewis-s2`, `lewis-s3`) have seven concrete axioms
over the variables p, q, r and the rules uniform substitution, substitution
of strict equivalents, adjunction, and strict detachment.  Box systems
(`lemmon-s2_0`, `lemmon-s2`, `lemmon-s3`) take every classical tautology as
an axiom (`pc`) together with the schemas `k` and `t`, and the rules modus
ponens, Becker's rule, and restricted necessitation.  The S3 box system
swaps `k` for its strengthened form and loses Becker's rule; the weakest
box system lacks `t`.

A derivation is a numbered list of steps.  `check` replays every
justification and raises `DerivationError` at the earliest step that does
not validate.  The line-oriented script format is documented in
`parse_script`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .search import CountermodelReport, find_countermodel
from .semantics import S2, S2_0, S3, FrameClass
from .syntax import (
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Imp,
    Language,
    Or,
    ParseError,
    Path,
    Strict,
    Var,
    children,
    fold,
    parse,
    replace_at,
    subformula_at,
    subformulas,
    substitute_many,
)


class SystemId(Enum):
    LEWIS_S2 = "lewis-s2"
    LEWIS_S3 = "lewis-s3"
    LEMMON_S2_0 = "lemmon-s2_0"
    LEMMON_S2 = "lemmon-s2"
    LEMMON_S3 = "lemmon-s3"


@dataclass(frozen=True)
class AxiomInstance:
    axiom: str
    substitution: Mapping[str, Formula] | None = None


@dataclass(frozen=True)
class RuleApp:
    rule: str
    premises: tuple[int, ...]
    substitution: Mapping[str, Formula] | None = None
    paths: tuple[Path, ...] | None = None


@dataclass(frozen=True)
class Step:
    formula: Formula
    justification: AxiomInstance | RuleApp


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]


class DerivationError(Exception):
    """A derivation step failed to validate."""

    def __init__(self, step: int, message: str) -> None:
        super().__init__(f"error at step {step}: {message}")
        self.step = step
        self.message = message


class ScriptError(ValueError):
    """A proof script failed to parse."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_LEWIS_AXIOMS: dict[str, Formula] = {
    "1": parse("(p & q) => (q & p)"),
    "2": parse("(p & q) => p"),
    "3": parse("p => (p & p)"),
    "4": parse("((p & q) & r) => (p & (q & r))"),
    "5": parse("((p => q) & (q => r)) => (p => r)"),
    "6": parse("(p & (p => q)) => q"),
    "7": parse("dia (p & q) => dia p"),
}

_LEWIS_S3_AXIOMS = {**_LEWIS_AXIOMS, "7": parse("(p => q) => (~dia q => ~dia p)")}

_LEMMON_SCHEMAS: dict[str, Formula] = {
    "k": parse("box (a -> b) -> (box a -> box b)"),
    "t": parse("box a -> a"),
}

_LEMMON_S3_SCHEMAS = {**_LEMMON_SCHEMAS, "k": parse("box (a -> b) -> box (box a -> box b)")}

_EQUIVALENCE = parse("(b => c) & (c => b)")  # the second premise of 'sse'

_LEWIS_TYPES = frozenset({Var, Bot, And, Or, Imp, Strict, Box, Dia})
_LEMMON_TYPES = Language.BOX.value


@dataclass(frozen=True)
class _SystemSpec:
    axioms: Mapping[str, Formula]
    schematic: bool  # axioms are schemas and every tautology is an axiom ('pc')
    rules: frozenset[str]
    allowed_types: frozenset[type]
    frame_class: FrameClass


_LEWIS_RULES = frozenset({"us", "sse", "adj", "sdet"})
_PREMISES = {"us": 1, "sse": 2, "adj": 2, "sdet": 2, "mp": 2, "br": 1, "nrest": 1}  # rule -> premise count

_SYSTEMS: dict[SystemId, _SystemSpec] = {
    SystemId.LEWIS_S2: _SystemSpec(_LEWIS_AXIOMS, False, _LEWIS_RULES, _LEWIS_TYPES, S2),
    SystemId.LEWIS_S3: _SystemSpec(_LEWIS_S3_AXIOMS, False, _LEWIS_RULES, _LEWIS_TYPES, S3),
    SystemId.LEMMON_S2_0: _SystemSpec(
        {"k": _LEMMON_SCHEMAS["k"]}, True, frozenset({"mp", "br", "nrest"}), _LEMMON_TYPES, S2_0
    ),
    SystemId.LEMMON_S2: _SystemSpec(
        _LEMMON_SCHEMAS, True, frozenset({"mp", "br", "nrest"}), _LEMMON_TYPES, S2
    ),
    SystemId.LEMMON_S3: _SystemSpec(
        _LEMMON_S3_SCHEMAS, True, frozenset({"mp", "nrest"}), _LEMMON_TYPES, S3
    ),
}


def system_frame_class(system: SystemId) -> FrameClass:
    return _SYSTEMS[system].frame_class


TAUT_LIMIT = 1 << 26
"""Largest truth table `taut` builds, in bits: the distinct subformulas it
evaluates times 2^(distinct opaque atoms).  2^26 bits is 8 MiB."""

_CONNECTIVES = {Bot: lambda: 0, And: operator.and_, Or: operator.or_, Imp: lambda a, b: ~a | b}


def taut(f: Formula) -> bool:
    """Classical tautology, with maximal modal subformulas read as opaque
    atoms.

    Evaluates once, on truth-table columns: each subformula's value is an
    int whose bit i is its truth under assignment i of the atoms.  Raises
    ValueError, before evaluating, when the table would exceed TAUT_LIMIT.
    """
    slots: dict[tuple, int] = {}  # one slot per distinct subformula, children first

    def intern(g: Formula, kids: Sequence[int]) -> int:
        return slots.setdefault((type(g), g.name) if type(g) is Var else (type(g), *kids), len(slots))

    root = fold(f, intern)
    nodes = list(slots)
    classical = {root}  # reached from the root through classical connectives only
    for i in reversed(range(len(nodes))):
        if i in classical and nodes[i][0] in _CONNECTIVES:
            classical.update(nodes[i][1:])
    atoms = [i for i in sorted(classical) if nodes[i][0] not in _CONNECTIVES]
    if len(classical) << len(atoms) > TAUT_LIMIT:
        raise ValueError(f"tautology check over {len(atoms)} atoms and {len(classical)} subformulas "
                         f"exceeds the limit of {TAUT_LIMIT} truth-table bits")
    value: dict[int, int] = {}
    width = 1  # assignments so far; each atom doubles them, true in the new half
    for i in atoms:
        for a in value:
            value[a] |= value[a] << width
        value[i] = (1 << width) - 1 << width
        width <<= 1
    full = (1 << width) - 1
    for i in sorted(classical - value.keys()):
        t, *kids = nodes[i]
        value[i] = _CONNECTIVES[t](*(value[k] for k in kids))
    return value[root] & full == full


def match_schema(pattern: Formula, target: Formula) -> dict[str, Formula] | None:
    """Bind the pattern's variables so that it becomes the target, or None.

    Repeated pattern variables must bind the same subformula."""
    binding: dict[str, Formula] = {}
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if type(p) is Var:
            if binding.setdefault(p.name, t) != t:
                return None
        elif type(p) is not type(t):
            return None
        else:
            stack += zip(children(p), children(t))
    return binding


def _check_axiom(system: SystemId, spec: _SystemSpec, k: int, step: Step) -> None:
    just = step.justification
    assert isinstance(just, AxiomInstance)
    name = just.axiom
    if name == "pc":
        if not spec.schematic:
            raise DerivationError(k, f"axiom 'pc' is not available in {system.value}")
        if just.substitution:
            raise DerivationError(k, "axiom 'pc' takes no substitution")
        if not taut(step.formula):
            raise DerivationError(k, "formula is not a classical tautology")
        return
    schema = spec.axioms.get(name)
    if schema is None:
        raise DerivationError(k, f"axiom {name!r} is not available in {system.value}")
    if just.substitution is not None:
        expected = substitute_many(schema, just.substitution)
        if expected != step.formula:
            raise DerivationError(k, f"formula does not match axiom {name!r} under the given substitution")
    elif spec.schematic:
        if match_schema(schema, step.formula) is None:
            raise DerivationError(k, f"formula does not match axiom schema {name!r}")
    elif schema != step.formula:
        raise DerivationError(k, f"formula is not axiom {name!r}; use a substitution for instances")


def _premise(d: Derivation, k: int, i: int) -> Formula:
    if not 1 <= i < k:
        raise DerivationError(k, f"premise reference {i} must point to an earlier step")
    return d.steps[i - 1].formula


def _check_rule(system: SystemId, spec: _SystemSpec, d: Derivation, k: int, step: Step) -> None:
    just = step.justification
    assert isinstance(just, RuleApp)
    rule = just.rule
    if rule not in spec.rules:
        raise DerivationError(k, f"rule {rule!r} is not available in {system.value}")
    if len(just.premises) != (count := _PREMISES[rule]):
        raise DerivationError(k, f"rule {rule!r} takes {count} premise{'s' * (count > 1)}, got {len(just.premises)}")
    match rule:
        case "us":
            (i,) = just.premises
            base = _premise(d, k, i)
            if just.substitution is None:
                raise DerivationError(k, "uniform substitution needs a substitution")
            if substitute_many(base, just.substitution) != step.formula:
                raise DerivationError(k, "formula is not the stated substitution instance of the premise")
        case "sse":
            i, j = just.premises
            base = _premise(d, k, i)
            sides = match_schema(_EQUIVALENCE, _premise(d, k, j))
            if sides is None:
                raise DerivationError(k, "second premise is not a conjunction of two converse strict implications")
            if not just.paths:
                raise DerivationError(k, "substitution of strict equivalents needs occurrence paths")
            b, c = sides["b"], sides["c"]
            try:
                occ = subformula_at(base, just.paths[0])
                if occ != b and occ != c:
                    raise DerivationError(k, "addressed occurrence matches neither side of the equivalence")
                rewritten = replace_at(base, just.paths, c if occ == b else b)
            except ValueError as exc:
                raise DerivationError(k, str(exc)) from exc
            if rewritten != step.formula:
                raise DerivationError(k, "formula is not the premise with the addressed occurrences swapped")
        case "adj":
            i, j = just.premises
            if And(_premise(d, k, i), _premise(d, k, j)) != step.formula:
                raise DerivationError(k, "formula is not the conjunction of the two premises")
        case "mp" | "sdet":
            i, j = just.premises
            node, kind = (Imp, "") if rule == "mp" else (Strict, "strict ")
            imp = _premise(d, k, i)
            if not isinstance(imp, node):
                raise DerivationError(k, f"first premise is not a {kind or 'material '}implication")
            if imp.left != _premise(d, k, j):
                raise DerivationError(k, f"second premise does not match the {kind}antecedent")
            if imp.right != step.formula:
                raise DerivationError(k, f"formula does not match the {kind}consequent")
        case "br":
            (i,) = just.premises
            prem = _premise(d, k, i)
            match prem:
                case Box(Imp(a, b)):
                    if step.formula != Box(Imp(Box(a), Box(b))):
                        raise DerivationError(k, "formula is not the boxed implication of boxes")
                case _:
                    raise DerivationError(k, "premise is not a boxed material implication")
        case "nrest":
            (i,) = just.premises
            prem = _premise(d, k, i)
            if not taut(prem):
                raise DerivationError(k, "restricted necessitation needs a tautological premise")
            if step.formula != Box(prem):
                raise DerivationError(k, "formula is not the boxed premise")


def check(system: SystemId, d: Derivation) -> None:
    """Validate every step; raise DerivationError at the earliest bad one."""
    spec = _SYSTEMS[system]
    for k, step in enumerate(d.steps, start=1):
        if any(type(g) not in spec.allowed_types for g in subformulas(step.formula)):
            raise DerivationError(k, f"formula uses connectives outside the {system.value} language")
        if isinstance(step.justification, AxiomInstance):
            _check_axiom(system, spec, k, step)
        else:
            _check_rule(system, spec, d, k, step)


@dataclass(frozen=True)
class SpotcheckEntry:
    step: int
    formula: Formula
    bound: int
    countermodel: CountermodelReport | None

    @property
    def valid_up_to_bound(self) -> bool:
        return self.countermodel is None


def soundness_spotcheck(
    system: SystemId,
    d: Derivation,
    max_n: int,
    frame_class: FrameClass | None = None,
) -> tuple[SpotcheckEntry, ...]:
    """Search for countermodels to every step of a checked derivation.

    The search runs over the system's own frame class unless an explicit
    override is given (useful for demonstrating what a wrong class would
    let through).  A hit means either a checker bug or a deliberately
    mismatched class."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check(system, d)
    fc = frame_class if frame_class is not None else _SYSTEMS[system].frame_class
    out = []
    for k, step in enumerate(d.steps, start=1):
        out.append(SpotcheckEntry(k, step.formula, max_n, find_countermodel(step.formula, fc, max_n)))
    return tuple(out)


_STEP_RE = re.compile(r"(\d+)\.\s*(.*)")


def _parse_subst(line_no: int, text: str) -> dict[str, Formula]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ScriptError(line_no, "substitution must be bracketed, like [p := q & r]")
    body = text[1:-1].strip()
    if not body:
        raise ScriptError(line_no, "empty substitution")
    subst: dict[str, Formula] = {}
    for part in body.split(","):
        var, sep, rhs = part.partition(":=")
        if not sep:
            raise ScriptError(line_no, f"substitution item {part.strip()!r} lacks ':='")
        name = var.strip()
        if not name.isidentifier():
            raise ScriptError(line_no, f"{name!r} is not a variable name")
        if name in subst:
            raise ScriptError(line_no, f"variable {name!r} substituted twice")
        try:
            subst[name] = parse(rhs.strip())
        except ParseError as exc:
            raise ScriptError(line_no, f"bad substitution formula: {exc}") from exc
    return subst


def _parse_path(line_no: int, token: str) -> Path:
    if token == "e":
        return ()
    parts = token.split(".")
    if not all(p.isdigit() for p in parts):
        raise ScriptError(line_no, f"bad occurrence path {token!r}; use dotted indices like 0.1, or e for the root")
    return tuple(int(p) for p in parts)


def _parse_indices(line_no: int, tokens: Sequence[str], rule: str) -> tuple[int, ...]:
    count = _PREMISES[rule]
    if len(tokens) != count or not all(t.isdigit() for t in tokens):
        plural = "premise step numbers" if count > 1 else "premise step number"
        raise ScriptError(line_no, f"rule {rule!r} needs {count} {plural}")
    return tuple(int(t) for t in tokens)


def _parse_justification(line_no: int, text: str) -> AxiomInstance | RuleApp:
    text = text.strip()
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    match head:
        case "axiom":
            name, _, tail = rest.partition(" ")
            if not name:
                raise ScriptError(line_no, "axiom justification needs an axiom id")
            tail = tail.strip()
            subst = _parse_subst(line_no, tail) if tail else None
            return AxiomInstance(name, subst)
        case "us":
            idx, _, tail = rest.partition(" ")
            if not idx.isdigit():
                raise ScriptError(line_no, "rule 'us' needs a premise step number")
            if not tail.strip():
                raise ScriptError(line_no, "rule 'us' needs a substitution")
            return RuleApp("us", (int(idx),), substitution=_parse_subst(line_no, tail))
        case "sse":
            tokens = rest.split()
            if len(tokens) < 4 or tokens[2] != "at":
                raise ScriptError(line_no, "rule 'sse' looks like: sse <i> <j> at <path> ...")
            i, j = _parse_indices(line_no, tokens[:2], "sse")
            paths = tuple(_parse_path(line_no, t) for t in tokens[3:])
            return RuleApp("sse", (i, j), paths=paths)
        case _ if head in _PREMISES:  # adj, sdet, mp, br, nrest
            return RuleApp(head, _parse_indices(line_no, rest.split(), head))
        case _:
            raise ScriptError(line_no, f"unknown justification {head!r}")


def parse_script(text: str) -> Derivation:
    """Parse a line-oriented proof script.

    Each step is `k. <formula> ; <justification>`, numbered consecutively
    from 1.  Blank lines and lines starting with '#' are skipped.
    Justifications:

        axiom <id>                      axiom as stated
        axiom <id> [p := f, q := g]     instance under simultaneous substitution
        us <i> [p := f]                 uniform substitution into step i
        sse <i> <j> at <path> ...       swap strict equivalents (step j) inside
                                        step i at the dotted paths ('e' = root)
        adj <i> <j>                     conjunction of two steps
        sdet <i> <j>                    strict detachment: i strictly implies, j antecedent
        mp <i> <j>                      modus ponens: i implies, j antecedent
        br <i>                          from box (A -> B) to box (box A -> box B)
        nrest <i>                       necessitation of the tautology at step i
    """
    steps: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _STEP_RE.fullmatch(line)
        if m is None:
            raise ScriptError(line_no, "expected 'k. <formula> ; <justification>'")
        number = int(m.group(1))
        if number != len(steps) + 1:
            raise ScriptError(line_no, f"expected step {len(steps) + 1}, found {number}")
        body = m.group(2)
        formula_text, sep, just_text = body.partition(";")
        if not sep or not just_text.strip():
            raise ScriptError(line_no, "missing '; <justification>'")
        try:
            formula = parse(formula_text.strip())
        except ParseError as exc:
            raise ScriptError(line_no, f"bad formula: {exc}") from exc
        steps.append(Step(formula, _parse_justification(line_no, just_text)))
    return Derivation(tuple(steps))
