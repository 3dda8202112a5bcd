"""Named formula catalog and the reproduction suite.

Each entry records a formula, the frame class it is checked against, the
expected bounded outcome, and a default size bound.  `run_suite` searches
for countermodels and compares what it finds with the expectation.  Entries
marked `UNKNOWN` are open questions: the suite reports the bounded outcome
but never counts them as mismatches.

`json_text` is the one statement of the package's JSON output format: the
suite report, the CLI's witness models and parse trees all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii

from .search import CountermodelReport, find_countermodel
from .semantics import NAMED_CLASSES, Frame, FrameClass, model_to_json
from .syntax import Formula, parse


def json_text(data: object) -> str:
    """`json.dumps(data, indent=2, sort_keys=True)`, for the values the
    package writes: dicts with str keys, lists, str, int, bool and None.

    CPython 3.11's C encoder serves only `indent=None`, so `json.dumps`
    writes this form in pure Python, at about twice the time.  Strings take
    its C escape, `encode_basestring_ascii`, so the bytes are the same."""
    parts: list[str] = []
    _write(data, parts, "\n")
    return "".join(parts)


def _write(x: object, parts: list[str], newline: str) -> None:
    """Append `x` at the indent that `newline` ends with.  One frame a
    container level, as plain loops take none (a comprehension would take
    one more), so it nests as deep as `json.dumps`, give or take the few
    frames above its encoder."""
    t = type(x)
    if t is str:
        parts.append(encode_basestring_ascii(x))
    elif t is int:
        parts.append(int.__repr__(x))
    elif t is bool:
        parts.append("true" if x else "false")
    elif x is None:
        parts.append("null")
    elif t is dict:
        inner, sep = newline + "  ", "{"
        for key in sorted(x):
            parts.append(sep + inner)
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            _write(x[key], parts, inner)
            sep = ","
        parts.append(newline + "}" if x else "{}")
    elif t is list:
        inner, sep = newline + "  ", "["
        for item in x:
            parts.append(sep + inner)
            _write(item, parts, inner)
            sep = ","
        parts.append(newline + "]" if x else "[]")
    else:
        raise TypeError(f"not written as JSON: {t.__name__}")


class Expectation(Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class NamedFormula:
    name: str
    text: str
    formula: Formula
    class_name: str
    frame_class: FrameClass
    expected: Expectation
    bound: int
    note: str


def _entry(name: str, text: str, class_name: str, expected: Expectation, bound: int, note: str) -> NamedFormula:
    return NamedFormula(name, text, parse(text), class_name, NAMED_CLASSES[class_name], expected, bound, note)


def two_point_frame() -> Frame:
    """Normal world 0 whose only successor is the non-normal world 1,
    which loops.  Separates 'box top' from 'box box top'."""
    return Frame(2, (2, 2), 1)


_V, _I, _U = Expectation.VALID, Expectation.INVALID, Expectation.UNKNOWN

CATALOG: tuple[NamedFormula, ...] = (
    # Classical paradoxes transplanted onto the super-strict arrow.  All
    # refutable: an impossible antecedent falsifies any super-strict
    # implication at a normal point.
    _entry("pmi1_as_ssi", "~p |> (p |> q)", "s2", _I, 3,
           "first paradox of material implication, both arrows super-strict; refutable"),
    _entry("pmi2_as_ssi", "q |> (p |> q)", "s2", _I, 3,
           "second paradox of material implication, both arrows super-strict; refutable"),
    _entry("psi1_as_ssi", "bot |> q", "s2", _I, 3,
           "first paradox of strict implication, super-strict reading; the antecedent is never possible"),
    _entry("psi2_as_ssi", "p |> top", "s2", _I, 3,
           "second paradox of strict implication, super-strict reading; fails when p is impossible"),
    _entry("ssi_reflexivity", "p |> p", "s2", _I, 3,
           "reflexivity fails super-strictly: take p impossible"),
    _entry("ssi_contraposition", "(p |> q) -> (~q |> ~p)", "s2", _I, 3,
           "contraposition fails: ~q can be impossible while p |> q holds"),
    _entry("negated_first_psi", "~(bot |> q)", "s2_0", _V, 3,
           "the negated first strict-implication paradox holds at every normal point"),
    # Connexive principles.
    _entry("aristotle1", "~(p |> ~p)", "s2_0", _V, 3,
           "Aristotle's thesis, first form"),
    _entry("aristotle2", "~(~p |> p)", "s2_0", _V, 3,
           "Aristotle's thesis, second form"),
    _entry("weak_boethius1", "(p |> q) -> ~(p |> ~q)", "s2_0", _V, 3,
           "weak Boethius' thesis, first form"),
    _entry("weak_boethius2", "(p |> ~q) -> ~(p |> q)", "s2_0", _V, 3,
           "weak Boethius' thesis, second form"),
    _entry("strong_boethius", "(p |> q) |> ~(p |> ~q)", "s2_0", _I, 3,
           "strong Boethius' thesis fails: the outer antecedent can be impossible"),
    _entry("strong_boethius_s2", "(p |> q) |> ~(p |> ~q)", "s2", _U, 3,
           "open whether some nontrivial frame class validates it; bounded search over reflexive frames"),
    _entry("strong_boethius_s3", "(p |> q) |> ~(p |> ~q)", "s3", _U, 3,
           "open whether some nontrivial frame class validates it; bounded search over preorders"),
    # The classical strict-implication axiom stock with the strict arrow
    # replaced by the super-strict one.  Every replacement is refutable.
    _entry("lewis_ax1_ssi", "(p & q) |> (q & p)", "s2", _I, 2,
           "commutativity axiom, super-strict; fails when p & q is impossible"),
    _entry("lewis_ax2_ssi", "(p & q) |> p", "s2", _I, 2,
           "simplification axiom, super-strict; fails when p & q is impossible"),
    _entry("lewis_ax3_ssi", "p |> (p & p)", "s2", _I, 2,
           "idempotence axiom, super-strict; fails when p is impossible"),
    _entry("lewis_ax4_ssi", "((p & q) & r) |> (p & (q & r))", "s2", _I, 2,
           "associativity axiom, super-strict; fails when the antecedent is impossible"),
    _entry("lewis_ax5_ssi", "((p |> q) & (q |> r)) |> (p |> r)", "s2", _I, 2,
           "transitivity axiom, super-strict; fails when the conjoined antecedent is impossible"),
    _entry("lewis_ax6_ssi", "(p & (p |> q)) |> q", "s2", _I, 2,
           "detachment axiom, super-strict; fails when the antecedent is impossible"),
    _entry("lewis_ax7_ssi", "dia (p & q) |> dia p", "s2", _I, 2,
           "possibility-distribution axiom, super-strict; fails when dia (p & q) is impossible"),
    _entry("s3_ax_ssi", "(p |> q) |> (~dia q |> ~dia p)", "s3", _I, 2,
           "the extra preorder axiom, super-strict; refutable even over preorders"),
    # Possibility-guarded forms: dia A -> (A |> B) recovers each axiom.
    _entry("guarded_ax1", "dia (p & q) -> ((p & q) |> (q & p))", "s2", _V, 3,
           "guarded commutativity: the matrix is a tautology, so possibility of the antecedent suffices"),
    _entry("guarded_ax2", "dia (p & q) -> ((p & q) |> p)", "s2", _V, 3,
           "guarded simplification"),
    _entry("guarded_ax3", "dia p -> (p |> (p & p))", "s2", _V, 3,
           "guarded idempotence"),
    _entry("guarded_ax4", "dia ((p & q) & r) -> (((p & q) & r) |> (p & (q & r)))", "s2", _V, 3,
           "guarded associativity"),
    _entry("guarded_ax5", "dia ((p |> q) & (q |> r)) -> (((p |> q) & (q |> r)) |> (p |> r))", "s2", _V, 3,
           "guarded transitivity: the matrix holds at every point of every frame"),
    _entry("guarded_ax6", "dia (p & (p |> q)) -> ((p & (p |> q)) |> q)", "s2", _V, 3,
           "guarded detachment: needs reflexivity, since the matrix can fail at a normal point otherwise"),
    _entry("guarded_ax7", "dia dia (p & q) -> (dia (p & q) |> dia p)", "s2", _V, 3,
           "guarded possibility distribution"),
    _entry("guarded_s3_ax", "dia (p |> q) -> ((p |> q) |> (~dia q |> ~dia p))", "s3", _I, 3,
           "guarding does NOT rescue the preorder axiom: with a single reflexive normal world where "
           "p and q both hold, ~dia q is impossible, so the inner super-strict implication fails"),
    # Transitivity and guarded reflexivity of the arrow itself.
    _entry("ssi_transitivity", "((p |> q) & (q |> r)) -> (p |> r)", "s2_0", _V, 3,
           "the arrow chains transitively at every normal point of every frame"),
    _entry("guarded_reflexivity", "dia p -> (p |> p)", "s2", _V, 3,
           "reflexivity holds once the antecedent is possible"),
    _entry("negated_guard_reflexivity", "~dia p -> (p |> p)", "s2", _I, 1,
           "the impossibility-guarded form fails immediately: impossible p refutes p |> p"),
    _entry("s3_chained_transitivity",
           "dia (p |> q) -> ((p |> q) |> (dia (q |> r) -> ((q |> r) |> (dia p -> (p |> r)))))",
           "s3", _V, 3,
           "nested possibility-guarded transitivity; needs preorders"),
    # Necessity at non-normal points: box top holds at every normal point,
    # but box box top fails as soon as a normal point sees a non-normal one.
    _entry("box_top", "box top", "s2_0", _V, 3,
           "trivial necessity holds at every normal point"),
    _entry("box_box_top", "box box top", "s2_0", _I, 2,
           "iterated necessity fails on a frame whose normal root sees a non-normal point"),
)


CATALOG_BY_NAME: dict[str, NamedFormula] = {e.name: e for e in CATALOG}


@dataclass(frozen=True)
class SuiteEntryResult:
    entry: NamedFormula
    bound: int
    report: CountermodelReport | None

    @property
    def ok(self) -> bool | None:
        """True/False against the expectation; None for open questions."""
        match self.entry.expected:
            case Expectation.VALID:
                return self.report is None
            case Expectation.INVALID:
                return self.report is not None
            case _:
                return None

    def to_json_dict(self) -> dict:
        witness = None
        if self.report is not None:
            witness = {
                "model": model_to_json(self.report.model),
                "world": self.report.world,
                "n": self.report.frame_size,
            }
        return {
            "name": self.entry.name,
            "formula": self.entry.text,
            "class": self.entry.class_name,
            "bound": self.bound,
            "expected": self.entry.expected.value,
            "verdict": "no_countermodel" if self.report is None else "countermodel",
            "witness": witness,
            "ok": self.ok,
            "note": self.entry.note,
        }


@dataclass(frozen=True)
class SuiteReport:
    max_n: int | None
    results: tuple[SuiteEntryResult, ...]

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.results if r.ok is False)

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "entries": [r.to_json_dict() for r in self.results],
            "mismatches": self.mismatches,
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict()) + "\n"

    def table(self) -> str:
        header = ("name", "class", "bound", "expected", "outcome", "status")
        rows = [header]
        for r in self.results:
            if r.report is None:
                outcome = f"no countermodel up to n={r.bound}"
            else:
                outcome = f"countermodel at n={r.report.frame_size}"
            status = {True: "ok", False: "MISMATCH", None: "open"}[r.ok]
            rows.append((r.entry.name, r.entry.class_name, str(r.bound),
                         r.entry.expected.value, outcome, status))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(f"mismatches: {self.mismatches}")
        return "\n".join(lines) + "\n"


def run_suite(max_n: int | None = None) -> SuiteReport:
    """Check every catalog entry, at its own bound or a uniform override."""
    results = []
    for entry in CATALOG:
        bound = max_n if max_n is not None else entry.bound
        report = find_countermodel(entry.formula, entry.frame_class, bound)
        results.append(SuiteEntryResult(entry, bound, report))
    return SuiteReport(max_n, tuple(results))
