"""Axiomatic derivation checking for both proof styles."""

import tracemalloc
from pathlib import Path

import pytest

from superstrict.proof import (
    AxiomInstance,
    Derivation,
    DerivationError,
    RuleApp,
    ScriptError,
    Step,
    SystemId,
    check,
    match_schema,
    parse_script,
    soundness_spotcheck,
    system_frame_class,
    taut,
    TAUT_LIMIT,
)
from superstrict.semantics import S2, S2_0, S3
from superstrict.syntax import Imp, Var, parse

DATA = Path(__file__).parent / "data"


def load(name: str) -> Derivation:
    return parse_script((DATA / name).read_text())


class TestTaut:
    def test_plain_tautology(self):
        assert taut(parse("p -> p"))
        assert taut(parse("top"))
        assert taut(parse("p | ~p"))
        assert taut(parse("(p & q) -> (q & p)"))

    def test_non_tautologies(self):
        assert not taut(parse("p"))
        assert not taut(parse("bot"))
        assert not taut(parse("p -> q"))

    def test_modal_subformulas_are_opaque(self):
        assert taut(parse("box p -> box p"))
        assert not taut(parse("box p -> p"))
        assert taut(parse("(p |> q) | ~(p |> q)"))
        assert not taut(parse("box (p & q) -> box (q & p)"))

    def test_opaque_atoms_are_whole_subtrees(self):
        # dia p and box p are distinct atoms, so this is contingent
        assert not taut(parse("dia p -> dia q"))

    def test_twenty_atoms(self):
        atoms = [f"p{i}" for i in range(20)]
        assert taut(parse(f"({' & '.join(atoms)}) -> p19"))
        assert not taut(parse(f"({' | '.join(atoms)}) -> p19"))

    def test_limit_is_checked_before_evaluating(self):
        # 40 atoms would need a 2^40-bit table per subformula
        f = parse(" & ".join(f"p{i}" for i in range(40)) + " -> p0")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"limit of {TAUT_LIMIT} truth-table bits"):
                taut(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_counts_maximal_atoms_only(self):
        # b13 -> ... -> b0 -> b0 over fourteen boxes of 42 variables: 14 atoms, not 56
        boxes = [parse(f"box (q{3 * i} & q{3 * i + 1} & q{3 * i + 2})") for i in range(14)]
        f = boxes[0]
        for g in boxes:
            f = Imp(g, f)
        assert taut(f)


class TestMatchSchema:
    def test_binds_all_variables(self):
        schema = parse("box (a -> b) -> (box a -> box b)")
        target = parse("box ((p & q) -> r) -> (box (p & q) -> box r)")
        assert match_schema(schema, target) == {"a": parse("p & q"), "b": Var("r")}

    def test_nonlinear_consistency(self):
        assert match_schema(parse("a -> a"), parse("p -> p")) == {"a": Var("p")}
        assert match_schema(parse("a -> a"), parse("p -> q")) is None

    def test_shape_mismatch(self):
        assert match_schema(parse("box a"), parse("dia p")) is None
        assert match_schema(parse("bot"), parse("p")) is None


class TestLewisChecking:
    def test_full_rule_tour(self):
        d = load("lewis_idempotence.proof")
        check(SystemId.LEWIS_S2, d)
        check(SystemId.LEWIS_S3, d)  # only shared axioms are used

    def test_axiom_as_stated(self):
        d = parse_script("1. (p & q) => p ; axiom 2\n")
        check(SystemId.LEWIS_S2, d)

    def test_axiom_instance_by_substitution(self):
        d = parse_script("1. (q & p) => q ; axiom 2 [p := q, q := p]\n")
        check(SystemId.LEWIS_S2, d)

    def test_axiom_instance_needs_substitution(self):
        d = parse_script("1. (q & p) => q ; axiom 2\n")
        with pytest.raises(DerivationError, match="use a substitution"):
            check(SystemId.LEWIS_S2, d)

    def test_wrong_axiom_formula(self):
        d = parse_script("1. (p & q) => q ; axiom 2\n")
        with pytest.raises(DerivationError, match="error at step 1"):
            check(SystemId.LEWIS_S2, d)

    def test_s3_swaps_axiom_7(self):
        s2_form = parse_script("1. dia (p & q) => dia p ; axiom 7\n")
        s3_form = parse_script("1. (p => q) => (~dia q => ~dia p) ; axiom 7\n")
        check(SystemId.LEWIS_S2, s2_form)
        check(SystemId.LEWIS_S3, s3_form)
        with pytest.raises(DerivationError):
            check(SystemId.LEWIS_S3, s2_form)
        with pytest.raises(DerivationError):
            check(SystemId.LEWIS_S2, s3_form)

    def test_sse_matches_either_direction(self):
        d = load("lewis_idempotence.proof")
        assert d.steps[4].formula == parse("(p & p) => (p & p)")
        assert d.steps[5].formula == parse("p => p")

    def test_sse_rejects_foreign_occurrence(self):
        text = (
            "1. p => (p & p) ; axiom 3\n"
            "2. (p & q) => p ; axiom 2\n"
            "3. (p & p) => p ; us 2 [q := p]\n"
            "4. (p => (p & p)) & ((p & p) => p) ; adj 1 3\n"
            "5. (p & q) => p ; sse 2 4 at 0.1\n"
        )
        with pytest.raises(DerivationError, match="neither side"):
            check(SystemId.LEWIS_S2, parse_script(text))

    def test_sse_premise_must_be_equivalence(self):
        text = (
            "1. p => (p & p) ; axiom 3\n"
            "2. (p & q) => p ; axiom 2\n"
            "3. (p & p) => (p & p) ; sse 1 2 at 0\n"
        )
        with pytest.raises(DerivationError, match="converse strict implications"):
            check(SystemId.LEWIS_S2, parse_script(text))

    def test_sdet_antecedent_mismatch(self):
        text = (
            "1. p => (p & p) ; axiom 3\n"
            "2. (p & q) => p ; axiom 2\n"
            "3. p & p ; sdet 1 2\n"
        )
        with pytest.raises(DerivationError, match="antecedent"):
            check(SystemId.LEWIS_S2, parse_script(text))

    def test_premise_must_be_earlier(self):
        text = "1. (p & q) => p ; axiom 2\n2. ((p & q) => p) & ((p & q) => p) ; adj 2 1\n"
        with pytest.raises(DerivationError, match="earlier step"):
            check(SystemId.LEWIS_S2, parse_script(text))

    def test_language_gate(self):
        d = parse_script("1. p |> q ; axiom 2\n")
        with pytest.raises(DerivationError, match="outside the lewis-s2 language"):
            check(SystemId.LEWIS_S2, d)

    def test_lemmon_rules_unavailable(self):
        text = "1. (p & q) => p ; axiom 2\n2. box ((p & q) => p) ; nrest 1\n"
        with pytest.raises(DerivationError, match="not available in lewis-s2"):
            check(SystemId.LEWIS_S2, parse_script(text))


class TestLemmonChecking:
    def test_box_top(self):
        check(SystemId.LEMMON_S2, load("lemmon_box_top.proof"))
        check(SystemId.LEMMON_S2_0, load("lemmon_box_top.proof"))

    def test_nrest_rejected_on_non_tautology(self):
        with pytest.raises(DerivationError) as exc:
            check(SystemId.LEMMON_S2, load("lemmon_nrest_bad.proof"))
        assert exc.value.step == 2
        assert "tautological premise" in exc.value.message

    def test_becker(self):
        check(SystemId.LEMMON_S2, load("lemmon_becker.proof"))
        check(SystemId.LEMMON_S2_0, load("lemmon_becker.proof"))

    def test_becker_unavailable_in_s3(self):
        with pytest.raises(DerivationError) as exc:
            check(SystemId.LEMMON_S3, load("lemmon_becker.proof"))
        assert exc.value.step == 3
        assert "not available in lemmon-s3" in exc.value.message

    def test_k_schema_by_matching(self):
        d = parse_script("1. box ((p & q) -> r) -> (box (p & q) -> box r) ; axiom k\n")
        check(SystemId.LEMMON_S2, d)

    def test_k_schema_by_substitution(self):
        d = parse_script("1. box ((p & q) -> r) -> (box (p & q) -> box r) ; axiom k [a := p & q, b := r]\n")
        check(SystemId.LEMMON_S2, d)

    def test_s3_strengthens_k(self):
        plain = parse_script("1. box (p -> q) -> (box p -> box q) ; axiom k\n")
        strong = parse_script("1. box (p -> q) -> box (box p -> box q) ; axiom k\n")
        check(SystemId.LEMMON_S2, plain)
        check(SystemId.LEMMON_S3, strong)
        with pytest.raises(DerivationError):
            check(SystemId.LEMMON_S3, plain)
        with pytest.raises(DerivationError):
            check(SystemId.LEMMON_S2, strong)

    def test_t_unavailable_in_weakest_system(self):
        d = parse_script("1. box p -> p ; axiom t\n")
        check(SystemId.LEMMON_S2, d)
        with pytest.raises(DerivationError, match="not available in lemmon-s2_0"):
            check(SystemId.LEMMON_S2_0, d)

    def test_mp(self):
        text = (
            "1. (p & q) -> p ; axiom pc\n"
            "2. ((p & q) -> p) -> (q -> ((p & q) -> p)) ; axiom pc\n"
            "3. q -> ((p & q) -> p) ; mp 2 1\n"
        )
        check(SystemId.LEMMON_S2, parse_script(text))

    def test_pc_rejects_contingency(self):
        d = parse_script("1. box p -> p ; axiom pc\n")
        with pytest.raises(DerivationError, match="not a classical tautology"):
            check(SystemId.LEMMON_S2, d)

    def test_language_gate(self):
        d = parse_script("1. (p => q) | ~(p => q) ; axiom pc\n")
        with pytest.raises(DerivationError, match="outside the lemmon-s2 language"):
            check(SystemId.LEMMON_S2, d)


@pytest.mark.parametrize(("app", "message"), [(RuleApp("mp", (1,)), "rule 'mp' takes 2 premises, got 1"),
                                              (RuleApp("nrest", (1, 1)), "rule 'nrest' takes 1 premise, got 2")])
def test_wrong_premise_count(app, message):
    d = Derivation((Step(parse("p -> p"), AxiomInstance("pc")), Step(parse("box (p -> p)"), app)))
    with pytest.raises(DerivationError, match=f"^error at step 2: {message}$"):
        check(SystemId.LEMMON_S2, d)


_MP_STEPS = "1. (p -> p) -> (q -> q) ; axiom pc\n2. p -> p ; axiom pc\n3. p | ~p ; axiom pc\n"
_SDET_STEPS = ("1. p => (p & p) ; axiom 3\n"
               "2. (p => (p & p)) => ((p => (p & p)) & (p => (p & p))) ; us 1 [p := p => (p & p)]\n"
               "3. (p => (p & p)) & (p => (p & p)) ; adj 1 1\n")


@pytest.mark.parametrize(("system", "script", "message"), [
    (SystemId.LEMMON_S2, _MP_STEPS + "4. q ; mp 3 2", "first premise is not a material implication"),
    (SystemId.LEMMON_S2, _MP_STEPS + "4. q ; mp 2 3", "second premise does not match the antecedent"),
    (SystemId.LEMMON_S2, _MP_STEPS + "4. q ; mp 1 2", "formula does not match the consequent"),
    (SystemId.LEWIS_S2, _SDET_STEPS + "4. p ; sdet 3 1", "first premise is not a strict implication"),
    (SystemId.LEWIS_S2, _SDET_STEPS + "4. p ; sdet 1 3", "second premise does not match the strict antecedent"),
    (SystemId.LEWIS_S2, _SDET_STEPS + "4. p ; sdet 2 1", "formula does not match the strict consequent"),
], ids=["mp-first", "mp-antecedent", "mp-consequent", "sdet-first", "sdet-antecedent", "sdet-consequent"])
def test_detachment_errors(system, script, message):
    with pytest.raises(DerivationError) as exc:
        check(system, parse_script(script))
    assert str(exc.value) == f"error at step 4: {message}"


_SSE_STEPS = ("1. (p & q) => (q & p) ; axiom 1\n"
              "2. (q & p) => (p & q) ; us 1 [p := q, q := p]\n"
              "3. ((p & q) => (q & p)) & ((q & p) => (p & q)) ; adj 1 2\n")


@pytest.mark.parametrize(("formula", "app", "message"), [
    ("(q & p) => (q & p)", RuleApp("sse", (1, 1), paths=((0,),)),
     "second premise is not a conjunction of two converse strict implications"),
    ("(q & p) => (q & p)", RuleApp("sse", (1, 3), paths=()),
     "substitution of strict equivalents needs occurrence paths"),
    ("(q & p) => (q & p)", RuleApp("sse", (1, 3), paths=((0,), (5,))),
     "invalid path at position 0: node has 2 children"),
    ("(q & p) => (q & p)", RuleApp("sse", (1, 3), paths=((0, 0),)),
     "addressed occurrence matches neither side of the equivalence"),
    ("(q & p) => (p & q)", RuleApp("sse", (1, 3), paths=((0,), (1,))), "paths address distinct subformulas"),
    ("(p & q) => (q & p)", RuleApp("sse", (1, 3), paths=((0,),)),
     "formula is not the premise with the addressed occurrences swapped"),
], ids=["not-equivalence", "no-paths", "invalid-path", "neither-side", "distinct", "not-swapped"])
def test_sse_errors(formula, app, message):
    d = parse_script(_SSE_STEPS)
    d = Derivation((*d.steps, Step(parse(formula), app)))
    with pytest.raises(DerivationError) as exc:
        check(SystemId.LEWIS_S2, d)
    assert str(exc.value) == f"error at step 4: {message}"


class TestScriptParsing:
    def test_comments_and_blanks(self):
        d = parse_script("# a comment\n\n1. top ; axiom pc\n\n2. box top ; nrest 1\n")
        assert len(d.steps) == 2

    def test_numbering_enforced(self):
        with pytest.raises(ScriptError) as exc:
            parse_script("1. top ; axiom pc\n3. box top ; nrest 1\n")
        assert exc.value.line == 2
        assert "expected step 2" in exc.value.message

    def test_missing_justification(self):
        with pytest.raises(ScriptError, match="justification"):
            parse_script("1. top\n")

    def test_bad_formula_cites_line(self):
        with pytest.raises(ScriptError) as exc:
            parse_script("1. top ; axiom pc\n2. p &&& q ; axiom pc\n")
        assert exc.value.line == 2

    def test_bad_substitution(self):
        with pytest.raises(ScriptError, match="lacks ':='"):
            parse_script("1. p => p ; axiom 3 [p]\n")
        with pytest.raises(ScriptError, match="substituted twice"):
            parse_script("1. p => p ; us 1 [p := q, p := r]\n")

    def test_bad_path(self):
        with pytest.raises(ScriptError, match="occurrence path"):
            parse_script("1. p => p ; sse 1 1 at x.y\n")

    def test_unknown_justification(self):
        with pytest.raises(ScriptError, match="unknown justification"):
            parse_script("1. p => p ; hopeful 1\n")

    def test_structured_form(self):
        d = parse_script("1. (p & q) => p ; axiom 2\n2. (p & p) => p ; us 1 [q := p]\n")
        assert d.steps[0].justification == AxiomInstance("2", None)
        assert d.steps[1].justification == RuleApp("us", (1,), substitution={"q": Var("p")})


class TestSpotcheck:
    def test_lewis_tour_sound_over_s2(self):
        entries = soundness_spotcheck(SystemId.LEWIS_S2, load("lewis_idempotence.proof"), 2)
        assert all(e.valid_up_to_bound for e in entries)

    def test_box_top_sound(self):
        entries = soundness_spotcheck(SystemId.LEMMON_S2, load("lemmon_box_top.proof"), 3)
        assert all(e.valid_up_to_bound for e in entries)

    def test_wrong_class_exposes_t(self):
        d = parse_script("1. box p -> p ; axiom t\n")
        over_own = soundness_spotcheck(SystemId.LEMMON_S2, d, 2)
        assert all(e.valid_up_to_bound for e in over_own)
        over_weak = soundness_spotcheck(SystemId.LEMMON_S2, d, 2, frame_class=S2_0)
        assert not over_weak[0].valid_up_to_bound
        assert over_weak[0].countermodel.frame_size == 1

    def test_bound_checked_before_any_step(self):
        # an empty derivation has no step to search, and the bound is refused all the same
        for d in (Derivation(()), load("lemmon_box_top.proof")):
            with pytest.raises(ValueError, match="max_n must be at least 1"):
                soundness_spotcheck(SystemId.LEMMON_S2, d, 0)

    def test_requires_checked_derivation(self):
        bad = parse_script("1. box p -> p ; axiom pc\n")
        with pytest.raises(DerivationError):
            soundness_spotcheck(SystemId.LEMMON_S2, bad, 2)

    def test_system_classes(self):
        assert system_frame_class(SystemId.LEWIS_S2) == S2
        assert system_frame_class(SystemId.LEWIS_S3) == S3
        assert system_frame_class(SystemId.LEMMON_S2_0) == S2_0
        assert system_frame_class(SystemId.LEMMON_S2) == S2
        assert system_frame_class(SystemId.LEMMON_S3) == S3
