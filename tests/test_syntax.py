"""Grammar, printer, metrics, substitution, and translation tests."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstrict.catalog import CATALOG
from superstrict.syntax import (
    And,
    Bot,
    Box,
    Dia,
    Imp,
    Language,
    Or,
    ParseError,
    Ssi,
    Sssi,
    Strict,
    Var,
    _tokenize,
    desugar,
    formula_from_json,
    formula_to_json,
    in_language,
    modal_depth,
    neg,
    parse,
    pretty,
    replace_at,
    subformula_at,
    substitute_many,
    substitute_uniform,
    to_box_language,
    to_strict_language,
    top,
    variables,
    weight,
)

from oracles import pretty_bottom_up, tokenize
from strategies import extensional_formulas, formulas

GOLDEN = Path(__file__).parent / "golden"

P, Q, R = Var("p"), Var("q"), Var("r")


class TestParse:
    def test_ssi_atom_pair(self):
        assert parse("p |> p") == Ssi(P, P)

    def test_negation_is_sugar(self):
        assert parse("~(bot |> q)") == Imp(Ssi(Bot(), Q), Bot())

    def test_conjunction_antecedent(self):
        assert parse("(p & q) |> p") == Ssi(And(P, Q), P)

    def test_top_is_sugar(self):
        assert parse("top") == Imp(Bot(), Bot())

    def test_all_four_arrows(self):
        assert parse("p -> q") == Imp(P, Q)
        assert parse("p => q") == Strict(P, Q)
        assert parse("p |> q") == Ssi(P, Q)
        assert parse("p ||> q") == Sssi(P, Q)

    def test_prefix_operators(self):
        assert parse("box p") == Box(P)
        assert parse("dia p") == Dia(P)
        assert parse("~p") == Imp(P, Bot())
        assert parse("box dia ~p") == Box(Dia(Imp(P, Bot())))

    def test_precedence_layers(self):
        assert parse("p & q | r") == Or(And(P, Q), R)
        assert parse("p | q -> r") == Imp(Or(P, Q), R)
        assert parse("box p & q") == And(Box(P), Q)

    def test_binaries_right_associative(self):
        assert parse("p & q & r") == And(P, And(Q, R))
        assert parse("p | q | r") == Or(P, Or(Q, R))
        assert parse("p -> q -> r") == Imp(P, Imp(Q, R))
        assert parse("p |> q |> r") == Ssi(P, Ssi(Q, R))

    def test_mixed_arrows_need_parens(self):
        with pytest.raises(ParseError, match="cannot mix"):
            parse("p |> q -> r")
        with pytest.raises(ParseError, match="cannot mix"):
            parse("p => q ||> r")
        assert parse("p |> (q -> r)") == Ssi(P, Imp(Q, R))
        assert parse("(p |> q) -> r") == Imp(Ssi(P, Q), R)

    def test_longer_variable_names(self):
        assert parse("p1 |> rain") == Ssi(Var("p1"), Var("rain"))

    def test_unknown_token_position(self):
        with pytest.raises(ParseError, match=r"line 1, column 3"):
            parse("p $ q")

    def test_error_line_tracking(self):
        with pytest.raises(ParseError, match=r"line 2"):
            parse("p &\n& q")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(p |> q")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_keyword_not_a_variable(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("box")


def test_parse_corpus_replay():
    """Inputs recorded with their results by `golden/make_parse_corpus.py`."""
    corpus = json.loads((GOLDEN / "parse_corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) == 2000
    for entry in corpus:
        try:
            got = {"input": entry["input"], "json": formula_to_json(parse(entry["input"]))}
        except ParseError as exc:
            got = {"input": entry["input"], "error": str(exc)}
        assert got == entry


def token_outcome(tokenize, text):
    """The tokens of `text`, or the message and position of its ParseError."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


# Valid and invalid text: the grammar's words and symbols, pieces of them,
# spaces and newlines, non-ASCII letters, digits and spaces, and any other
# character; and printed formulas.
TOKEN_PIECES = ["p", "q1", "_x", "box", "dia", "top", "bot", "boxp", "(", ")", "&", "|", "~", "->", "=>", "|>", "||>",
                "-", ">", "=", "|||>", " ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\xa0", "\u2028", "\u3000",
                "é", "ß", "Ω", "日", "_é", "é1", "1", "٣", "²", "½", "\u0301", "\u200b", "!"]
TOKEN_TEXT = st.one_of(
    st.lists(st.one_of(st.sampled_from(TOKEN_PIECES), st.characters()), max_size=30).map("".join),
    formulas(max_leaves=6).map(pretty),
)


@settings(max_examples=1000)
@given(TOKEN_TEXT)
def test_tokenizer_matches_the_character_scan(text):
    assert token_outcome(_tokenize, text) == token_outcome(tokenize, text)


def test_translate_corpus_replay():
    """Translations recorded by `golden/make_translate_corpus.py`."""
    corpus = json.loads((GOLDEN / "translate_corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) == 800
    for entry in corpus:
        f = parse(entry["input"])
        core = desugar(f)
        got = {"input": entry["input"], "core": formula_to_json(core), "box": formula_to_json(to_box_language(f)),
               "strict": formula_to_json(to_strict_language(f))}
        assert got == entry
        if in_language(f, Language.CORE):
            assert core is f


class TestEquality:
    def test_structural(self):
        assert parse("p |> box q") == Ssi(P, Box(Q))
        assert hash(parse("p |> box q")) == hash(Ssi(P, Box(Q)))
        assert Ssi(P, Q) != Sssi(P, Q)
        assert And(P, Q) != And(P, R)
        assert Var("a") != Var("b")

    def test_not_a_formula(self):
        assert P != "p"
        assert Var.__eq__(P, "p") is NotImplemented
        assert {P: 1, Bot(): 2}[Var("p")] == 1


class TestPretty:
    def test_plain_arrow(self):
        assert pretty(Ssi(P, Q)) == "p |> q"

    def test_precedence_parens(self):
        assert pretty(And(P, Or(Q, R))) == "p & (q | r)"

    def test_top_sugar_on_output(self):
        assert pretty(Imp(Bot(), Bot())) == "top"

    def test_negation_sugar_on_output(self):
        assert pretty(Imp(P, Bot())) == "~p"
        assert pretty(Imp(And(P, Q), Bot())) == "~(p & q)"

    def test_right_associative_chains_unparenthesized(self):
        assert pretty(And(P, And(Q, R))) == "p & q & r"
        assert pretty(And(And(P, Q), R)) == "(p & q) & r"
        assert pretty(Ssi(P, Ssi(Q, R))) == "p |> q |> r"

    def test_nested_arrows_of_distinct_kinds(self):
        assert pretty(Imp(Ssi(P, Q), Ssi(neg(Q), neg(P)))) == "(p |> q) -> (~q |> ~p)"

    def test_prefix_tightness(self):
        assert pretty(Box(Imp(P, Q))) == "box (p -> q)"
        assert pretty(And(Dia(P), Q)) == "dia p & q"

    @given(formulas())
    def test_roundtrip(self, f):
        assert parse(pretty(f)) == f

    def test_shared_node_parenthesized_by_each_parent(self):
        x = Or(P, Q)
        f = And(Imp(x, x), And(x, Box(x)))
        assert pretty(f) == "(p | q -> p | q) & (p | q) & box (p | q)"
        text = pretty(f)
        assert pretty(Ssi(And(f, Box(f)), f)) == f"({text}) & box ({text}) |> {text}"

    @given(formulas())
    def test_same_text_as_bottom_up(self, f):
        for g in (f, desugar(f), to_box_language(f), to_strict_language(f)):
            assert pretty(g) == pretty_bottom_up(g)

    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_catalog_same_text_as_bottom_up(self, entry):
        f = entry.formula
        for g in (f, desugar(f), to_box_language(f), to_strict_language(f)):
            assert pretty(g) == pretty_bottom_up(g)

    def test_nested_shared_chain(self):
        f = P
        for _ in range(12):
            f = Ssi(f, Q)
        for g in (desugar(f), to_box_language(f), to_strict_language(f)):
            assert pretty(g) == pretty_bottom_up(g)


class TestMetrics:
    def test_weight_variable(self):
        assert weight(P) == 0

    def test_weight_two_binary_nodes(self):
        assert weight(parse("(p & q) |> p")) == 2

    def test_weight_ignores_unary(self):
        assert weight(parse("box (p |> q)")) == 1

    def test_modal_depth_extensional(self):
        assert modal_depth(parse("p -> q")) == 0

    def test_modal_depth_single_arrow(self):
        assert modal_depth(parse("~(p |> ~p)")) == 1

    def test_modal_depth_nested_boxes(self):
        assert modal_depth(parse("box box top")) == 2

    def test_modal_depth_counts_strict_and_strong(self):
        assert modal_depth(parse("p => (q ||> r)")) == 2

    @given(formulas())
    def test_weight_never_drops_under_desugar(self, f):
        assert weight(desugar(f)) >= weight(f)


class TestSubstitution:
    def test_all_occurrences(self):
        assert substitute_uniform(parse("p |> p"), "p", parse("q & r")) == parse("(q & r) |> (q & r)")

    def test_absent_variable(self):
        assert substitute_uniform(parse("p |> q"), "r", Bot()) == parse("p |> q")

    def test_axiom_instance(self):
        assert substitute_uniform(parse("(p & q) |> p"), "p", Bot()) == parse("(bot & q) |> bot")

    def test_simultaneous_swap(self):
        assert substitute_many(parse("p |> q"), {"p": Q, "q": P}) == parse("q |> p")

    @given(formulas())
    def test_identity_substitution(self, f):
        assert substitute_uniform(f, "p", P) == f

    @given(formulas(), extensional_formulas())
    def test_modal_depth_preserved_by_flat_replacement(self, f, b):
        assert modal_depth(substitute_uniform(f, "p", b)) == modal_depth(f)


class TestReplaceAt:
    def test_one_of_two(self):
        assert replace_at(parse("p & p"), [(0,)], Q) == parse("q & p")

    def test_both(self):
        assert replace_at(parse("p & p"), [(0,), (1,)], Q) == parse("q & q")

    def test_empty_position_set(self):
        f = parse("p & p")
        assert replace_at(f, [], Q) == f

    def test_root_path(self):
        assert replace_at(P, [()], Q) == Q

    def test_subformula_at(self):
        f = parse("(p |> q) -> (~q |> ~p)")
        assert subformula_at(f, (0,)) == parse("p |> q")
        assert subformula_at(f, (1, 0)) == parse("~q")
        assert subformula_at(f, ()) == f

    def test_invalid_path(self):
        with pytest.raises(ValueError):
            subformula_at(P, (0,))
        with pytest.raises(ValueError):
            replace_at(parse("p & q"), [(5,)], R)

    def test_mixed_occurrences_rejected(self):
        with pytest.raises(ValueError):
            replace_at(parse("p & q"), [(0,), (1,)], R)

    def test_replace_corpus_replay(self):
        """Cases recorded with their results by `golden/make_replace_corpus.py`."""
        corpus = json.loads((GOLDEN / "replace_corpus.json").read_text(encoding="utf-8"))
        assert len(corpus) == 1200
        for entry in corpus:
            f, paths, text = parse(entry["formula"]), entry["paths"], entry["replacement"]
            g = subformula_at(f, paths[0]) if text is None else parse(text)
            got = {"formula": entry["formula"], "paths": paths, "replacement": text}
            try:
                result = replace_at(f, paths, g)
            except ValueError as exc:
                got["error"] = str(exc)
            else:
                got.update(result=formula_to_json(result), same=result is f)
            assert got == entry


class TestDesugar:
    def test_dia(self):
        assert desugar(Dia(P)) == Ssi(P, top())

    def test_box(self):
        assert desugar(Box(P)) == neg(Ssi(neg(P), top()))

    def test_strong_arrow(self):
        assert desugar(Sssi(P, Q)) == And(Ssi(P, Q), Ssi(neg(Q), top()))

    def test_strict(self):
        assert desugar(Strict(P, Q)) == neg(Ssi(And(P, neg(Q)), top()))

    def test_innermost_first(self):
        assert desugar(Dia(Dia(P))) == Ssi(Ssi(P, top()), top())

    @given(formulas())
    def test_output_is_core(self, f):
        assert in_language(desugar(f), Language.CORE)

    @given(formulas())
    def test_idempotent(self, f):
        assert desugar(desugar(f)) == desugar(f)


class TestTranslations:
    def test_ssi_to_box(self):
        assert to_box_language(Ssi(P, Q)) == And(Dia(P), Box(Imp(P, Q)))
        assert pretty(to_box_language(parse("p |> q"))) == "dia p & box (p -> q)"

    def test_strict_to_box(self):
        assert to_box_language(Strict(P, Q)) == Box(Imp(P, Q))

    def test_extensional_unchanged(self):
        assert to_box_language(parse("p & q")) == parse("p & q")

    @given(formulas())
    def test_box_output_language(self, f):
        assert in_language(to_box_language(f), Language.BOX)

    def test_box_to_strict(self):
        assert to_strict_language(Box(P)) == Strict(top(), P)

    def test_dia_to_strict(self):
        assert to_strict_language(Dia(P)) == neg(Strict(top(), neg(P)))

    @given(formulas())
    def test_strict_output_language(self, f):
        assert in_language(to_strict_language(f), Language.STRICT)


class TestLanguages:
    def test_core_membership(self):
        assert in_language(parse("~(p |> ~p)"), Language.CORE)
        assert not in_language(parse("box p"), Language.CORE)

    def test_box_membership(self):
        assert in_language(parse("dia p & box (p -> q)"), Language.BOX)
        assert not in_language(parse("p => q"), Language.BOX)

    def test_full_membership(self):
        assert in_language(parse("(p ||> q) & box (p => q)"), Language.FULL)

    def test_variables(self):
        assert variables(parse("(p |> q) -> (~q |> ~p)")) == frozenset({"p", "q"})
        assert variables(top()) == frozenset()


class TestJson:
    @given(formulas())
    def test_roundtrip(self, f):
        assert formula_from_json(json.loads(json.dumps(formula_to_json(f)))) == f

    def test_shape(self):
        assert formula_to_json(Ssi(P, Bot())) == {
            "op": "ssi",
            "args": [{"op": "var", "args": ["p"]}, {"op": "bot", "args": []}],
        }

    def test_bad_arity(self):
        with pytest.raises(ValueError, match="takes 2 arguments"):
            formula_from_json({"op": "and", "args": [{"op": "bot", "args": []}]})

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            formula_from_json({"op": "xor", "args": []})

    def test_golden_ast(self):
        expected = json.loads((GOLDEN / "contraposition_ast.json").read_text())
        assert formula_to_json(parse("(p |> q) -> (~q |> ~p)")) == expected
