"""Frames, models, truth clauses, and their cross-checks."""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superstrict.semantics import (
    NAMED_CLASSES,
    S2,
    S2_0,
    S3,
    Frame,
    FrameClass,
    Model,
    extension,
    frame_from_json,
    frame_to_json,
    holds,
    model_from_json,
    model_to_json,
    relation_satisfies,
    satisfies_class,
    true_in_model,
    valid_on_frame,
)
from superstrict.syntax import (
    And,
    Bot,
    Box,
    Dia,
    Ssi,
    Sssi,
    Strict,
    Var,
    desugar,
    parse,
    to_box_language,
    to_strict_language,
)

from oracles import CONDITION_SETS, condition_id, eval_json, naive_frames, normal_eval_json
from strategies import formulas, model_world_pairs, models

P, Q = Var("p"), Var("q")

LOOP = Frame(1, (1,), 1)  # single normal world that sees itself


class TestFrameClass:
    def test_presets(self):
        assert S2_0 == FrameClass()
        assert S2 == FrameClass(reflexive=True)
        assert S3 == FrameClass(reflexive=True, transitive=True)

    def test_named_classes(self):
        assert NAMED_CLASSES["s2"] is S2
        assert NAMED_CLASSES["k"].all_normal
        assert NAMED_CLASSES["s4"] == FrameClass(reflexive=True, transitive=True, all_normal=True)
        assert NAMED_CLASSES["s5"].euclidean and NAMED_CLASSES["s5"].reflexive
        assert NAMED_CLASSES["kd45"].serial

    def test_irreflexive_point_fails_s2(self):
        assert not satisfies_class(Frame(1, (0,), 1), S2)

    def test_loop_satisfies_s3(self):
        assert satisfies_class(LOOP, S3)

    def test_all_normal_needs_every_world(self):
        frame = Frame(2, (1, 2), 1)  # loops only, world 1 non-normal
        assert not satisfies_class(frame, NAMED_CLASSES["kt"])
        assert satisfies_class(Frame(2, (1, 2), 3), NAMED_CLASSES["kt"])

    def test_relation_properties(self):
        assert relation_satisfies((2, 1), 2, FrameClass(symmetric=True))
        assert not relation_satisfies((2, 0), 2, FrameClass(symmetric=True))
        assert relation_satisfies((2, 2), 2, FrameClass(serial=True))
        assert not relation_satisfies((2, 0), 2, FrameClass(serial=True))
        # 0 -> 1 -> 0 without 0 -> 0 is not transitive and not euclidean
        assert not relation_satisfies((2, 1), 2, FrameClass(transitive=True))
        assert not relation_satisfies((2, 1), 2, FrameClass(euclidean=True))

    @pytest.mark.parametrize("conditions", CONDITION_SETS, ids=condition_id)
    def test_relation_satisfies_matches_oracle(self, conditions):
        # every relation on up to three worlds, against the oracle's conditions
        fc = FrameClass(**conditions)
        for n in range(1, 4):
            mine = set()
            for rel in itertools.product(range(1 << n), repeat=n):
                ok = relation_satisfies(rel, n, fc)
                assert type(ok) is bool
                if ok:
                    mine.add(frozenset((i, j) for i in range(n) for j in range(n) if rel[i] >> j & 1))
            assert mine == {frozenset(edges) for edges, _ in naive_frames(n, all_normal=True, **conditions)}


class TestFrameModelConstruction:
    def test_frame_needs_a_world(self):
        with pytest.raises(ValueError):
            Frame(0, (), 0)

    def test_relation_row_bounds(self):
        with pytest.raises(ValueError):
            Frame(1, (2,), 0)
        with pytest.raises(ValueError):
            Frame(2, (1,), 0)

    def test_normals_bounds(self):
        with pytest.raises(ValueError):
            Frame(1, (1,), 2)

    def test_valuation_bounds(self):
        with pytest.raises(ValueError):
            Model(LOOP, {"p": 2})

    def test_from_edges_and_sets(self):
        frame = Frame.from_edges(2, [(0, 1), (1, 1)], [0])
        assert frame == Frame(2, (2, 2), 1)
        model = Model.from_sets(frame, {"p": [0, 1]})
        assert model.valuation["p"] == 3


class TestTruthClauses:
    def test_ssi_holds_on_loop(self):
        assert holds(Model(LOOP, {"p": 1}), 0, parse("p |> p"))

    def test_ssi_fails_at_non_normal_point(self):
        model = Model(Frame(2, (2, 0), 1), {"p": 3})
        assert not holds(model, 1, parse("p |> p"))

    def test_impossible_antecedent(self):
        model = Model(LOOP, {"q": 1})
        assert not holds(model, 0, parse("bot |> q"))

    @pytest.mark.parametrize("f", [5, "p", And(P, None)], ids=["int", "str", "child"])
    def test_not_a_formula(self, f):
        with pytest.raises(TypeError, match="^not a formula: "):
            extension(Model(LOOP, {}), f)

    def test_world_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            holds(Model(LOOP, {}), 1, P)

    @given(model_world_pairs())
    def test_bot_ssi_false_everywhere(self, mw):
        model, w = mw
        assert not holds(model, w, Ssi(Bot(), Q))

    @given(model_world_pairs(), formulas(max_leaves=4), formulas(max_leaves=4))
    def test_non_normal_points_kill_modalities(self, mw, a, b):
        model, w = mw
        if model.frame.normals >> w & 1:
            return
        assert not holds(model, w, Ssi(a, b))
        assert not holds(model, w, Sssi(a, b))
        assert not holds(model, w, Strict(a, b))
        assert not holds(model, w, Box(a))
        assert holds(model, w, Dia(a))


class TestTruthInModel:
    def test_vacuous_without_normal_points(self):
        assert true_in_model(Model(Frame(1, (0,), 0), {}), Bot())

    def test_two_point_frame_separation(self):
        frame = Frame.from_edges(2, [(0, 1), (1, 1)], [0])
        assert true_in_model(Model(frame, {}), parse("box top"))
        assert not true_in_model(Model(frame, {}), parse("box box top"))

    def test_necessity_as_top_arrow(self):
        model = Model(Frame(1, (1,), 1), {"p": 1})
        assert true_in_model(model, parse("top |> p"))


class TestValidOnFrame:
    def test_loop_refutes_ssi_reflexivity(self):
        assert not valid_on_frame(LOOP, parse("p |> p"))

    def test_two_point_frame(self):
        frame = Frame.from_edges(2, [(0, 1), (1, 1)], [0])
        assert valid_on_frame(frame, parse("box top"))
        assert not valid_on_frame(frame, parse("box box top"))

    @given(models())
    def test_negated_first_psi_valid_everywhere(self, model):
        assert valid_on_frame(model.frame, parse("~(bot |> q)"))


class TestDefinabilityFacts:
    @given(model_world_pairs(), formulas(max_leaves=3), formulas(max_leaves=3))
    def test_strong_arrow_expansion_exact_everywhere(self, mw, a, b):
        model, w = mw
        assert holds(model, w, Sssi(a, b)) == holds(model, w, desugar(Sssi(a, b)))

    @given(model_world_pairs(), formulas(max_leaves=3), formulas(max_leaves=3))
    def test_ssi_as_possibility_plus_strictness(self, mw, a, b):
        model, w = mw
        assert holds(model, w, Ssi(a, b)) == holds(model, w, And(Dia(a), Strict(a, b)))

    @given(model_world_pairs(), formulas(max_leaves=4))
    def test_box_translation_exact_everywhere(self, mw, f):
        model, w = mw
        assert holds(model, w, f) == holds(model, w, to_box_language(f))

    @given(model_world_pairs(), formulas(max_leaves=4))
    def test_strict_translation_exact_everywhere(self, mw, f):
        model, w = mw
        assert holds(model, w, f) == holds(model, w, to_strict_language(f))

    def test_desugared_box_diverges_at_non_normal_points(self):
        model = Model(Frame(1, (1,), 0), {"p": 1})
        assert not holds(model, 0, Box(P))
        assert holds(model, 0, desugar(Box(P)))


class TestOracleAgreement:
    @given(model_world_pairs(), formulas(max_leaves=6))
    def test_full_clauses_match_set_oracle(self, mw, f):
        model, w = mw
        assert holds(model, w, f) == eval_json(model_to_json(model), w, f)

    @given(model_world_pairs(all_normal=True), formulas(max_leaves=6))
    def test_normal_reduction(self, mw, f):
        model, w = mw
        assert holds(model, w, f) == normal_eval_json(model_to_json(model), w, f)

    @given(model_world_pairs(), formulas(max_leaves=5))
    def test_locality(self, mw, f):
        model, w = mw
        extended = Model(model.frame, {**model.valuation, "zz": model.frame.normals})
        assert holds(model, w, f) == holds(extended, w, f)

    @given(models(), formulas(max_leaves=5))
    def test_extension_agrees_with_holds(self, model, f):
        ext = extension(model, f)
        for w in range(model.frame.n):
            assert bool(ext >> w & 1) == holds(model, w, f)


class TestJsonForms:
    def test_model_shape(self):
        model = Model(Frame.from_edges(2, [(0, 1), (1, 1)], [0]), {"p": 3})
        assert model_to_json(model) == {
            "worlds": 2,
            "rel": [[1], [1]],
            "normals": [0],
            "val": {"p": [0, 1]},
        }

    @given(models())
    def test_model_roundtrip(self, model):
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again.frame == model.frame
        # absent variables denote the empty set, so compare nonzero entries
        assert {k: v for k, v in again.valuation.items() if v} == {
            k: v for k, v in model.valuation.items() if v
        }

    @given(models())
    def test_frame_roundtrip(self, model):
        assert frame_from_json(frame_to_json(model.frame)) == model.frame

    def test_malformed_model_messages(self):
        with pytest.raises(ValueError, match="'worlds'"):
            model_from_json({"rel": [], "normals": [], "val": {}})
        with pytest.raises(ValueError, match="successor"):
            model_from_json({"worlds": 1, "rel": [[1]], "normals": [], "val": {}})
        with pytest.raises(ValueError, match="'normals'"):
            model_from_json({"worlds": 1, "rel": [[]], "normals": [1], "val": {}})
        with pytest.raises(ValueError, match="out of range"):
            model_from_json({"worlds": 1, "rel": [[]], "normals": [], "val": {"p": [3]}})

    def test_booleans_are_not_worlds(self):
        # Python counts True and False as the integers 1 and 0
        with pytest.raises(ValueError, match="'worlds'"):
            model_from_json({"worlds": True, "rel": [[0]], "normals": [0], "val": {"p": [0]}})
        with pytest.raises(ValueError, match="successor"):
            frame_from_json({"worlds": 2, "rel": [[True], []], "normals": [0]})
        with pytest.raises(ValueError, match="'normals'"):
            frame_from_json({"worlds": 2, "rel": [[1], []], "normals": [False]})
        with pytest.raises(ValueError, match="out of range"):
            model_from_json({"worlds": 2, "rel": [[1], []], "normals": [0], "val": {"p": [True]}})
