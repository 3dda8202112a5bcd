"""Frame enumeration, countermodel search, and the probes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superstrict import search
from superstrict.catalog import two_point_frame
from superstrict.search import (
    CountermodelReport,
    definability_probe,
    enumerate_frames,
    find_countermodel,
    rule_preservation_probe,
    rule_probe_witness,
    valid_up_to,
)
from superstrict.semantics import (
    NAMED_CLASSES,
    S2,
    S2_0,
    S3,
    Frame,
    FrameClass,
    Model,
    holds,
    model_to_json,
    true_in_model,
)
from superstrict.syntax import And, Box, Dia, Imp, Or, Ssi, Sssi, Strict, desugar, modal_depth, parse, top

from oracles import CONDITION_SETS, condition_id, naive_frames
from strategies import extensional_formulas, formulas

# Every frame class: each set of relational conditions, with and without all_normal.
EVERY_CLASS = [{**conditions, "all_normal": all_normal} for conditions in CONDITION_SETS for all_normal in (False, True)]
CLASS_NAMES = {fc: name for name, fc in NAMED_CLASSES.items()}


def class_id(conditions: dict[str, bool]) -> str:
    """The class's name where it has one, so a named class keeps its test id."""
    return CLASS_NAMES.get(FrameClass(**conditions)) or condition_id(conditions)


def frame_as_sets(frame: Frame) -> tuple[set, set]:
    edges = {(i, j) for i in range(frame.n) for j in range(frame.n) if frame.rel[i] >> j & 1}
    normals = {i for i in range(frame.n) if frame.normals >> i & 1}
    return edges, normals


class TestEnumeration:
    def test_counts_single_world(self):
        assert len(list(enumerate_frames(1, S2_0))) == 4
        assert len(list(enumerate_frames(1, S2))) == 2

    def test_counts_two_worlds(self):
        assert len(list(enumerate_frames(2, S2_0))) == 64

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unconstrained_count_formula(self, n):
        assert len(list(enumerate_frames(n, S2_0))) == 2 ** (n * n + n)

    @pytest.mark.parametrize("n", [1, 2, 3])  # on ints, as up to `_INT_TABLES` worlds
    @pytest.mark.parametrize("conditions", EVERY_CLASS, ids=class_id)
    def test_stream_matches_naive_enumerator(self, n, conditions):
        mine = [frame_as_sets(f) for f in enumerate_frames(n, FrameClass(**conditions))]
        assert mine == list(naive_frames(n, **conditions))

    def test_stream_matches_naive_enumerator_three_worlds(self):
        fc = S3
        mine = [frame_as_sets(f) for f in enumerate_frames(3, fc)]
        naive = list(naive_frames(3, reflexive=True, transitive=True))
        assert mine == naive

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            list(enumerate_frames(0, S2_0))


class TestFindCountermodel:
    def test_impossible_antecedent_witness(self):
        report = find_countermodel(parse("p |> p"), S2, 1)
        assert report is not None
        assert report.frame_size == 1
        assert report.model.valuation.get("p", 0) == 0

    def test_axiom_two_witness(self):
        report = find_countermodel(parse("(p & q) |> p"), S2, 1)
        assert report is not None
        assert report.model.valuation.get("p", 0) == 0
        assert report.model.valuation.get("q", 0) == 0

    def test_aristotle_has_no_countermodel(self):
        assert find_countermodel(parse("~(p |> ~p)"), S2_0, 3) is None

    def test_first_witness_is_canonical(self):
        report = find_countermodel(parse("p |> p"), S2_0, 2)
        assert report.model.frame == Frame(1, (0,), 1)
        assert report.world == 0

    def test_box_box_top_needs_two_worlds(self):
        report = find_countermodel(parse("box box top"), S2_0, 2)
        assert report is not None
        assert report.frame_size == 2

    def test_deterministic(self):
        f = parse("(p |> q) -> (~q |> ~p)")
        a = find_countermodel(f, S2, 2)
        b = find_countermodel(f, S2, 2)
        assert (a.model, a.world) == (b.model, b.world)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            find_countermodel(parse("p"), S2_0, 0)

    def test_report_reverifies_on_construction(self):
        f = parse("p |> p")
        good = find_countermodel(f, S2, 1)
        with pytest.raises(ValueError, match="re-verification"):
            CountermodelReport(
                f, S2, Model(good.model.frame, {"p": 1}), 0, 1
            )  # p |> p holds there
        with pytest.raises(ValueError, match="outside the requested class"):
            CountermodelReport(f, S3, Model(Frame(2, (2, 1), 3), {}), 0, 2)
        with pytest.raises(ValueError, match="not normal"):
            CountermodelReport(f, S2_0, Model(Frame(1, (1,), 0), {}), 0, 1)
        for world in (-1, 5):
            with pytest.raises(ValueError, match="world out of range"):
                CountermodelReport(f, S2, good.model, world, 1)


class TestValidUpTo:
    def test_transitivity_conjunction(self):
        assert valid_up_to(parse("((p |> q) & (q |> r)) -> (p |> r)"), S2_0, 3)

    def test_guarded_reflexivity(self):
        assert valid_up_to(parse("dia p -> (p |> p)"), S2, 3)

    def test_impossibility_guard_fails(self):
        assert not valid_up_to(parse("~dia p -> (p |> p)"), S2, 1)

    @given(formulas(max_leaves=4))
    def test_antitone_in_bound(self, f):
        if valid_up_to(f, S2_0, 2):
            assert valid_up_to(f, S2_0, 1)

    @given(formulas(max_leaves=4))
    def test_monotone_in_class(self, f):
        if valid_up_to(f, S2_0, 2):
            assert valid_up_to(f, S2, 2)
        if valid_up_to(f, S2, 2):
            assert valid_up_to(f, S3, 2)

    @given(st.data())
    def test_depth_one_agrees_with_all_normal(self, data):
        ext = extensional_formulas(max_leaves=3)
        modal = st.one_of(
            st.builds(Box, ext),
            st.builds(Dia, ext),
            st.builds(Ssi, ext, ext),
            st.builds(Sssi, ext, ext),
            st.builds(Strict, ext, ext),
        )
        flat = st.recursive(
            ext | modal,
            lambda s: st.one_of(*(st.builds(t, s, s) for t in (And, Or, Imp))),
            max_leaves=4,
        )
        f = data.draw(flat)
        assert modal_depth(f) <= 1
        assert valid_up_to(f, S2_0, 2) == valid_up_to(f, NAMED_CLASSES["k"], 2)


class TestRuleProbes:
    def test_detachment_fails_without_reflexivity(self):
        frame = rule_preservation_probe([parse("p |> q"), parse("p")], parse("q"), S2_0, 2)
        assert frame is not None
        assert frame.n <= 2

    def test_detachment_survives_reflexivity(self):
        assert rule_preservation_probe([parse("p |> q"), parse("p")], parse("q"), S2, 3) is None

    def test_trivial_premises(self):
        assert rule_preservation_probe([top()], top(), S2_0, 2) is None

    def test_witness_is_model_level(self):
        wit = rule_probe_witness([parse("p |> q"), parse("p")], parse("q"), S2_0, 2)
        assert wit is not None
        model, world = wit
        assert true_in_model(model, parse("p |> q"))
        assert true_in_model(model, parse("p"))
        assert model.frame.normals >> world & 1
        assert not holds(model, world, parse("q"))

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            rule_preservation_probe([parse("p")], parse("p"), S2_0, 0)


class TestDefinabilityProbe:
    def test_iterated_box_diverges(self):
        wit = definability_probe(parse("box box top"), S2_0, 2)
        assert wit is not None
        model, world = wit
        f = parse("box box top")
        assert holds(model, world, f) != holds(model, world, desugar(f))

    def test_two_point_frame_also_separates_readings(self):
        model = Model(two_point_frame(), {})
        f = parse("box box top")
        assert not holds(model, 0, f)
        assert holds(model, 0, desugar(f))

    def test_core_formula_trivially_agrees(self):
        assert definability_probe(parse("p |> q"), S2_0, 2) is None

    def test_strong_arrow_expansion_never_diverges(self):
        assert definability_probe(parse("p ||> q"), S2_0, 3) is None

    def test_possibility_on_all_normal_frames(self):
        assert definability_probe(parse("dia p"), NAMED_CLASSES["k"], 3) is None

    def test_possibility_diverges_off_normal_points(self):
        wit = definability_probe(parse("box p"), S2_0, 2)
        assert wit is not None
        model, world = wit
        assert not model.frame.normals >> world & 1

    @given(formulas(max_leaves=4))
    def test_any_witness_reverifies(self, f):
        wit = definability_probe(f, S2_0, 2)
        if wit is not None:
            model, world = wit
            assert holds(model, world, f) != holds(model, world, desugar(f))


class TestWitnessReverification:
    """Every search refuses a witness the batched scan got wrong."""

    def test_frame_outside_the_class(self, monkeypatch):
        # the scan reads the S2_0 relations whatever class it was asked for: S2's
        # first witnesses are then irreflexive (k's relations are S2_0's anyway)
        int_table, table = search._int_frame_table, search._frame_table  # built on ints to n = 3, by numpy above
        monkeypatch.setattr(search, "_int_frame_table", lambda n, fc: int_table(n, S2_0))
        monkeypatch.setattr(search, "_frame_table", lambda n, fc: table(n, S2_0))
        with pytest.raises(RuntimeError, match="re-verification"):
            find_countermodel(parse("(p |> q) & p -> q"), S2, 2)
        with pytest.raises(RuntimeError, match="re-verification"):
            rule_probe_witness([parse("p |> q"), parse("p")], parse("q"), S2, 2)
        with pytest.raises(RuntimeError, match="re-verification"):
            definability_probe(parse("dia p"), S2, 2)

    def test_wrong_extension(self, monkeypatch):
        # the last instruction, the root of the last formula compiled, comes out negated
        run = search._run

        def corrupt(program, leaves, rows, full):
            vals = run(program, leaves, rows, full)
            vals[-1] = full ^ vals[-1]
            return vals

        monkeypatch.setattr(search, "_run", corrupt)
        with pytest.raises(RuntimeError, match="re-verification"):
            find_countermodel(parse("p -> p"), S2_0, 1)
        with pytest.raises(RuntimeError, match="re-verification"):
            rule_probe_witness([parse("~(p -> p)")], parse("p"), S2_0, 1)
        with pytest.raises(RuntimeError, match="re-verification"):
            definability_probe(parse("dia p"), NAMED_CLASSES["k"], 1)
