"""Catalog integrity and suite report behaviour."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from superstrict.catalog import CATALOG, CATALOG_BY_NAME, Expectation, json_text, run_suite, two_point_frame
from superstrict.semantics import NAMED_CLASSES, Frame, satisfies_class
from superstrict.syntax import parse

GOLDEN = Path(__file__).parent / "golden"


class TestCatalogEntries:
    def test_names_unique(self):
        assert len(CATALOG_BY_NAME) == len(CATALOG)

    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_text_matches_formula(self, entry):
        assert parse(entry.text) == entry.formula

    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_class_consistent(self, entry):
        assert NAMED_CLASSES[entry.class_name] == entry.frame_class
        assert entry.bound >= 1
        assert entry.note

    def test_two_point_frame_shape(self):
        frame = two_point_frame()
        assert frame == Frame(2, (2, 2), 1)
        assert satisfies_class(frame, NAMED_CLASSES["s2_0"])
        assert not satisfies_class(frame, NAMED_CLASSES["s2"])


class TestRunSuite:
    def test_default_bounds_match_expectations(self):
        report = run_suite()
        assert report.mismatches == 0
        assert report.max_n is None
        by_name = {r.entry.name: r for r in report.results}
        assert by_name["guarded_s3_ax"].report.frame_size == 1
        assert by_name["strong_boethius_s2"].ok is None
        assert by_name["strong_boethius_s3"].ok is None

    def test_open_entries_report_bounded_findings(self):
        report = run_suite(1)
        by_name = {r.entry.name: r for r in report.results}
        # both open entries have one-world countermodels in this semantics
        assert by_name["strong_boethius_s2"].report is not None
        assert by_name["strong_boethius_s3"].report is not None
        assert by_name["strong_boethius_s2"].ok is None

    def test_too_small_bound_shows_up_as_mismatch(self):
        report = run_suite(1)
        bad = [r.entry.name for r in report.results if r.ok is False]
        assert bad == ["box_box_top"]  # its smallest countermodel has two worlds
        assert report.mismatches == 1

    def test_bound_override_is_uniform(self):
        report = run_suite(2)
        assert report.mismatches == 0
        assert {r.bound for r in report.results} == {2}

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            run_suite(0)


class TestSuiteReportForms:
    def test_json_is_stable_and_golden(self):
        text = run_suite(2).to_json()
        assert text == run_suite(2).to_json()
        assert text == (GOLDEN / "suite_max2.json").read_text()

    def test_json_at_default_bounds_is_pinned(self):
        # every entry at its own bound, so the n = 3 witnesses are pinned too
        digest = hashlib.sha256(run_suite().to_json().encode()).hexdigest()
        assert digest == "b636679e7812209c4f5634a9a2f9da9ab7c1aa53190b0835931af999e97e8ed8"

    def test_json_at_max_n_4_is_pinned(self):
        # every entry at n = 4, the roadmap's end-to-end target: about 5 s
        digest = hashlib.sha256(run_suite(4).to_json().encode()).hexdigest()
        assert digest == "c93fe09cc35081a2403a96b15efe7433aa4d49199b22429a389c72828027e256"

    def test_json_schema(self):
        data = json.loads(run_suite(1).to_json())
        assert set(data) == {"entries", "max_n", "mismatches"}
        assert data["max_n"] == 1
        entry = data["entries"][0]
        assert set(entry) == {
            "name", "formula", "class", "bound", "expected", "verdict", "witness", "ok", "note",
        }
        assert entry["verdict"] in {"countermodel", "no_countermodel"}
        witnessed = [e for e in data["entries"] if e["witness"] is not None]
        assert witnessed, "some entry must carry a witness"
        assert set(witnessed[0]["witness"]) == {"model", "world", "n"}

    def test_table_layout(self):
        report = run_suite(1)
        table = report.table()
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["name", "class"]
        assert set(lines[1]) == {"-", " "}
        assert any(line.startswith("box_box_top") and "MISMATCH" in line for line in lines)
        assert lines[-1] == "mismatches: 1"
        assert len(lines) == len(CATALOG) + 4


# Strings weighted to what an escape can get wrong: quote, backslash, control
# characters, DEL, non-ASCII, a line separator, astral characters and lone
# surrogates.
_TEXTS = st.text(st.sampled_from('"\\/\x00\x1f\b\t\n\x7f\xe9\u2028\ud800\U0001f600a') | st.characters(exclude_categories=()),
                 max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
            | st.sampled_from([0, 1, -1, 2**64, -(2**64) - 1]) | _TEXTS)
_VALUES = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXTS, kids, max_size=4),
                       max_leaves=24)


@given(_VALUES)
@example([True, 1, False, 0, None, -0])
@example({"": [], "a": {}, "b": [[], {}, [[{}]]], "\u00e9": {"\"": "\\"}})
def test_json_text_is_json_dumps(data):
    assert json_text(data) == json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1,), {1: "a"}, {"a": {"b": [set()]}}])
def test_json_text_writes_no_other_type(value):
    with pytest.raises(TypeError):
        json_text(value)
