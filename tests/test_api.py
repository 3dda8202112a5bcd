"""The package's public names, and the hook points the benchmark patches."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import superstrict

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(superstrict.__file__).parent

EXPORTED = {
    "And", "AxiomInstance", "Bot", "Box", "CATALOG", "CATALOG_BY_NAME",
    "CountermodelReport", "Derivation", "DerivationError", "Dia",
    "Expectation", "Formula", "Frame", "FrameClass", "Imp", "Language",
    "Model", "NAMED_CLASSES", "NamedFormula", "Or", "ParseError", "Path",
    "RuleApp", "S2", "S2_0", "S3", "ScriptError", "SpotcheckEntry", "Ssi",
    "Sssi", "Step", "Strict", "SuiteEntryResult", "SuiteReport", "SystemId",
    "Var", "check", "children", "definability_probe", "desugar",
    "enumerate_frames", "extension", "find_countermodel", "formula_from_json",
    "formula_to_json", "frame_from_json", "frame_to_json", "holds",
    "in_language", "match_schema", "modal_depth", "model_from_json",
    "model_to_json", "neg", "parse", "parse_script", "pretty", "replace_at",
    "relation_satisfies", "rule_preservation_probe", "rule_probe_witness",
    "run_suite", "satisfies_class", "soundness_spotcheck", "subformula_at",
    "subformulas", "substitute_many", "substitute_uniform",
    "system_frame_class", "taut", "to_box_language", "to_strict_language",
    "top", "true_in_model", "two_point_frame", "valid_on_frame",
    "valid_up_to", "variables", "weight",
}


def test_exported_names():
    assert len(EXPORTED) == 79
    assert set(superstrict.__all__) == EXPORTED
    assert len(superstrict.__all__) == len(EXPORTED)


def top_level_definitions(module: str) -> set[str]:
    """The names the top level of `superstrict.<module>` binds other than by import."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return names | {t.id for t in targets if isinstance(t, ast.Name)}


def test_each_name_comes_from_the_submodule_that_defines_it():
    for name in sorted(EXPORTED):
        module = superstrict._MODULE[name]
        assert name in top_level_definitions(module)
        own = getattr(importlib.import_module(f"superstrict.{module}"), name)
        assert superstrict.__getattr__(name) is own
        assert getattr(superstrict, name) is own


def test_the_name_table_behaves_as_the_imports_did():
    assert EXPORTED <= set(dir(superstrict))
    with pytest.raises(AttributeError, match=r"^module 'superstrict' has no attribute 'no_such_name'$"):
        superstrict.no_such_name
    star: dict = {}
    exec("from superstrict import *", star)
    assert set(star) - {"__builtins__"} == EXPORTED
    assert all(star[name] is getattr(superstrict, name) for name in EXPORTED)
    submodule: dict = {}
    exec("from superstrict import search", submodule)
    assert submodule["search"] is sys.modules["superstrict.search"]


def test_benchmark_hook_points_exist():
    """The benchmark's tracer patches each (module, attribute) it lists, so
    each must stay importable from that module."""
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
    assert tracing._CALL_SITES
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing._CALL_SITES
               if not hasattr(module, attr)]
    assert missing == []
