"""Kripke-semantics toolkit for super-strict implication.

Parsing and printing of the arrow language, model evaluation over
non-normal frames, bounded validity and countermodel search, proof
checking for the classical strict-implication calculi, and a reproduction
suite of named validity facts.

Each public name loads at its first use (PEP 562): `import superstrict`
imports no submodule, and the first read of a name imports the submodule
that defines it, with that submodule's own imports, and keeps the value
here, so a later read is a plain lookup.  `superstrict.parse` loads
`superstrict.syntax` alone; `superstrict.cli` still imports every module.
"""

from importlib import import_module as _import_module

# The public names, by the submodule that defines them.
_NAMES = {
    "catalog": """CATALOG CATALOG_BY_NAME Expectation NamedFormula SuiteEntryResult SuiteReport run_suite
                  two_point_frame""",
    "proof": """AxiomInstance Derivation DerivationError RuleApp ScriptError SpotcheckEntry Step SystemId check
                match_schema parse_script soundness_spotcheck system_frame_class taut""",
    "search": """CountermodelReport definability_probe enumerate_frames find_countermodel rule_preservation_probe
                 rule_probe_witness valid_up_to""",
    "semantics": """NAMED_CLASSES S2 S2_0 S3 Frame FrameClass Model extension frame_from_json frame_to_json holds
                     model_from_json model_to_json relation_satisfies satisfies_class true_in_model
                     valid_on_frame""",
    "syntax": """And Bot Box Dia Formula Imp Language Or ParseError Path Ssi Sssi Strict Var children desugar
                 formula_from_json formula_to_json in_language modal_depth neg parse pretty replace_at
                 subformula_at subformulas substitute_many substitute_uniform to_box_language
                 to_strict_language top variables weight""",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE)


def __getattr__(name: str):
    """The public name `name`, imported from its submodule and kept in the
    package's globals, which Python reads before it calls this again."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE})
