"""Kripke-semantics toolkit for super-strict implication.

Parsing and printing of the arrow language, model evaluation over
non-normal frames, bounded validity and countermodel search, proof
checking for the classical strict-implication calculi, and a reproduction
suite of named validity facts.
"""

from types import ModuleType as _ModuleType

from .catalog import (
    CATALOG,
    CATALOG_BY_NAME,
    Expectation,
    NamedFormula,
    SuiteEntryResult,
    SuiteReport,
    run_suite,
    two_point_frame,
)
from .proof import (
    AxiomInstance,
    Derivation,
    DerivationError,
    RuleApp,
    ScriptError,
    SpotcheckEntry,
    Step,
    SystemId,
    check,
    match_schema,
    parse_script,
    soundness_spotcheck,
    system_frame_class,
    taut,
)
from .search import (
    CountermodelReport,
    definability_probe,
    enumerate_frames,
    find_countermodel,
    rule_preservation_probe,
    rule_probe_witness,
    valid_up_to,
)
from .semantics import (
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
    Ssi,
    Sssi,
    Strict,
    Var,
    children,
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
    subformulas,
    substitute_many,
    substitute_uniform,
    to_box_language,
    to_strict_language,
    top,
    variables,
    weight,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are left out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
