"""Command line front end; `_DESCRIPTION` is what `superstrict --help` says.

`translate` refuses, before printing, any translation that could print
more than 2^24 characters (PRINT_LIMIT), and `suite --json FILE` opens
FILE before the suite runs.  From Python, `main(argv)` may be called any
number of times in one process: the argument parser is built on the first
call and reused, and it holds no state between calls.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .catalog import json_text, run_suite
from .proof import DerivationError, ScriptError, SystemId, check, parse_script
from .search import find_countermodel
from .semantics import NAMED_CLASSES, holds, model_from_json, model_to_json
from .syntax import (Bot, Imp, ParseError, Var, desugar, fold, formula_to_json, parse, pretty, to_box_language,
                     to_strict_language)

_DESCRIPTION = """Subcommands: parse, eval, valid, countermodel, translate, prove, suite.
Exit status 0 reports success (or the expected verdict), 1 a negative
verdict (countermodel found under --expect-valid, refuted validity claim,
failed proof check, suite mismatches), and 2 a usage, parse, or input
error.  All output is deterministic."""

# The most characters `translate` prints.  Each level of a left-nested `|>`
# chain doubles the box and strict translations.
PRINT_LIMIT = 2**24


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("bound must be at least 1")
    return value


def _printed_length_bound(g, kids) -> int:
    """A `fold` step: at least the length of `pretty(g)`.

    A negation adds "~" and parentheses; any other operator adds at most 5
    characters (" ||> ") and parentheses around each operand.
    """
    if not kids:
        return len(g.name) if type(g) is Var else 3  # a variable, or "bot"
    if type(g) is Imp and type(g.right) is Bot:
        return kids[0] + 3  # "~(a)", or "top"
    return sum(kids) + 2 * len(kids) + 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="superstrict", description=_DESCRIPTION)
    sub = top.add_subparsers(dest="command", required=True)

    def add_formula(p: argparse.ArgumentParser) -> None:
        p.add_argument("--formula", required=True, help="formula in the ASCII grammar")

    def add_search(p: argparse.ArgumentParser) -> None:
        p.add_argument("--class", dest="frame_class", required=True,
                       choices=sorted(NAMED_CLASSES), help="frame class to search")
        p.add_argument("--max-n", type=_positive_int, required=True,
                       help="largest frame size to try")

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    add_formula(p)
    p.add_argument("--json", action="store_true", help="print the syntax tree as JSON")

    p = sub.add_parser("eval", help="evaluate a formula at a world of a model")
    add_formula(p)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--world", type=int, required=True, help="world index")

    p = sub.add_parser("valid", help="bounded validity over a frame class")
    add_formula(p)
    add_search(p)
    p.set_defaults(expect_valid=True)

    p = sub.add_parser("countermodel", help="search for a countermodel")
    add_formula(p)
    add_search(p)
    p.add_argument("--expect-valid", action="store_true",
                   help="exit 1 if a countermodel turns up")

    p = sub.add_parser("translate", help="translate between the connective vocabularies")
    add_formula(p)
    p.add_argument("--to", dest="target", required=True, choices=["core", "box", "strict"])

    p = sub.add_parser("prove", help="check a proof script")
    p.add_argument("--system", required=True, choices=sorted(s.value for s in SystemId))
    p.add_argument("--script", required=True, help="proof script file")

    p = sub.add_parser("suite", help="run the reproduction suite")
    p.add_argument("--max-n", type=_positive_int, default=None,
                   help="override every entry's bound")
    p.add_argument("--json", dest="json_file", default=None,
                   help="also write the JSON report to this file")
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        match args.command:
            case "parse":
                f = parse(args.formula)
                if args.json:
                    print(json_text(formula_to_json(f)))
                else:
                    print(pretty(f))
                return 0
            case "eval":
                f = parse(args.formula)
                with open(args.model, encoding="utf-8") as fh:
                    model = model_from_json(json.load(fh))
                print("true" if holds(model, args.world, f) else "false")
                return 0
            case "valid" | "countermodel":  # `valid` is `countermodel --expect-valid` with its own wording
                f = parse(args.formula)
                report = find_countermodel(f, NAMED_CLASSES[args.frame_class], args.max_n)
                if report is None:
                    print(f"valid up to {args.max_n}" if args.command == "valid"
                          else f"no countermodel up to n={args.max_n}")
                else:
                    print(f"countermodel at n={report.frame_size}, world {report.world}")
                    print(json_text(model_to_json(report.model)))
                return int((report is None) != args.expect_valid)
            case "translate":
                f = parse(args.formula)
                fn = {"core": desugar, "box": to_box_language, "strict": to_strict_language}[args.target]
                g = fn(f)
                if fold(g, _printed_length_bound) > PRINT_LIMIT:
                    raise ValueError(f"the translation could print more than {PRINT_LIMIT} characters")
                print(pretty(g))
                return 0
            case "prove":
                with open(args.script, encoding="utf-8") as fh:
                    text = fh.read()
                try:
                    derivation = parse_script(text)
                except ScriptError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                try:
                    check(SystemId(args.system), derivation)
                except DerivationError as exc:
                    print(exc)
                    return 1
                print(f"ok ({len(derivation.steps)} steps)")
                return 0
            case "suite":
                # open the report file first, so a bad path fails before the scans
                with (open(args.json_file, "w", encoding="utf-8") if args.json_file
                      else contextlib.nullcontext()) as fh:
                    report = run_suite(args.max_n)
                    print(report.table(), end="")
                    if fh:
                        fh.write(report.to_json())
                return 0 if report.mismatches == 0 else 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # `json.load` reading a model, or `json_text` writing a parse tree
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
