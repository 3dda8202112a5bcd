"""Write `translate_corpus.json`: formulas with their three recorded translations.

The inputs are the 359 texts of `parse_corpus.json` that parse, followed by
441 distinct seeded random formulas over the variables `a`, `b` and `p`
(the names the translation templates use for their children) with every
connective.  Each entry holds the input text and `formula_to_json` of its
`desugar`, `to_box_language` and `to_strict_language`.  The file pins the
translations, so regenerate it only when they change on purpose:

    PYTHONPATH=src python tests/golden/make_translate_corpus.py
"""

import json
import random
from pathlib import Path

from superstrict.syntax import (And, Bot, Box, Dia, Imp, Or, Ssi, Sssi, Strict, Var, desugar, formula_to_json, parse,
                                pretty, to_box_language, to_strict_language)

SEED = 20221008
HERE = Path(__file__).parent
LEAVES = [Var("a"), Var("b"), Var("p"), Bot()]


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(LEAVES)
    ctor = rng.choice([And, Or, Imp, Ssi, Sssi, Strict, Box, Dia])
    if ctor in (Box, Dia):
        return ctor(random_formula(rng, depth - 1))
    return ctor(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def record(text: str) -> dict:
    f = parse(text)
    return {"input": text, "core": formula_to_json(desugar(f)), "box": formula_to_json(to_box_language(f)),
            "strict": formula_to_json(to_strict_language(f))}


def main() -> None:
    parsed = json.loads((HERE / "parse_corpus.json").read_text(encoding="utf-8"))
    inputs = {e["input"]: None for e in parsed if "json" in e}  # distinct inputs, in the order drawn
    rng = random.Random(SEED)
    target = len(inputs) + 441
    while len(inputs) < target:
        inputs[pretty(random_formula(rng, rng.randint(1, 3)))] = None
    lines = [json.dumps(record(text), sort_keys=True, separators=(",", ":")) for text in inputs]
    (HERE / "translate_corpus.json").write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
