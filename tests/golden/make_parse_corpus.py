"""Write `parse_corpus.json`: seeded parser inputs with their recorded results.

Half the 2,000 distinct inputs are random token strings over the whole
vocabulary (with newlines, an unknown character and unbalanced
parentheses); the other half are pretty-printed random formulas with zero
to two token-level corruptions.  Each entry holds the input and either `formula_to_json` of
its parse or the exact `ParseError` text.  The file pins the parser's
contract, so regenerate it only when that contract changes on purpose:

    PYTHONPATH=src python tests/golden/make_parse_corpus.py
"""

import json
import random
import re
from pathlib import Path

from superstrict.syntax import And, Bot, Box, Dia, Imp, Or, ParseError, Ssi, Sssi, Strict, Var, formula_to_json, parse, pretty

SEED = 20221007
VOCAB = ["p", "q", "r", "x_1", "bot", "top", "box", "dia", "~", "&", "|", "->", "=>", "|>", "||>",
         "(", "(", ")", ")", "$", "\n"]
_TOKEN = re.compile(r"\|\|>|\|>|->|=>|\w+|\S")


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var("p"), Var("q"), Var("r"), Bot()])
    ctor = rng.choice([And, Or, Imp, Ssi, Sssi, Strict, Box, Dia])
    if ctor in (Box, Dia):
        return ctor(random_formula(rng, depth - 1))
    return ctor(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def random_tokens(rng: random.Random) -> str:
    return "".join(rng.choice(VOCAB) + rng.choice(["", " ", " ", " "]) for _ in range(rng.randint(0, 12)))


def corrupted(rng: random.Random) -> str:
    toks = _TOKEN.findall(pretty(random_formula(rng, rng.randint(1, 4))))
    for _ in range(rng.choice([0, 1, 1, 2])):
        i = rng.randrange(len(toks))
        parens = [j for j, t in enumerate(toks) if t in "()"]
        match rng.randrange(5):
            case 4 if parens:  # often leaves two arrow kinds at one level
                del toks[rng.choice(parens)]
            case 0 if len(toks) > 1:
                del toks[i]
            case 1:
                toks.insert(i, rng.choice(VOCAB))
            case 2:
                toks[i] = rng.choice(VOCAB)
            case _ if i + 1 < len(toks):
                toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


def record(text: str) -> dict:
    try:
        return {"input": text, "json": formula_to_json(parse(text))}
    except ParseError as exc:
        return {"input": text, "error": str(exc)}


def main() -> None:
    rng = random.Random(SEED)
    inputs: dict[str, None] = {}  # distinct inputs, in the order drawn
    for make in (random_tokens, corrupted):
        target = len(inputs) + 1000
        while len(inputs) < target:
            inputs[make(rng)] = None
    lines = [json.dumps(record(text), sort_keys=True) for text in inputs]
    (Path(__file__).parent / "parse_corpus.json").write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
