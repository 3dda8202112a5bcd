"""Seeded inputs of the three workloads, their limits, and their checks.

A workload run is a list of rounds; each round is one pass over the
workload's operations.  Every operation is drawn by the run's seed from a
pool whose members cost the same to within a few per cent: the pools vary
variable names, operand order and and/or choices, never the size of a
scan.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from superstrict.catalog import CATALOG_BY_NAME
from superstrict.proof import parse_script
from superstrict.syntax import desugar, parse, variables

import oracle

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference" / "queries.json"

WORKLOADS = ("scan-frames", "scan-valuations", "queries")

# Nominal seconds of one round on a quiet 2-vCPU machine.  A plan holds
# enough rounds for a machine twice as fast; a run makes as many as fit in
# --seconds.  Round i is the same for a given seed however many are made.
ROUND_SECONDS = {"scan-frames": 7.0, "scan-valuations": 5.0, "queries": 0.75}

# Percentile reported as op_tail_ms, taken in windows of 1,000 or more
# calls on queries (five rounds), so that 10 or more lie beyond it.  The
# scans make fewer than 100 unequal operations, so their tail is their
# median.
TAIL_PERCENTILE = {"scan-frames": 0.5, "scan-valuations": 0.5, "queries": 0.99}

# Limits checked before any operation starts.  A search over class c up to
# n worlds with k variables evaluates sum_m frames(c, m) * 2**(k*m)
# (frame, valuation) pairs; the package builds 2**(k*n) valuation codes as
# uint32, so k*n must stay below 32, and 16 keeps each array at 256 KiB.
MAX_N = 4
MAX_KN = 16
CAP_PAIRS = 1 << 26
MAX_TAUT_ATOMS = 14

VARS = ("p", "q", "r", "s")
# Pool members are generated from this constant, not from the run's seed,
# so that reference/queries.json can record every member's output.
POOL_SEED = 20220414


class InputError(ValueError):
    """A generated input is outside the benchmark's stated limits."""


@dataclass(frozen=True)
class Scan:
    """One exhaustive search an operation starts."""

    class_name: str
    max_n: int
    formulas: tuple[str, ...]
    full: bool  # no witness exists, so every frame and valuation is visited
    evaluate_all: bool = False  # definability probes also evaluate frames without normal points


@dataclass(frozen=True)
class Op:
    """One operation: what to call, what it searches, and how to check it.

    `call` is ("cli", argv), ("suite", max_n), ("rule_probe", premises,
    conclusion, class, n), ("definability_probe", formula, class, n) or
    ("spotcheck", system, script file, n).  `expect` names the check."""

    kind: str
    key: str
    call: tuple
    expect: tuple
    scans: tuple[Scan, ...] = ()


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    rounds: tuple[tuple[Op, ...], ...]
    files: dict  # file name in the work directory -> contents


# ---------------------------------------------------------------------------
# formula shapes


def _schema(schema: str, a: str, b: str = "") -> str:
    return oracle.SCHEMAS[schema].replace("A", f"({a})").replace("B", f"({b})")


def _shape3(rng: random.Random) -> str:
    x, y, z = rng.sample(VARS, 3)
    o1, o2 = rng.choice("&|"), rng.choice("&|")
    return f"({x} {o1} {y}) {o2} {z}"


def _shape4(rng: random.Random) -> str:
    w, x, y, z = rng.sample(VARS, 4)
    o1, o2, o3 = (rng.choice("&|") for _ in range(3))
    return f"({w} {o1} {x}) {o2} ({y} {o3} {z})"


def _random_formula(rng: random.Random, size: int) -> str:
    """Fully parenthesised formula with `size` binary connectives."""
    if size == 0:
        text = rng.choice(["p", "q", "r", "p", "q", "r", "bot", "top"])
    else:
        left = rng.randrange(size)
        op = rng.choice(["&", "|", "->", "=>", "|>", "||>"])
        text = f"({_random_formula(rng, left)} {op} {_random_formula(rng, size - 1 - left)})"
    if rng.random() < 0.3:
        text = rng.choice(["~", "box ", "dia "]) + text
    return text


def _valid_cli(schema: str, a: str, b: str, class_name: str, max_n: int, key: str) -> Op:
    text = _schema(schema, a, b)
    return Op("valid", key, ("cli", ("valid", "--formula", text, "--class", class_name, "--max-n", str(max_n))),
              ("valid", text, class_name, max_n, schema),
              scans=(Scan(class_name, max_n, (text,), True),))


def _countermodel_cli(text: str, class_name: str, max_n: int, key: str, why: str) -> Op:
    return Op("countermodel", key, ("cli", ("countermodel", "--formula", text, "--class", class_name, "--max-n", str(max_n))),
              ("countermodel", text, class_name, max_n, why),
              scans=(Scan(class_name, max_n, (text,), False),))


# ---------------------------------------------------------------------------
# proof scripts


def _lemmon_script(conj: list[str], disj: list[str]) -> str:
    """pc tautology over opaque atoms, necessitated, then detached by t."""
    ante = conj[-1]
    for atom in reversed(conj[:-1]):
        ante = f"({atom} & {ante})"
    f = f"{ante} -> ({' | '.join(disj)})"
    return (f"1. {f} ; axiom pc\n"
            f"2. box ({f}) ; nrest 1\n"
            f"3. box ({f}) -> ({f}) ; axiom t\n"
            f"4. {f} ; mp 3 2\n")


def _lewis_script(a: str, b: str) -> str:
    return (f"1. {a} => ({a} & {a}) ; axiom 3 [p := {a}]\n"
            f"2. ({a} & {b}) => {a} ; axiom 2 [p := {a}, q := {b}]\n"
            f"3. ({a} & {a}) => {a} ; us 2 [{b} := {a}]\n"
            f"4. ({a} => ({a} & {a})) & (({a} & {a}) => {a}) ; adj 1 3\n"
            f"5. ({a} & {a}) => ({a} & {a}) ; sse 1 4 at 0\n"
            f"6. {a} => {a} ; sse 1 4 at 1\n")


_HEAVY_ATOMS = ("p", "q", "r", "s", "u", "v", "box p", "dia q", "box (r & s)",
                "dia (u | v)", "box box p", "dia ~q")


def _prove_op(kind: str, key: str, system: str, name: str, steps: int) -> Op:
    return Op(kind, key, ("cli", ("prove", "--system", system, "--script", "{work}/" + name)),
              ("prove", name, steps))


# ---------------------------------------------------------------------------
# the query pools (fixed; reference/queries.json records every member)


def query_pools() -> tuple[dict[str, list[Op]], dict[str, str]]:
    """Pools of CLI operations by category, and the files they read."""
    rng = random.Random(POOL_SEED)
    files: dict[str, str] = {}
    pools: dict[str, list[Op]] = {}

    formulas = [_random_formula(rng, 8) for _ in range(64)]
    pools["parse"] = [Op("parse", f"parse:{i}", ("cli", ("parse", "--formula", f)), ("reference",))
                      for i, f in enumerate(formulas)]
    pools["parse-json"] = [Op("parse-json", f"parse-json:{i}", ("cli", ("parse", "--json", "--formula", f)),
                              ("reference",)) for i, f in enumerate(formulas)]
    pools["translate"] = [Op("translate", f"translate:{t}:{i}", ("cli", ("translate", "--to", t, "--formula", f)),
                             ("reference",)) for i, f in enumerate(formulas) for t in ("core", "box", "strict")]

    pools["eval"] = []
    for m in range(8):
        n = 3 + m % 2
        rel = [sorted(j for j in range(n) if rng.random() < 0.45) for _ in range(n)]
        normals = sorted({0} | {w for w in range(1, n) if rng.random() < 0.6})
        val = {v: sorted(w for w in range(n) if rng.random() < 0.5) for v in ("p", "q", "r")}
        files[f"model-{m}.json"] = json.dumps({"worlds": n, "rel": rel, "normals": normals, "val": val})
        for j in range(8):
            f = formulas[(8 * m + j * 5) % len(formulas)]
            w = rng.randrange(n)
            pools["eval"].append(Op("eval", f"eval:{m}:{j}", ("cli", (
                "eval", "--formula", f, "--model", f"{{work}}/model-{m}.json", "--world", str(w))),
                ("eval", f"model-{m}.json", w, f)))

    # Refutable formulas: schema instances on classes that lack the
    # corresponding property, and instances of the catalog's super-strict
    # refutations.  Each schema letter becomes a variable or a conjunction
    # or disjunction of distinct variables, which keeps the instance as
    # refutable as the schema.
    cm = []
    for schema in ("T", "4", "5", "B", "D"):
        for c, (_, all_normal) in oracle.CLASS_DEFS.items():
            if all_normal and not oracle.schema_valid(schema, c):
                for j in range(2):
                    x, y = rng.sample(VARS, 2)
                    a = rng.choice([x, f"{x} & {y}", f"{x} | {y}"])
                    cm.append(_countermodel_cli(_schema(schema, a), c, 3, f"countermodel:{schema}:{c}:{j}",
                                                f"schema {schema} over {c}"))
    for name, template in (("ssi_reflexivity", "{a} |> {a}"),
                           ("ssi_contraposition", "({a} |> {b}) -> (~{b} |> ~{a})"),
                           ("pmi2_as_ssi", "{b} |> ({a} |> {b})"),
                           ("psi2_as_ssi", "{a} |> top"),
                           ("lewis_ax2_ssi", "({a} & {b}) |> {a}")):
        for i, (x, y, z) in enumerate(itertools.permutations(VARS, 3)):
            if i % 4 == 0:
                text = template.format(a=x, b=f"({y} & {z})" if i % 8 else y)
                cm.append(_countermodel_cli(text, CATALOG_BY_NAME[name].class_name, 2,
                                            f"countermodel:{name}:{i}", f"catalog {name}"))
    pools["countermodel"] = cm

    valid = []
    restrictive = ("kt", "kd45", "k45", "s4", "s5", "ktb", "k5", "kb", "k4", "kd")
    for c in restrictive:
        for schema in ("T", "4", "5", "B", "D", "K"):
            if not oracle.schema_valid(schema, c):
                continue
            for j in range(2):
                x, y, b = rng.sample(VARS, 3)
                a = rng.choice([x, f"{x} & {y}", f"{x} | {y}"])
                valid.append(_valid_cli(schema, a, b, c, 3 - j, f"valid:{schema}:{c}:{j}"))
    pools["valid"] = valid

    light = []
    for i, (a, b) in enumerate(itertools.permutations(VARS, 2)):
        name = f"light-{i}.proof"
        if i % 2:
            files[name] = _lewis_script(a, b)
            light.append(_prove_op("prove", f"prove:{name}", "lewis-s2", name, 6))
        else:
            c, d = (v for v in VARS if v not in (a, b))
            files[name] = _lemmon_script([a, b, f"box {c}"], [a, f"dia {d}"])
            light.append(_prove_op("prove", f"prove:{name}", "lemmon-s2", name, 4))
    pools["prove"] = light

    heavy = []
    for i in range(12):
        atoms = list(_HEAVY_ATOMS)
        rng.shuffle(atoms)
        name = f"heavy-{i}.proof"
        files[name] = _lemmon_script(atoms, [atoms[rng.randrange(12)], atoms[rng.randrange(12)]])
        heavy.append(_prove_op("prove-heavy", f"prove:{name}", "lemmon-s2", name, 4))
    pools["prove-heavy"] = heavy

    # Two small API probes per round, so that every layer the scans time is
    # also exercised here; both scan their space fully and find nothing.
    pools["rule-probe"] = [_detachment(a, b, 2) for a, b in itertools.permutations(VARS, 2)]
    pools["definability-probe"] = [_dia_probe(a, "kt", 3) for a in VARS]

    pools["suite"] = [Op("suite", "suite:2", ("cli", ("suite", "--max-n", "2", "--json", "{work}/suite.json")),
                         ("suite",), scans=_suite_scans(2))]
    return pools, files


# Operations of each category in one queries round (202 in all).  The
# cheap categories fill the lower half, so the median falls among the
# countermodel searches; the heavy proofs are 2 %, so p99 falls among them.
QUERY_MIX = {"parse": 16, "parse-json": 16, "translate": 30, "eval": 20, "rule-probe": 1,
             "definability-probe": 1, "countermodel": 50, "valid": 40, "prove": 20, "prove-heavy": 4, "suite": 4}


# ---------------------------------------------------------------------------
# scan rounds


def _detachment(a: str, b: str, max_n: int, swap: bool = False) -> Op:
    """Super-strict detachment over s2, which preserves truth in a model:
    at a normal reflexive point the antecedent holds and is a successor."""
    premises = (f"{a} |> {b}", a) if swap else (a, f"{a} |> {b}")
    return Op("rule-probe", f"detachment:{a}{b}:{max_n}", ("rule_probe", premises, b, "s2", max_n), ("none",),
              scans=(Scan("s2", max_n, (*premises, b), True),))


def _dia_probe(a: str, class_name: str, max_n: int) -> Op:
    """`dia a` against `a |> top`, which agree wherever every point is normal."""
    return Op("definability-probe", f"dia:{a}:{max_n}", ("definability_probe", f"dia {a}", class_name, max_n),
              ("none",), scans=(Scan(class_name, max_n, (f"dia {a}",), True, evaluate_all=True),))


def _suite_scans(max_n: int | None) -> tuple[Scan, ...]:
    return tuple(Scan(e.class_name, max_n or e.bound, (e.text,), False) for e in CATALOG_BY_NAME.values())


def _scan_frames_round(rng: random.Random, files: dict[str, str]) -> list[Op]:
    # Eight operations: the suite, the s2 scan and the detachment probe cost
    # more than a definability probe, the two spot checks less, so the
    # median operation latency falls among the three probes.
    a, b = rng.sample(VARS, 2)
    op = rng.choice(["&", "|", "->"])
    x = rng.choice([f"{a} {op} ~{a}", f"~{a} {op} {a}"])
    ops = [
        Op("suite", "suite", ("suite", None), ("suite-catalog",), scans=_suite_scans(None)),
        _valid_cli("D", x, "", "s2", 4, "valid-s2"),
        _detachment(a, b, 4, rng.random() < 0.5),
        *(_dia_probe(c, "kt", 4) for c in rng.sample(VARS, 3)),
    ]
    for c, d in ((a, b), (b, a)):
        script = f"spot-{c}{d}.proof"
        files[script] = _spot_s2(c, d)
        ops.append(Op("spotcheck", f"lemmon-s2:{c}{d}", ("spotcheck", "lemmon-s2", script, 3), ("spotcheck", 3),
                      scans=tuple(Scan("s2", 3, (f,), True) for f in _script_formulas(files[script]))))
    return ops


def _spot_s2(a: str, b: str) -> str:
    f = f"{a} -> ({b} -> {a})"
    return (f"1. {f} ; axiom pc\n"
            f"2. box ({f}) ; nrest 1\n"
            f"3. box (box {a} -> box ({b} -> {a})) ; br 2\n")


def _spot_s3(a: str, b: str, c: str) -> str:
    f = f"({a} & {b}) -> ({c} -> {a})"
    return f"1. {f} ; axiom pc\n2. box ({f}) ; nrest 1\n"


def _script_formulas(script: str) -> list[str]:
    return [line.split(". ", 1)[1].rsplit(" ; ", 1)[0] for line in script.splitlines()]


def _scan_valuations_round(rng: random.Random, files: dict[str, str]) -> list[Op]:
    # Eleven operations: four cost more than an s3 scan and four less, so
    # the median operation latency falls among the three s3 scans.
    ops = [
        _valid_cli("T", _shape4(rng), "", "s4", 4, "valid-s4"),
        _valid_cli("D", _shape3(rng), "", "kt", 4, "valid-kt"),
        _valid_cli("4", _shape3(rng), "", "k4", 4, "valid-k4"),
        _valid_cli("4", _shape4(rng), "", "kd45", 4, "valid-kd45"),
        *(_valid_cli("T", _shape3(rng), "", "s3", 4, f"valid-s3:{i}") for i in range(3)),
    ]
    dia = f"dia ({_shape3(rng)})"
    ops.append(Op("definability-probe", "dia", ("definability_probe", dia, "s4", 4), ("none",),
                  scans=(Scan("s4", 4, (dia,), True, evaluate_all=True),)))
    a = _shape3(rng)
    ops.append(Op("rule-probe", "necessitation", ("rule_probe", (a,), f"box ({a})", "s4", 4), ("none",),
                  scans=(Scan("s4", 4, (a, f"box ({a})"), True),)))
    # The suite at n <= 2 re-verifies and serialises its witnesses.
    ops.append(Op("suite", "suite:2", ("suite", 2), ("suite-golden",), scans=_suite_scans(2)))
    x, y, z = rng.sample(VARS, 3)
    script = _spot_s3(x, y, z)
    files[f"spot-{x}{y}{z}.proof"] = script
    ops.append(Op("spotcheck", "lemmon-s3", ("spotcheck", "lemmon-s3", f"spot-{x}{y}{z}.proof", 3), ("spotcheck", 2),
                  scans=tuple(Scan("s3", 3, (f,), True) for f in _script_formulas(script))))
    return ops


def rounds_for(workload: str, seconds: int) -> int:
    return max(3, math.ceil(2 * seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, seconds: int) -> Plan:
    """The operations of one run, drawn from the pools by `seed`."""
    if workload not in WORKLOADS:
        raise InputError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    n_rounds = rounds_for(workload, seconds)
    files: dict[str, str] = {}
    rounds = []
    if workload == "queries":
        pools, files = query_pools()
        for _ in range(n_rounds):
            ops = [op for cat, count in QUERY_MIX.items()
                   for op in (rng.sample(pools[cat], count) if len(pools[cat]) >= count
                              else rng.choices(pools[cat], k=count))]
            rng.shuffle(ops)
            rounds.append(tuple(ops))
    else:
        make = _scan_frames_round if workload == "scan-frames" else _scan_valuations_round
        rounds = [tuple(make(rng, files)) for _ in range(n_rounds)]
    return Plan(workload, seed, tuple(rounds), files)


# ---------------------------------------------------------------------------
# limits and planned work


def scan_k(scan: Scan) -> int:
    names: set[str] = set()
    for text in scan.formulas:
        f = parse(text)
        names |= variables(f)
        if scan.evaluate_all:
            names |= variables(desugar(f))
    return len(names)


def scan_pairs(scan: Scan, k: int) -> int:
    table = oracle.FRAMES if scan.evaluate_all else oracle.FRAMES_NORMAL
    return sum(table[scan.class_name][m - 1] << (k * m) for m in range(1, scan.max_n + 1))


def _scripts(op: Op) -> list[str]:
    """Proof scripts an operation checks."""
    if op.call[0] == "spotcheck":
        return [op.call[2]]
    return [a[len("{work}/"):] for a in op.call[1] if a.endswith(".proof")] if op.call[0] == "cli" else []


def _taut_atoms(script: str) -> list[int]:
    """Opaque atoms of every tautology check the script's pc and nrest steps make."""
    d = parse_script(script)
    out = []
    for step in d.steps:
        just = step.justification
        if getattr(just, "axiom", None) == "pc":
            out.append(oracle.opaque_atoms(step.formula))
        elif getattr(just, "rule", None) == "nrest":
            out.append(oracle.opaque_atoms(d.steps[just.premises[0] - 1].formula))
    return out


def validate(plan: Plan) -> dict[str, int]:
    """Check every input against the limits before anything runs; return
    the work one pass of full scans is planned to do."""
    planned = {"full_scans": 0, "relation_codes": 0, "frames_yielded": 0, "frames_evaluated": 0, "pairs": 0}
    seen: dict[Scan, int] = {}
    for r, ops in enumerate(plan.rounds):
        for op in ops:
            for scan in op.scans:
                if scan not in seen:
                    k = seen[scan] = scan_k(scan)
                    where = f"{op.kind} {op.key}: {scan.class_name} n<={scan.max_n} k={k}"
                    if not 1 <= scan.max_n <= MAX_N:
                        raise InputError(f"{where}: frame size above {MAX_N}")
                    if k * scan.max_n > MAX_KN:
                        raise InputError(f"{where}: k*n = {k * scan.max_n} above {MAX_KN}")
                    if scan_pairs(scan, k) > CAP_PAIRS:
                        raise InputError(f"{where}: {scan_pairs(scan, k)} frame-valuation pairs above {CAP_PAIRS}")
                if r == 0 and scan.full:
                    k = seen[scan]
                    table = oracle.FRAMES if scan.evaluate_all else oracle.FRAMES_NORMAL
                    planned["full_scans"] += 1
                    planned["relation_codes"] += sum(1 << (m * m) for m in range(1, scan.max_n + 1))
                    planned["frames_yielded"] += sum(oracle.FRAMES[scan.class_name][:scan.max_n])
                    planned["frames_evaluated"] += sum(table[scan.class_name][:scan.max_n])
                    planned["pairs"] += scan_pairs(scan, k)
        for name in _scripts(op):
            for atoms in _taut_atoms(plan.files[name]):
                if atoms > MAX_TAUT_ATOMS:
                    raise InputError(f"{op.kind} {op.key}: tautology check over {atoms} atoms "
                                     f"above {MAX_TAUT_ATOMS}")
    return planned


# ---------------------------------------------------------------------------
# reference outputs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_entry(op: Op, files: dict[str, str]) -> dict:
    """What reference/queries.json keys an operation's recording on."""
    inputs = {name: sha256(files[name]) for name in files if "{work}/" + name in op.call[1]}
    return {"argv": list(op.call[1]), "inputs": inputs}


def load_reference(plan: Plan) -> dict[str, dict]:
    """Recorded outputs for the plan's CLI queries; raise InputError when a
    query is missing or its recorded inputs differ from the generated ones."""
    if plan.workload != "queries":
        return {}
    try:
        recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {REFERENCE_FILE.name}: {exc}") from exc
    by_key = {op.key: op for ops in plan.rounds for op in ops if op.call[0] == "cli"}
    for key, op in by_key.items():
        entry = recorded.get(key)
        if entry is None or {k: entry[k] for k in ("argv", "inputs")} != reference_entry(op, plan.files):
            raise InputError(f"reference output for {key} is missing or out of date; "
                             "rerun bench/make_reference.py on a commit whose outputs are known good")
    return recorded


# ---------------------------------------------------------------------------
# checks, run after the timed region on every operation's output


def check(op: Op, output: str, recorded: dict, files: dict[str, str], golden: str) -> str | None:
    """Problem with one operation's output, or None."""
    if recorded and op.call[0] == "cli" and sha256(output) != recorded[op.key]["output_sha256"]:
        return "output differs from the recorded reference"
    rc, _, stdout = output.partition("\n")
    match op.expect:
        case ("reference",):
            return None
        case ("valid", text, class_name, max_n, schema):
            if not oracle.schema_valid(schema, class_name):
                return f"no textbook verdict 'valid' for {schema} over {class_name}"
            if output != f"rc=0\nvalid up to {max_n}\n":
                return f"expected 'valid up to {max_n}', got {output!r}"
        case ("countermodel", text, class_name, max_n, why):
            if why.startswith("schema"):
                schema = why.split()[1]
                if oracle.schema_valid(schema, class_name):
                    return f"{why}: textbook verdict is valid"
            if rc != "rc=0":
                return f"countermodel query exited with {rc}"
            n, world, mj = oracle.parse_cli_witness(stdout)
            return oracle.check_witness(mj, world, n, parse(text), class_name)
        case ("eval", model_file, world, text):
            truth = oracle.eval_json(json.loads(files[model_file]), world, parse(text))
            if output != f"rc=0\n{'true' if truth else 'false'}\n":
                return f"eval printed {output!r}, set evaluator says {truth}"
        case ("prove", name, steps):
            if output != f"rc=0\nok ({steps} steps)\n":
                return f"expected 'ok ({steps} steps)', got {output!r}"
        case ("suite",):
            table, sep, written = stdout.partition("--- json ---\n")
            if rc != "rc=0" or not table.endswith("mismatches: 0\n"):
                return "suite reported mismatches"
            if written != golden:
                return "suite --json differs from tests/golden/suite_max2.json"
        case ("suite-catalog",):
            return check_suite(output)
        case ("suite-golden",):
            return check_suite(output) or (None if output == golden else
                                           "run_suite(2) JSON differs from tests/golden/suite_max2.json")
        case ("none",):
            if output != "none":
                return f"expected no witness, got {output!r}"
        case ("spotcheck", steps):
            if output != "".join(f"{k}: valid\n" for k in range(1, steps + 1)):
                return f"soundness spot check found a countermodel: {output!r}"
        case _:
            raise ValueError(f"unknown expectation {op.expect!r}")
    return None


def check_suite(text: str) -> str | None:
    """A suite JSON report against the catalog's hand-written expectations,
    with every witness re-evaluated over sets."""
    data = json.loads(text)
    if data["mismatches"] != 0:
        return f"suite reports {data['mismatches']} mismatches"
    for entry in data["entries"]:
        cat = CATALOG_BY_NAME[entry["name"]]
        if (entry["formula"], entry["class"]) != (cat.text, cat.class_name):
            return f"{entry['name']}: formula or class differs from the catalog"
        found = entry["witness"] is not None
        if cat.expected.value == "valid" and found or cat.expected.value == "invalid" and not found:
            return f"{entry['name']}: verdict contradicts the catalog's expectation"
        if found:
            w = entry["witness"]
            problem = oracle.check_witness(w["model"], w["world"], w["n"], cat.formula, cat.class_name)
            if problem or w["n"] > entry["bound"]:
                return f"{entry['name']}: {problem or 'witness larger than the bound'}"
    return None
