"""End-to-end command line tests, run in process via main(argv)."""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstrict import cli, search
from superstrict.catalog import run_suite
from superstrict.cli import PRINT_LIMIT, main
from superstrict.proof import TAUT_LIMIT, SystemId
from superstrict.semantics import NAMED_CLASSES, model_to_json
from superstrict.syntax import desugar, fold, formula_to_json, parse, pretty, to_box_language, to_strict_language

from strategies import formulas, models

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def model_file(tmp_path):
    """Normal world 0 sees only the looping non-normal world 1, where p holds."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "worlds": 2,
        "rel": [[1], [1]],
        "normals": [0],
        "val": {"p": [1]},
    }))
    return str(path)


class TestParseCommand:
    def test_pretty_output(self, capsys):
        assert main(["parse", "--formula", "((p) |> (q |> r))"]) == 0
        assert capsys.readouterr().out == "p |> q |> r\n"

    def test_json_output(self, capsys):
        assert main(["parse", "--formula", "~p & bot", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == formula_to_json(parse("~p & bot"))

    def test_parse_error(self, capsys):
        assert main(["parse", "--formula", "p |> "]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:")


class TestEvalCommand:
    def test_true(self, capsys, model_file):
        assert main(["eval", "--formula", "box p", "--model", model_file, "--world", "0"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_false_at_non_normal(self, capsys, model_file):
        assert main(["eval", "--formula", "box p", "--model", model_file, "--world", "1"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_world_out_of_range(self, capsys, model_file):
        assert main(["eval", "--formula", "p", "--model", model_file, "--world", "7"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_model(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"worlds\": 0}")
        assert main(["eval", "--formula", "p", "--model", str(bad), "--world", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_model(self, capsys, tmp_path):
        assert main(["eval", "--formula", "p", "--model", str(tmp_path / "nope.json"), "--world", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_not_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["eval", "--formula", "p", "--model", str(bad), "--world", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestValidCommand:
    def test_valid_formula(self, capsys):
        assert main(["valid", "--formula", "~(p |> ~p)", "--class", "s2_0", "--max-n", "3"]) == 0
        assert capsys.readouterr().out == "valid up to 3\n"

    def test_refuted_formula_prints_witness(self, capsys):
        assert main(["valid", "--formula", "p |> p", "--class", "s2", "--max-n", "3"]) == 1
        out = capsys.readouterr().out
        first, _, rest = out.partition("\n")
        assert first.startswith("countermodel at n=")
        model = json.loads(rest)
        assert set(model) == {"worlds", "rel", "normals", "val"}

    def test_types_beyond_64_valuation_bits(self, capsys):
        # 15 variables at n = 5: 75 bits a valuation, read through the type table alone
        a = " & ".join(f"v{i}" for i in range(15))
        assert main(["valid", "--formula", f"box ({a}) -> ({a})", "--class", "s4", "--max-n", "5"]) == 0
        assert capsys.readouterr().out == "valid up to 5\n"

    def test_internal_fault_is_not_an_input_error(self, monkeypatch):
        # the root of the formula comes out negated, so the scan reports a false witness
        run = search._run

        def corrupt(program, leaves, rows, full):
            vals = run(program, leaves, rows, full)
            vals[-1] = full ^ vals[-1]
            return vals

        monkeypatch.setattr(search, "_run", corrupt)
        with pytest.raises(RuntimeError, match="re-verification"):
            main(["valid", "--formula", "p -> p", "--class", "s2", "--max-n", "1"])


class TestCountermodelCommand:
    def test_found(self, capsys):
        assert main(["countermodel", "--formula", "box box top", "--class", "s2_0", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("countermodel at n=2, world ")

    def test_found_expect_valid(self, capsys):
        assert main(["countermodel", "--formula", "box box top", "--class", "s2_0",
                     "--max-n", "2", "--expect-valid"]) == 1

    def test_none_found(self, capsys):
        assert main(["countermodel", "--formula", "box top", "--class", "s2_0", "--max-n", "2"]) == 1
        assert capsys.readouterr().out == "no countermodel up to n=2\n"

    def test_none_found_expect_valid(self, capsys):
        assert main(["countermodel", "--formula", "box top", "--class", "s2_0",
                     "--max-n", "2", "--expect-valid"]) == 0


class TestTranslateCommand:
    def test_to_box(self, capsys):
        assert main(["translate", "--formula", "p |> q", "--to", "box"]) == 0
        assert capsys.readouterr().out == "dia p & box (p -> q)\n"

    def test_to_strict(self, capsys):
        assert main(["translate", "--formula", "box p", "--to", "strict"]) == 0
        assert capsys.readouterr().out == "top => p\n"

    def test_to_core(self, capsys):
        assert main(["translate", "--formula", "dia p", "--to", "core"]) == 0
        assert capsys.readouterr().out == "p |> top\n"


class TestProveCommand:
    def test_accepts(self, capsys):
        assert main(["prove", "--system", "lemmon-s2",
                     "--script", str(DATA / "lemmon_box_top.proof")]) == 0
        assert capsys.readouterr().out == "ok (2 steps)\n"

    def test_rejects_with_step_number(self, capsys):
        assert main(["prove", "--system", "lemmon-s2",
                     "--script", str(DATA / "lemmon_nrest_bad.proof")]) == 1
        assert capsys.readouterr().out.startswith("error at step 2:")

    def test_script_error(self, capsys, tmp_path):
        script = tmp_path / "bad.proof"
        script.write_text("1. p -> p\n")
        assert main(["prove", "--system", "lemmon-s2", "--script", str(script)]) == 2
        assert capsys.readouterr().err.startswith("line 1:")

    def test_missing_file(self, capsys, tmp_path):
        assert main(["prove", "--system", "lemmon-s2",
                     "--script", str(tmp_path / "nope.proof")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lewis_tour(self, capsys):
        assert main(["prove", "--system", "lewis-s2",
                     "--script", str(DATA / "lewis_idempotence.proof")]) == 0
        assert capsys.readouterr().out == "ok (8 steps)\n"


class TestSuiteCommand:
    def test_clean_run(self, capsys):
        assert main(["suite", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("mismatches: 0\n")
        assert "guarded_s3_ax" in out

    def test_mismatch_exit(self, capsys):
        assert main(["suite", "--max-n", "1"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_json_report_is_deterministic(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["suite", "--max-n", "2", "--json", str(first)]) == 0
        assert main(["suite", "--max-n", "2", "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        data = json.loads(first.read_text())
        assert data["mismatches"] == 0


class TestUsageErrors:
    def test_unknown_class(self, capsys):
        assert main(["valid", "--formula", "p", "--class", "s9", "--max-n", "1"]) == 2

    def test_bad_bound(self, capsys):
        assert main(["valid", "--formula", "p", "--class", "s2", "--max-n", "0"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_system(self, capsys):
        assert main(["prove", "--system", "s6", "--script", "x"]) == 2


class TestDeepInput:
    """Deep input either succeeds or exits 2, never with a traceback."""

    @pytest.mark.parametrize(("formula", "printed"), [("~" * 3000 + "p", "~" * 3000 + "p"),
                                                      ("(" * 400 + "p" + ")" * 400, "p")],
                             ids=["3000-negations", "400-parentheses"])
    def test_parse(self, capsys, formula, printed):
        # the parser keeps its own stacks
        assert main(["parse", "--formula", formula]) == 0
        assert capsys.readouterr().out == printed + "\n"

    def test_prove_deep_script(self, capsys, tmp_path):
        # matching the schema compares the deep copies of `a` with ==, which keeps its own stack
        deep = "~" * 3000 + "p"
        script = tmp_path / "deep.proof"
        script.write_text(f"1. box ({deep} -> {deep}) -> (box {deep} -> box {deep}) ; axiom k\n")
        assert main(["prove", "--system", "lemmon-s2", "--script", str(script)]) == 0
        assert capsys.readouterr().out == "ok (1 steps)\n"

    def test_translate_arrow_chain(self, capsys):
        # the translations and the printer walk iteratively, so this one succeeds
        chain = " -> ".join(["p"] * 1501)
        assert main(["translate", "--to", "core", "--formula", chain]) == 0
        assert capsys.readouterr().out == chain + "\n"

    def test_eval_deep_json_model(self, capsys, tmp_path):
        model = tmp_path / "deep.json"
        model.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["eval", "--formula", "p", "--model", str(model), "--world", "0"]) == 2
        assert capsys.readouterr().err == "error: input nested too deeply\n"


class TestBooleansInModels:
    @pytest.mark.parametrize("model", [
        {"worlds": True, "rel": [[0]], "normals": [0], "val": {"p": [0]}},
        {"worlds": 1, "rel": [[False]], "normals": [0], "val": {"p": [0]}},
        {"worlds": 1, "rel": [[0]], "normals": [False], "val": {"p": [0]}},
        {"worlds": 1, "rel": [[0]], "normals": [0], "val": {"p": [False]}},
    ], ids=["worlds", "successor", "normal", "valuation"])
    def test_rejected(self, capsys, tmp_path, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["eval", "--formula", "p", "--model", str(path), "--world", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTautologyLimit:
    def test_forty_atom_pc_step_exits_2(self, capsys, tmp_path):
        atoms = [f"p{i}" for i in range(40)]
        script = tmp_path / "wide.proof"
        script.write_text(f"1. ({' & '.join(atoms)}) -> p0 ; axiom pc\n")
        assert main(["prove", "--system", "lemmon-s2", "--script", str(script)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tautology check over 40 atoms")
        assert str(TAUT_LIMIT) in err


class TestValuationBitLimit:
    def test_33_variables_at_two_worlds_exit_2(self, capsys):
        formula = " & ".join(f"x{i:02}" for i in range(33)) + " -> x00"
        start = time.perf_counter()
        assert main(["valid", "--formula", formula, "--class", "s2", "--max-n", "2"]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: 33 variables on 2 worlds:") and "<= 64" in err


def _left_chain(levels: int) -> str:
    """`(((p) |> p) |> p) ... |> p`, whose box and strict translations double per level."""
    text = "p"
    for _ in range(levels):
        text = f"({text}) |> p"
    return text


class TestTranslateLimit:
    @pytest.mark.parametrize("target", ["box", "strict"])
    def test_forty_levels_exit_2_before_printing(self, capsys, target):
        assert main(["translate", "--to", target, "--formula", _left_chain(40)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the translation could print more than {PRINT_LIMIT} characters\n"

    @pytest.mark.parametrize("target, length, sha256", [
        ("box", 81_901, "1ff9d8abfa0fb5f1544f48692416f0c277fdffa61a3b226d070c28049ebbd309"),
        ("strict", 94_186, "ea9db5169b70fbb92b39695ed40678f1f4d2533cf9406e32be542d768d6b65f6"),
    ])
    def test_twelve_levels_print_as_before(self, capsys, target, length, sha256):
        assert main(["translate", "--to", target, "--formula", _left_chain(12)]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (length, sha256)

    @given(formulas())
    def test_bound_covers_the_printed_length(self, f):
        for g in (f, desugar(f), to_box_language(f), to_strict_language(f)):
            assert fold(g, cli._printed_length_bound) >= len(pretty(g))


class TestSuiteJsonPath:
    def test_bad_path_fails_before_the_scans(self, capsys, tmp_path, monkeypatch):
        def no_scan(max_n):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_scan)
        path = tmp_path / "missing" / "report.json"
        assert main(["suite", "--max-n", "2", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert not path.exists()


def test_help_lists_subcommands_and_exit_statuses(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "Subcommands: parse, eval" in out and "2 a usage, parse, or input" in out
    assert "PRINT_LIMIT" not in out  # developer notes stay in the module docstring


class TestSharedParser:
    def test_built_once_per_process(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(50):
            assert main(["parse", "--formula", "p |> q"]) == 0
        assert capsys.readouterr().out == "p |> q\n" * 50
        assert cli._build_parser.cache_info().misses == 1

    def test_interleaved_calls_match_calls_made_alone(self, capsys, tmp_path):
        report = str(tmp_path / "report.json")
        calls = [
            ["valid", "--formula", "p", "--class", "s9", "--max-n", "1"],
            ["--help"],
            ["parse", "--formula", "~p & bot", "--json"],
            ["parse", "--formula", "~p & bot"],
            ["countermodel", "--formula", "box top", "--class", "s2_0", "--max-n", "2", "--expect-valid"],
            ["countermodel", "--formula", "box top", "--class", "s2_0", "--max-n", "2"],
            ["suite", "--max-n", "2", "--json", report],
            ["suite", "--max-n", "2"],
            ["parse", "--help"],
            ["parse"],
            ["translate", "--formula", "p |> q", "--to", "box"],
        ]

        def run(argv, fresh):
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        alone = [run(argv, fresh=True) for argv in calls]
        written = Path(report).read_bytes()
        Path(report).unlink()
        assert [run(argv, fresh=False) for argv in calls] == alone
        assert Path(report).read_bytes() == written
        assert [code for code, _, _ in alone] == [2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0]


# A fuzz of `cli.main` over random arguments to each command.  Formulas,
# bounds, worlds and models are well-formed about half the time, so that
# searches and evaluations run too.
_TOKENS = ["p", "q", "bot", "top", "~", "box", "dia", "&", "|", "->", "=>", "|>", "||>", "(", ")", "$", ""]
_FORMULAS = formulas(max_leaves=3).map(pretty) | st.lists(st.sampled_from(_TOKENS), max_size=8).map(" ".join)
_NUMBERS = st.one_of(st.booleans(), st.floats(-2, 3), st.integers(-1, 3))
_VALS = st.one_of(st.dictionaries(st.sampled_from(["p", "q"]), st.lists(_NUMBERS, max_size=3), max_size=2),
                  st.lists(_NUMBERS, max_size=2), st.text(max_size=2), _NUMBERS)
_MALFORMED = st.fixed_dictionaries({}, optional={
    "worlds": _NUMBERS,
    "rel": st.lists(st.lists(_NUMBERS, max_size=3), max_size=3),
    "normals": st.lists(_NUMBERS, max_size=3),
    "val": _VALS,
})
_WELL_FORMED = models(max_n=2).map(model_to_json)
_MODELS = _WELL_FORMED | st.one_of(
    st.builds(lambda m, val: {**m, "val": val}, _WELL_FORMED, _VALS), _MALFORMED, st.lists(_NUMBERS, max_size=2))
_STEP = st.builds("{}. {} ; {}".format, st.integers(0, 3), _FORMULAS, st.sampled_from(
    ["axiom pc", "axiom k", "mp 1 2", "nrest 1", "us 1 [p := q]", "sse 1 2 @0", "adj 1 2", "bogus", ""]))
_CLASSES = st.sampled_from([*sorted(NAMED_CLASSES), "s9", "S2", ""])
_BOUNDS = st.sampled_from(["1", "2"]) | st.sampled_from(["-1", "0", "a"])
_WORLDS = st.sampled_from(["0", "1"]) | st.sampled_from(["-1", "5", "a"])
_SCRIPTS = (st.sampled_from(sorted(DATA.glob("*.proof"))).map(Path.read_text)
            | st.lists(_STEP, max_size=3).map("\n".join))
# The arguments of each command; MODEL, SCRIPT and REPORT stand for files.
_ARGS = {
    "parse": st.builds(lambda f, js: ["--formula", f, *["--json"] * js], _FORMULAS, st.booleans()),
    "eval": st.builds(lambda f, w: ["--formula", f, "--model", "MODEL", "--world", w], _FORMULAS, _WORLDS),
    "valid": st.builds(lambda f, c, n: ["--formula", f, "--class", c, "--max-n", n], _FORMULAS, _CLASSES, _BOUNDS),
    "countermodel": st.builds(
        lambda f, c, n, ev: ["--formula", f, "--class", c, "--max-n", n, *["--expect-valid"] * ev],
        _FORMULAS, _CLASSES, _BOUNDS, st.booleans()),
    "translate": st.builds(lambda f, to: ["--formula", f, "--to", to], _FORMULAS,
                           st.sampled_from(["core", "box", "strict", "s2"])),
    "prove": st.builds(lambda system: ["--system", system, "--script", "SCRIPT"],
                       st.sampled_from([*(s.value for s in SystemId), "s2"])),
    "suite": st.builds(lambda n, js: ["--max-n", n, *["--json", "REPORT"] * js], _BOUNDS, st.booleans()),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", _ARGS)
@settings(max_examples=12)
@given(data=st.data())
def test_random_calls_exit_0_1_or_2(fuzz_dir, command, data):
    files = {"MODEL": fuzz_dir / "model.json", "SCRIPT": fuzz_dir / "script.proof", "REPORT": fuzz_dir / "report.json"}
    files["MODEL"].write_text(json.dumps(data.draw(_MODELS)))
    files["SCRIPT"].write_text(data.draw(_SCRIPTS))
    argv = [command, *(str(files.get(a, a)) for a in data.draw(_ARGS[command]))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


# `json.dumps(..., indent=2, sort_keys=True)` is the reference of every JSON print.
def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_parse_json_prints_what_json_dumps_prints(capsys):
    corpus = json.loads((GOLDEN / "parse_corpus.json").read_text(encoding="utf-8"))
    parsed = [entry for entry in corpus if "json" in entry]
    for entry in parsed:
        assert main(["parse", "--json", "--formula", entry["input"]]) == 0
        assert capsys.readouterr().out == dumps(entry["json"])
    assert len(parsed) == 359


def test_witness_json_is_what_json_dumps_prints(capsys):
    witnessed = [r for r in run_suite().results if r.report is not None]
    for r in witnessed:
        entry, report = r.entry, r.report
        assert main(["countermodel", "--formula", entry.text, "--class", entry.class_name,
                     "--max-n", str(entry.bound)]) == 0
        assert capsys.readouterr().out == (f"countermodel at n={report.frame_size}, world {report.world}\n"
                                           + dumps(model_to_json(report.model)))
    assert len(witnessed) == 20
