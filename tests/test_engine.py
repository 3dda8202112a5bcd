"""The batched search engine against an independent scan.

The oracle route walks `naive_frames` and every valuation in canonical
order and evaluates over sets with `extensions`; the engine compiles the
formulas once and evaluates chunks of frames x valuations.  Both must return
the same first witness, compared as (frame size, world, model JSON), or
None on both sides.  Each reduction the engine makes, one valuation per
propositional type, one relation per isomorphism class, least rows at
non-normal worlds and chunks of many frames, must leave the first witness
as it is: switched off one at a time or all together through `SWITCHES`,
the engine returns the same.
"""

import itertools
import random
import time
import tracemalloc
from collections import OrderedDict
from dataclasses import asdict, replace
from functools import cache, lru_cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings

from superstrict import search
from superstrict.catalog import CATALOG, CATALOG_BY_NAME, run_suite
from superstrict.search import (
    _CODES,
    _INT_BITS,
    _INT_TABLES,
    _PAIRS,
    _code_rows,
    _compile,
    _first_hit,
    _frame_block,
    _frame_table,
    _frames,
    _geometry,
    _idle_least,
    _int_frame_table,
    _normals,
    _orbit_least,
    _planes,
    _relabellings,
    _representatives,
    _reversal,
    definability_probe,
    enumerate_frames,
    find_countermodel,
    rule_probe_witness,
)
from superstrict.semantics import NAMED_CLASSES, S2, S2_0, S3, Frame, FrameClass, frame_to_json, model_to_json
from superstrict.syntax import And, Box, Dia, Formula, Or, Var, desugar, parse, variables

import test_cli
import test_search
from oracles import CONDITION_SETS, condition_id, eval_json, extensions, naive_frames, representatives
from strategies import formulas


def oracle_first(fs, fc, max_n, hit, min_n=1):
    """First (n, world, model JSON) in canonical order in `hit(ext, normal)`,
    over sizes min_n..max_n.  On one frame and a block of valuations, `ext`
    gives a formula's truth as `extensions` does, for each world the set of
    valuations under which it holds, `normal` is every valuation at a normal
    world and none elsewhere, and `hit` gives such sets too."""
    names = sorted(set().union(*map(variables, fs)))
    k = len(names)
    for n in range(min_n, max_n + 1):
        worlds = [[j for j in range(n) if group >> (n - 1 - j) & 1] for group in range(1 << n)]

        @cache
        def valuations(lo):  # codes lo..lo+511 and their truth sets, built when first reached
            vals = [{x: worlds[code >> (k - 1 - i) * n & (1 << n) - 1] for i, x in enumerate(names)}
                    for code in range(lo, min(lo + 512, 1 << (k * n)))]
            return vals, {x: [{i for i, val in enumerate(vals) if w in val[x]} for w in range(n)] for x in names}

        for edges, normals in naive_frames(n, **asdict(fc)):
            frame = {"worlds": n, "rel": [sorted(j for (i, j) in edges if i == w) for w in range(n)],
                     "normals": sorted(normals)}
            for lo in range(0, 1 << (k * n), 512):  # in blocks, so a hit early in many valuations ends the walk
                vals, truth = valuations(lo)
                every = set(range(len(vals)))
                hits = hit(extensions(frame, truth, len(vals)), [every if w in normals else set() for w in range(n)])
                if any(hits):
                    i, w = min((min(h), w) for w, h in enumerate(hits) if h)
                    return n, w, frame | {"val": vals[i]}
    return None


def oracle_countermodel(f, fc, max_n, min_n=1):
    return oracle_first([f], fc, max_n, lambda ext, normal: [nw - x for nw, x in zip(normal, ext(f))], min_n)


def oracle_rule(premises, conclusion, fc, max_n, min_n=1):
    def hit(ext, normal):
        failed = set().union(*(nw - x for p in premises for nw, x in zip(normal, ext(p))))
        return [nw - x - failed for nw, x in zip(normal, ext(conclusion))]

    return oracle_first([*premises, conclusion], fc, max_n, hit, min_n)


def oracle_definability(f, fc, max_n, min_n=1):
    g = desugar(f)
    return oracle_first([f, g], fc, max_n, lambda ext, normal: [x ^ y for x, y in zip(ext(f), ext(g))], min_n)


def countermodel_key(f, fc, max_n):
    report = find_countermodel(f, fc, max_n)
    return None if report is None else (report.frame_size, report.world, model_to_json(report.model))


def probe_key(wit):
    return None if wit is None else (wit[0].frame.n, wit[1], model_to_json(wit[0]))


def search_keys(f, other, fc, max_n):
    """The engine's first witnesses of the three searches, the rule probe
    with one premise and with two."""
    return (countermodel_key(f, fc, max_n), probe_key(rule_probe_witness([f], other, fc, max_n)),
            probe_key(rule_probe_witness([f, Dia(other)], other, fc, max_n)),
            probe_key(definability_probe(f, fc, max_n)))


@cache
def full_table(n, fc):
    """Every relation of the class at n, in canonical order: the search's
    table without the orbit reduction."""
    return np.concatenate([_frame_block(n, fc, lo) for lo in range(0, 1 << n * n, _CODES)], axis=1)


@cache
def full_int_table(n, fc):
    """`full_table` as the int tables hold it, one tuple of successor masks a relation."""
    return tuple(map(tuple, full_table(n, fc).T.tolist()))


# The engine's reductions, each switched off by the `search` attributes it
# reads: no type table, the full relation table on ints and on numpy, every
# frame whatever the rows of its non-normal worlds, one frame a chunk, and
# numpy chunks at every size.
SWITCHES = {
    "types": {"_types": lambda entry: None},
    "orbits": {"_frame_table": full_table, "_int_frame_table": full_int_table},
    "idle": {"_idle_least": lambda fc: False},
    "chunks": {"_CHUNK_BYTES": 1},
    "ints": {"_INT_BITS": 0},
}
SWITCHES["all"] = SWITCHES["types"] | SWITCHES["orbits"] | SWITCHES["idle"] | SWITCHES["chunks"] | SWITCHES["ints"]


def switch_off(mp, *switches):
    for switch in switches:
        for name, value in SWITCHES[switch].items():
            mp.setattr(search, name, value)


def plain_scan(mp):
    """Make `_first_hit` scan every valuation code of every relation: no
    propositional types and no orbit reduction (the idle rows stay least)."""
    switch_off(mp, "types", "orbits")


def assert_same_without(switch, search_fn):
    """What `search_fn()` returns, asserted equal with the reductions of `switch` off."""
    key = search_fn()
    with pytest.MonkeyPatch.context() as mp:
        switch_off(mp, switch)
        assert search_fn() == key
    return key


def assert_all_searches_agree(f, other, fc, max_n):
    expected = (oracle_countermodel(f, fc, max_n), oracle_rule([f], other, fc, max_n),
                oracle_rule([f, Dia(other)], other, fc, max_n), oracle_definability(f, fc, max_n))
    assert search_keys(f, other, fc, max_n) == expected


def reps_of(*fs):
    program, roots, names = _compile(fs)
    return _representatives(program, roots, len(names))


def search_shapes(f, other):
    """The formula tuples `search_keys` compiles: countermodel, both rule probes, definability."""
    return (f,), (other, f), (other, f, Dia(other)), (f, desugar(f))


@settings(max_examples=200)
@given(formulas(max_leaves=6), formulas(max_leaves=3))
def test_compile_emits_each_instruction_once(f, other):
    for fs in search_shapes(f, other):
        program = _compile(fs)[0]
        assert len(set(program)) == len(program)
        assert all(max(a, b) < i for i, (op, a, b) in enumerate(program) if op != "leaf")  # in dict order


def test_strict_and_superstrict_share_one_box():
    # `p => q` is box (p -> q), and `p |> q` is ex p and that same box: 12
    # slots, where spelling the box clause out in each took 13
    assert len(_compile([parse("(p => q) & (p |> q)")])[0]) == 12
    assert len(_compile([parse("p => q")])[0]) == 9 and len(_compile([parse("p |> q")])[0]) == 11


def assert_representatives_match_the_reference(f, other):
    for fs in search_shapes(f, other):
        program, roots, names = _compile(fs)
        assert _representatives(program, roots, len(names)) == representatives(program, roots, len(names))


def product_codes(n, k, reps):
    """The canonical codes of the valuations that give every world one of
    the assignments `reps`, in product order, world 0's the most significant
    digit."""
    return [sum(1 << k * n - 1 - (i * n + w) for w, a in enumerate(row) for i in range(k) if a >> k - 1 - i & 1)
            for row in itertools.product(reps, repeat=n)]


def padded(count):
    """The least power of two up to 64, or multiple of 64 up to `_PAIRS`, that holds `count`."""
    return next(size for size in (1, 2, 4, 8, 16, 32, *range(64, _PAIRS + 1, 64)) if size >= count)


def table_codes(n, k, reps):
    """The canonical codes, as Python ints, of the valuations whose bit
    planes `_planes` packs for the type table `reps` padded as numpy reads
    it, in table order: `product_codes`, then zeros."""
    size = padded(len(reps) ** n)
    planes = _planes(n, k, reps, 0, size)[1]
    bits = np.array([np.unpackbits(p.view(np.uint8), axis=-1, bitorder="little")[:, 0, :size] for p in planes])
    rows = np.packbits(bits.reshape(k * n, size).T, axis=1)  # bit i*n + w from the top: variable i at world w
    return [int.from_bytes(row.tobytes(), "big") >> -(k * n) % 8 for row in rows]


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_entry_agrees_with_oracle(entry):
    assert_all_searches_agree(entry.formula, Box(entry.formula), entry.frame_class, min(entry.bound, 2))


# With 3 variables the scan first reads a type table at n = 3, 2^9 valuations a frame.
REDUCED_AT_THREE = [e for e in CATALOG if len(variables(e.formula)) == 3 and reps_of(e.formula)]


@pytest.mark.parametrize("entry", REDUCED_AT_THREE, ids=lambda e: e.name)
def test_catalog_entry_agrees_with_oracle_where_types_merge(entry):
    assert_all_searches_agree(entry.formula, Box(entry.formula), entry.frame_class, 3)


@pytest.mark.parametrize("class_name", sorted(NAMED_CLASSES))
@settings(max_examples=30)
@given(formulas(max_leaves=4), formulas(max_leaves=3))
def test_random_formulas_agree_with_oracle(class_name, f, other):
    assert_all_searches_agree(f, other, NAMED_CLASSES[class_name], 2)


K = NAMED_CLASSES["k"]


def test_witness_in_canonical_not_world_major_order():
    # Types ~p (0), p & ~q (8) and p & q (12); r and s only in a constant.
    # World 1 sees the dead end 0 and is ~p with 0 of type p & q, or both
    # are of type p & ~q.  Canonical order puts (12, 0) first, as p@1 = 0;
    # world-major order over the types would put (8, 8) first.
    f = parse("~((~p & dia ((p & q) & box bot)) | ((p & ~q) & dia ((p & ~q) & box bot)) | (r & s & ~r))")
    assert reps_of(f) == (0, 8, 12)
    assert 1 << 4 * 2 > 64 and len(table_codes(2, 4, (0, 8, 12))) == 16  # 9 codes, padded
    key = countermodel_key(f, K, 2)
    assert key == oracle_countermodel(f, K, 2)
    assert key == (2, 1, {"worlds": 2, "rel": [[], [0]], "normals": [0, 1],
                          "val": {"p": [0], "q": [0], "r": [], "s": []}})
    assert_same_without("types", partial(search_keys, f, parse("dia top"), K, 2))
    assert_agrees_on_numpy(f, K, 2)


def test_witness_in_the_padded_last_word():
    # 12 types (p, p & q, r, s), so 144 codes at n = 2, padded to 192; the
    # witness needs every variable at both worlds: the last code, index 143
    f = parse("~((r & (s & ((p & q) & dia ((p & q) & (r & (s & box bot)))))) | (box bot & dia p))")
    reps = reps_of(f)
    assert reps == (0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15)
    table = table_codes(2, 4, reps)
    assert table == product_codes(2, 4, reps) + [0] * 48 and table[143] == (1 << 8) - 1
    key = countermodel_key(f, K, 2)
    assert key == oracle_countermodel(f, K, 2)
    assert key[2]["val"] == {x: [0, 1] for x in "pqrs"} and valuation_code(key[2]) == (1 << 8) - 1
    assert_same_without("types", partial(search_keys, f, parse("dia top"), K, 2))
    assert_agrees_on_numpy(f, K, 2)
    assert len(table_codes(4, 3, reps_of(CATALOG_BY_NAME["ssi_transitivity"].formula))) == 2432  # 7^4 = 2,401 codes


def assert_agrees_on_numpy(f, fc, max_n):
    """Every search of `f` agrees with the oracle where each size runs on
    numpy chunks, whose planes hold a type table padded to whole words, or
    every code in ranges of at most `_PAIRS`."""
    with pytest.MonkeyPatch.context() as mp:
        switch_off(mp, "ints")
        calls = forms_of_run(mp)
        packed, planes = [], search._planes
        mp.setattr(search, "_planes", lambda *args: packed.append(args) or planes(*args))
        assert_all_searches_agree(f, parse("dia top"), fc, max_n)
    assert {form for _, form in calls} == {"array"}
    for n, k, reps, lo, size in packed:
        nvals = 1 << k * n if reps is None else len(reps) ** n
        assert size == (min(nvals, _PAIRS) if reps is None else padded(nvals)) and lo % size == 0


def test_witness_at_index_zero_of_a_padded_table():
    # 3 types (no variable of p..s, some, all), so 9 codes at n = 2, padded to 16 with zeros:
    # `box box top` fails first at a normal world that sees a non-normal one, where no
    # variable need hold, so the witness is the all-false valuation, product index 0, which
    # the padded bits repeat on numpy
    f = parse("box box top | (p | q | r | s) | dia (p & q & r & s)")
    reps = reps_of(f)
    assert reps == (0, 1, 15)
    assert table_codes(2, 4, reps) == product_codes(2, 4, reps) + [0] * 7
    key = countermodel_key(f, S2_0, 2)
    assert key == oracle_countermodel(f, S2_0, 2) and valuation_code(key[2]) == 0
    assert_agrees_on_numpy(f, S2_0, 2)


def test_constant_atoms_leave_one_valuation():
    # world 1 sees only 2, which sees the dead end 0: three worlds, and every
    # maximal propositional subformula is constant
    f = parse("~(~dia box (r & ~r & p & q) & dia dia box (r & ~r & p & q))")
    assert reps_of(f) == (0,)
    assert table_codes(3, 3, (0,)) == [0]
    assert_all_searches_agree(f, parse("dia top"), K, 3)
    assert assert_same_without("types", partial(search_keys, f, parse("dia top"), K, 3))[0] == (
        3, 1, {"worlds": 3, "rel": [[], [2], [0]], "normals": [0, 1, 2], "val": {"p": [], "q": [], "r": []}})


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_representatives_match_the_reference(entry):
    assert_representatives_match_the_reference(entry.formula, Box(entry.formula))


@settings(max_examples=300)
@given(formulas(max_leaves=6), formulas(max_leaves=3))
# `box a` reads `a` through its operand `~a`, so the atoms are the variables'
# complements here and the variables below: each separates all 2^15 assignments
@example(parse(" | ".join(f"box {x}" for x in "abcdefghijklmno")), parse("dia top"))
@example(parse(" | ".join(f"box ~{x}" for x in "abcdefghijklmno")), parse("dia top"))
def test_random_representatives_match_the_reference(f, other):
    assert_representatives_match_the_reference(f, other)
    # all three variables, as the random searches below read them at n = 3
    assert_representatives_match_the_reference(Or(f, And(Var("p"), And(Var("q"), Var("r")))), other)


def test_code_tables_stay_within_the_pair_budget(monkeypatch):
    for k, reps in ((3, (0, 2, 3, 4, 5, 6, 7)), (4, tuple(range(15))), (2, (0, 2, 3)), (15, (0, 1, 5))):
        for n in range(1, 64 // k + 1):
            if (count := len(reps) ** n) <= _PAIRS:  # the search reads no table above
                table = table_codes(n, k, reps)
                assert len(table) == padded(count) <= 1 << k * n
                assert table == product_codes(n, k, reps) + [0] * (len(table) - count)
    assert table_codes(1, 7, tuple(range(127))) == [*range(127), 0]  # 127 codes pad to 128 = 2^7
    assert reps_of(parse(" & ".join("abcdefghijklmnop"))) is None  # 2^16 assignments: more than _PAIRS
    # 15 types of 4 variables, read from n = 2, the first size above 64 valuations a frame, to
    # n = 3, 15^3 = 3,375; at n = 4, 15^4 = 50,625 > _PAIRS, so every one of the 2^16 codes
    f = parse("(dia p & dia q & dia r & dia (s & (p | q | r))) -> dia top")
    assert len(reps_of(f)) == 15
    read = []  # (n, types, valuations a frame) of each size evaluated
    for form in ("_int_hit", "_array_hit"):
        evaluate = getattr(search, form)
        monkeypatch.setattr(search, form, lambda *args, run=evaluate: read.append((args[3], *args[-2:])) or run(*args))
    assert find_countermodel(f, NAMED_CLASSES["s5"], 4) is None
    assert [(n, nvals) for n, types, nvals in read] == [(1, 16), (2, 225), (3, 3375), (4, 1 << 16)]
    assert [types for n, types, nvals in read] == [None, reps_of(f), reps_of(f), None]
    # past 64 valuation bits a size must read the table: refused where it is above _PAIRS
    assert len(reps_of(WIDE)) ** 6 <= _PAIRS < len(reps_of(WIDE)) ** 7
    with pytest.raises(ValueError, match="^15 variables on 7 worlds: "):
        find_countermodel(WIDE, NAMED_CLASSES["s5"], 7)


# Five types of p, q and r, which the sorted names put first; x10..x21 occur
# only in a contradiction.  At n = 5 a valuation has 75 bits.
FIVE_TYPES = "~(dia (p & q & r) & dia (p & q & ~r) & dia (p & ~q) & dia (~p & r) & dia (~p & ~r))"
WIDE_X = " & ".join(f"x{i}" for i in range(10, 22))
WIDE = parse(f"{FIVE_TYPES} | (({WIDE_X}) & ~({WIDE_X}))")


def test_types_beyond_64_valuation_bits():
    reps = reps_of(WIDE)
    assert len(reps) == 5 and all(a % (1 << 12) == 0 for a in reps)  # the x variables false
    n, k = 5, 15
    assert table_codes(n, k, reps) == product_codes(n, k, reps) + [0] * 11  # 5^5 = 3,125 codes, padded to 3,136
    # the first witness sets no x variable, so it is the plain scan's witness without them
    key = countermodel_key(WIDE, NAMED_CLASSES["s5"], n)
    with pytest.MonkeyPatch.context() as mp:
        plain_scan(mp)
        size, world, mj = countermodel_key(parse(FIVE_TYPES), NAMED_CLASSES["s5"], n)
    assert size == n and key == (size, world, mj | {"val": mj["val"] | {f"x{i}": [] for i in range(10, 22)}})
    assert not eval_json(key[2], world, WIDE)


# 33 variables: 2^33 assignments of a world, too many for types, so n = 2
# would take the plain scan at 66 valuation bits, past its stated bound of 64.
TAUTOLOGY_33 = parse(" & ".join(f"x{i:02}" for i in range(33)) + " -> x00")
# 32 variables, no types either: the first countermodel sets x30 and x31 at n = 1.
PLAIN_32 = parse("x30 & x31 -> " + " | ".join(f"x{i:02}" for i in range(30)))


def test_plain_scan_past_64_valuation_bits_is_refused():
    assert reps_of(TAUTOLOGY_33) is None
    for search_fn in (lambda: find_countermodel(TAUTOLOGY_33, S2, 2),
                      lambda: rule_probe_witness([parse("dia top")], TAUTOLOGY_33, S2, 2),
                      lambda: definability_probe(Dia(TAUTOLOGY_33), S2, 2)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^33 variables on 2 worlds: .* <= 64$"):
            search_fn()
        assert time.perf_counter() - start < 1


def test_plain_scan_at_64_valuation_bits_keeps_its_witness():
    assert reps_of(PLAIN_32) is None
    val = {f"x{i:02}": [] for i in range(30)} | {"x30": [0], "x31": [0]}
    assert countermodel_key(PLAIN_32, S2, 2) == (1, 0, {"worlds": 1, "rel": [[0]], "normals": [0], "val": val})


def test_no_types_when_atoms_are_distinct_variables():
    # every maximal propositional subformula a distinct variable: each assignment its own type
    for text in ("dia p -> dia (q & dia r)", "(dia p -> q) & r", "p & dia q", "box box top"):
        assert reps_of(parse(text)) is None
    assert sum(reps_of(e.formula) is not None for e in CATALOG) == 20


# Witnesses pinned from the frame-at-a-time scan the engine replaced.
THREE_SUCCESSORS = parse("(s & bot) | ~(dia (p & q) & dia (p & ~q) & dia ~p)")
THREE_SUCCESSORS_WITNESS = (3, 2, {"worlds": 3, "rel": [[], [], [0, 1, 2]], "normals": [2],
                                   "val": {"p": [1, 2], "q": [2], "s": []}})
EIGHT_VARIABLES = parse("(box a & b & c & d & e & f & g & h) -> box box top")
EIGHT_VARIABLES_WITNESS = (2, 1, {"worlds": 2, "rel": [[], [0]], "normals": [1],
                                  "val": {"a": [0], **{x: [1] for x in "bcdefgh"}}})


def valuation_code(mj):
    n, names = mj["worlds"], sorted(mj["val"])
    return sum(1 << (len(names) * n - 1 - (i * n + j)) for i, x in enumerate(names) for j in mj["val"][x])


def test_witness_beyond_the_first_chunk():
    # 3 variables at n = 3: 512 valuations, 8 uint64 words a frame and world,
    # so at 1/32 of the default budget a chunk holds 8 frames; the witness is
    # frame 23 of the 153 the search reads (later on the plain scan), past
    # the first two chunks.  The size fits the int budget, so numpy chunks are forced.
    with pytest.MonkeyPatch.context() as mp:
        switch_off(mp, "ints")
        calls = forms_of_run(mp)
        mp.setattr(search, "_CHUNK_BYTES", 1 << 15)
        fstep = chunk_geometry([THREE_SUCCESSORS], 3)
        assert fstep == 8
        key = countermodel_key(THREE_SUCCESSORS, S2_0, 3)
        assert key == THREE_SUCCESSORS_WITNESS
        assert probe_key(rule_probe_witness([parse("dia s -> s")], THREE_SUCCESSORS, S2_0, 3)) == key
    assert (3, "array") in calls
    n, world, mj = key
    assert not eval_json(mj, world, THREE_SUCCESSORS)
    rows, normals = _frames(n, S2_0, False)
    read = [frame_to_json(Frame(n, tuple(row[i] for row in rows), normals[i])) for i in range(len(normals))]
    assert read.index({x: mj[x] for x in ("worlds", "rel", "normals")}) >= 2 * fstep


def test_valuations_beyond_the_pair_budget():
    # 8 variables at n = 2: 2^16 valuations per frame, walked in ranges.
    assert 1 << (8 * 2) > _PAIRS
    key = countermodel_key(EIGHT_VARIABLES, S2_0, 2)
    assert key == EIGHT_VARIABLES_WITNESS
    assert probe_key(definability_probe(EIGHT_VARIABLES, S2_0, 2)) == key
    assert not eval_json(key[2], key[1], EIGHT_VARIABLES)
    assert valuation_code(key[2]) >= _PAIRS
    assert find_countermodel(parse("(a & b & c & d & e & f & g & h) -> dia top"), S2, 2) is None


def test_valuation_ranges_at_36_bits_decode_without_the_whole_axis():
    n, k = 4, 9  # 2^36 valuations: the first and the last range `_first_hit` walks
    last = (1 << (k * n)) - _PAIRS
    tracemalloc.start()
    try:
        first_planes = _planes(n, k, None, 0, _PAIRS)[1]
        last_planes = _planes(n, k, None, last, _PAIRS)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * _PAIRS
    for lo, planes in ((0, first_planes), (last, last_planes)):
        assert len(planes) == k
        for offset in (0, 1, 12345, _PAIRS - 1):
            code = lo + offset
            for i, plane in enumerate(planes):
                assert plane.shape == (n, 1, _PAIRS // 64)
                expected = sum(1 << j for j in range(n) if code >> (k * n - 1 - (i * n + j)) & 1)
                assert sum((int(plane[w, 0, offset // 64]) >> offset % 64 & 1) << w for w in range(n)) == expected
    assert all((plane[:, 0, -1] >> 63 & 1).all() for plane in last_planes)  # the last code: every world


@pytest.mark.parametrize("n, k, lo, size", [
    (1, 0, 0, 1), (2, 0, 0, 1), (1, 1, 0, 2), (2, 1, 0, 4), (1, 3, 0, 8), (2, 3, 0, 64),
    (4, 4, 1 << 15, 1 << 15),  # the second range of 2^16 codes
    (1, 17, 0, 1 << 17),  # one world's 2^17 assignments as the int plain scan reads them
    (5, 15, (1 << 75) - (1 << 15), 1 << 15),  # the last range of 2^75 codes, past 64-bit words
], ids=str)
def test_code_rows_hold_the_bits_of_canonical_codes(n, k, lo, size):
    rows = _code_rows(n, k, lo, size)
    assert len(rows) == k and all(len(var) == n and all(0 <= x < 1 << size for x in var) for var in rows)
    rng = random.Random(size)
    offsets = range(size) if size <= 64 else {0, 1, 2, 3, size // 2 - 1, size // 2, size - 2, size - 1,
                                              *rng.sample(range(size), 200)}
    for j in offsets:  # bit j of row (i, w): variable i at world w under code lo + j, canonical bit i * n + w
        code = lo + j
        assert [[x >> j & 1 for x in var] for var in rows] == \
            [[code >> k * n - 1 - (i * n + w) & 1 for w in range(n)] for i in range(k)]


# Word shapes the plain scan picks: n worlds, k variables, so 2^(k*n) valuations
# per frame packed `used = min(2^(k*n), _PAIRS, 64)` to a word.  The
# countermodel makes the variables in `true` hold at the last world and every
# other variable fail at the first, so it sits at bit j of word t.
WORD_SHAPES = [  # (n, k, true, used, t, j)
    (1, 0, "", 1, 0, 0),
    (2, 0, "", 1, 0, 0),
    (1, 1, "a", 2, 0, 1),
    (1, 2, "ab", 4, 0, 3),
    (2, 1, "a", 4, 0, 1),
    (1, 3, "ac", 8, 0, 5),
    (1, 4, "ad", 16, 0, 9),
    (2, 2, "ab", 16, 0, 5),
    (1, 5, "ae", 32, 0, 17),
    (1, 6, "af", 64, 0, 33),
    (1, 8, "abh", 64, 3, 1),
    (2, 4, "ad", 64, 1, 1),
    (1, 16, "agp", 64, 8, 1),  # 2^16 valuations: the second of two ranges
]


@pytest.mark.parametrize("n, k, true, used, t, j", WORD_SHAPES, ids=lambda v: str(v))
def test_every_word_shape_agrees_with_oracle(n, k, true, used, t, j):
    names = "abcdefghijklmnop"[:k]
    guard = " & ".join(true) or "top"
    succ = f"dia ({' | '.join(names) or 'bot'})"
    # at n = 2 the formula holds on every one-world model: `box box top`
    # fails only at a normal world with a non-normal successor
    f = parse(f"{guard} -> {succ}" if n == 1 else f"{guard} -> ({succ} | box box top)")
    assert_all_searches_agree(f, parse("dia top"), S2_0, n)
    assert_agrees_on_numpy(f, S2_0, n)
    size, world, mj = countermodel_key(f, S2_0, n)
    vstep = min(1 << k * n, _PAIRS)
    code = valuation_code(mj)
    assert (size, world) == (n, n - 1)
    assert min(vstep, 64) == used and divmod(code % vstep, used) == (t, j)
    assert code // vstep == (1 if k * n > 15 else 0)
    if k:
        plane = _planes(n, k, None, code - code % vstep, vstep)[1][0]
        assert plane.shape == (n, 1, vstep // used) and plane.dtype.itemsize == max(used // 8, 1)


def test_the_witness_world_is_the_lowest_plane():
    # on the full two-world ktb frame both worlds fail under a@1 alone: world 0
    # comes first, on ints and on numpy chunks, as re-verification names it
    f = parse("dia a -> box a")
    for switches, form in (((), "int"), (("ints",), "array")):
        with pytest.MonkeyPatch.context() as mp:
            switch_off(mp, *switches)
            calls = forms_of_run(mp)
            assert_all_searches_agree(f, parse("dia top"), NAMED_CLASSES["ktb"], 2)
            size, world, mj = countermodel_key(f, NAMED_CLASSES["ktb"], 2)
        assert {name for _, name in calls} == {form}
        assert (size, world, mj["val"]) == (2, 0, {"a": [1]})
        assert not eval_json(mj, 0, f) and not eval_json(mj, 1, f)


def test_ex_temporaries_stay_small():
    longest = max(CATALOG, key=lambda e: len(_compile([e.formula])[0]))
    assert len(_compile([longest.formula])[0]) == 45
    # 2^16 valuations at n = 4 on the plain scan, so a chunk is one frame of 512 uint64 words
    four_successors = parse("(r & s & bot) | ~(dia (p & q) & dia (p & ~q) & dia (~p & q) & dia (~p & ~q))")
    searches = [(longest.formula, longest.frame_class, longest.bound), (four_successors, S3, 4)]
    for f, fc, max_n in searches:  # fill the frame, leaf and plane caches
        find_countermodel(f, fc, max_n)
    tracemalloc.start()
    try:
        wits = [_first_hit((f,), fc, max_n, lambda normals, full, some, v: normals & (full ^ v))
                for f, fc, max_n in searches]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wits[0] is None and wits[1][0].frame.n == 4
    # about 0.8 MB, 1.1 MB on the plain scan: a chunk's slots hold at most
    # `_CHUNK_BYTES` (1 MiB) together, or one frame's when that is more, and
    # `ex` holds n times one slot
    assert peak < 1_250_000


# Chunk geometries.  A size's frames are one list of (relation, mask) pairs
# in canonical order, and a chunk holds `fstep` consecutive frames: as many
# as keep the program's planes within `_CHUNK_BYTES`, which may be every
# mask of several relations or some masks of one, and one frame alone when
# its valuations are walked in ranges.  The first witness is the first
# (frame, valuation) in that row-major order.
STAR = FrameClass(serial=True, symmetric=True)  # the first relation at n = 4: 0, 1 and 2 see 3, 3 sees them
# a countermodel, a rule probe (premises, conclusion) and a definability
# probe whose first witnesses are stars at n = 4
STAR_F = parse("~(r & p & q & dia (~r & p & q & box top) & dia (~r & p & ~q & box top) & dia (~r & ~p & box top))")
STAR_RULE = [parse("p -> p")], parse("~(r & dia (~r & p & q) & dia (~r & p & ~q) & dia (~r & ~p))")
STAR_G = parse("r & ((~r & p & q & ~dia top) |> top) & ((~r & p & ~q) |> top) & ((~r & ~p) |> top)")


def chunk_geometry(fs, n):
    """The frames a chunk holds on the plain scan of the formulas `fs` at n worlds."""
    program, _, names = _compile(fs)
    return _geometry(len(program), n, 1 << len(names) * n)[1]


def test_several_relations_by_all_masks():
    f = parse("box dia top & (box box top | box ~box top)")
    g = parse("~dia top |> top")
    assert chunk_geometry([f], 2) == 22795  # 23 slots of 2 worlds x 1 byte a frame
    assert chunk_geometry([g, desugar(g)], 2) == 19418
    # every frame of the size in one chunk: 15 of s2_0, 16 with all points
    assert len(_frames(2, S2_0, False)[1]) <= 22795 and len(_frames(2, S2_0, True)[1]) <= 19418
    # relation 2 (1 sees 0) fails `box dia top` only when both worlds are
    # normal, its last frame; relation 3 (1 sees 0 and itself), next in the
    # same chunk, fails the disjunction at world 1 in its first frame
    f = parse("box dia top & (box box top | box ~box top)")
    key = countermodel_key(f, S2_0, 2)
    assert key == oracle_countermodel(f, S2_0, 2)
    assert key == (2, 1, {"worlds": 2, "rel": [[], [0]], "normals": [0, 1], "val": {}})
    assert not eval_json({"worlds": 2, "rel": [[], [0, 1]], "normals": [1], "val": {}}, 1, f)
    premises = [parse("box top")]  # true at every normal world
    assert probe_key(rule_probe_witness(premises, f, S2_0, 2)) == oracle_rule(premises, f, S2_0, 2) == key
    # a normal world with a non-normal successor: relation 2 under mask 1 of 0..3
    wit = probe_key(definability_probe(g, S2_0, 2))
    assert wit == oracle_definability(g, S2_0, 2)
    assert wit == (2, 1, {"worlds": 2, "rel": [[], [0]], "normals": [1], "val": {}})
    # mask 0, no normal point, where a top-level `dia` differs from its rewriting
    h = parse("p & dia top")
    assert probe_key(definability_probe(h, S2_0, 2)) == oracle_definability(h, S2_0, 2)
    assert oracle_definability(h, S2_0, 2)[2]["normals"] == []


def test_one_relation_split_into_mask_groups():
    # 3 variables at n = 4: 64 uint64 words a frame and world.  A serial and
    # symmetric class keeps every mask of every relation, so each relation's
    # 15 frames, 16 with all points, are consecutive.  At the default budget
    # the 61 slots of the definability probe take 8 frames a chunk and split
    # them in two; the 33 and 24 slots of the other two searches take 15
    # frames, so the searches run at half the default budget, where each
    # one splits.
    f, (premises, conclusion), g = STAR_F, STAR_RULE, STAR_G
    relations = search._frame_table(4, STAR).shape[1]  # the table the search reads
    assert len(_frames(4, STAR, False)[1]) == relations * 15 and len(_frames(4, STAR, True)[1]) == relations * 16
    assert chunk_geometry([f], 4) == 15
    assert chunk_geometry([g, desugar(g)], 4) == 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_CHUNK_BYTES", 1 << 19)
        assert chunk_geometry([f], 4) == 7
        assert chunk_geometry([conclusion, *premises], 4) == 10
        assert chunk_geometry([g, desugar(g)], 4) == 4
        # three normal successors with distinct valuations, none of them the
        # world itself: the star with all four worlds normal, the last mask,
        # in the third chunk
        assert find_countermodel(f, STAR, 3) is None
        key = countermodel_key(f, STAR, 4)
        assert key == oracle_countermodel(f, STAR, 4, min_n=4)
        assert key[:2] == (4, 3) and key[2]["rel"] == [[3], [3], [3], [0, 1, 2]] and key[2]["normals"] == [0, 1, 2, 3]
        # the same successors, normal or not: the first frame of the first chunk
        assert rule_probe_witness(premises, conclusion, STAR, 3) is None
        wit = probe_key(rule_probe_witness(premises, conclusion, STAR, 4))
        assert wit == oracle_rule(premises, conclusion, STAR, 4, min_n=4)
        assert wit[2]["normals"] == [3]
        # a normal world whose successors include a non-normal one: mask 1 of
        # 0..15, in the first of four chunks
        assert definability_probe(g, STAR, 3) is None
        wit = probe_key(definability_probe(g, STAR, 4))
        assert wit == oracle_definability(g, STAR, 4, min_n=4)
        assert wit[2]["normals"] == [3]


def test_one_frame_with_valuation_ranges():
    # 8 variables at n = 2: 2^16 valuations of each of the 3 masks, walked in
    # two ranges; the first relation is 0 <-> 1
    f = parse("(dia a & ~box box top) -> (b & c & d & e & f & g & h & bot)")
    assert chunk_geometry([f], 2) == 1
    key = countermodel_key(f, STAR, 2)
    assert key == oracle_countermodel(f, STAR, 2)
    assert key == (2, 1, {"worlds": 2, "rel": [[1], [0]], "normals": [1], "val": {"a": [0], **{x: [] for x in "bcdefgh"}}})
    assert valuation_code(key[2]) == _PAIRS  # the first code of the second range
    premises = [parse("h -> h")]
    assert probe_key(rule_probe_witness(premises, f, STAR, 2)) == oracle_rule(premises, f, STAR, 2) == key
    assert probe_key(definability_probe(f, STAR, 2)) == oracle_definability(f, STAR, 2)


# Each reduction, and all of them together, switched off against the engine
# as it runs: a catalog test and a random-formula test per switch, each
# bound to a name below.  Besides the catalog at its bounds, the formula of
# `test_several_relations_by_all_masks`, whose first hit lies in the last
# frame of one relation with a hit in the first frame of the next, so a
# chunk decoded in any order but the frames' returns the wrong one.
CATALOG_CASES = [
    *(pytest.param(e.formula, e.frame_class, e.bound, id=e.name) for e in CATALOG),
    pytest.param(parse("box dia top & (box box top | box ~box top)"), S2_0, 2, id="first_hit_in_a_late_mask"),
]


def catalog_test(switch):
    """A test that no catalog case's first witnesses change with `switch` off."""

    @pytest.mark.parametrize("f, fc, max_n", CATALOG_CASES)
    def test(f, fc, max_n):
        assert_same_without(switch, partial(search_keys, f, Box(f), fc, max_n))

    return test


def random_test(switch):
    """A test that no random formula's first witnesses at n <= 3 change with `switch` off."""

    @pytest.mark.parametrize("class_name", sorted(NAMED_CLASSES))
    @settings(max_examples=20)
    @given(formulas(max_leaves=5), formulas(max_leaves=3))
    def test(class_name, f, other):
        # all three variables, so the type table is read at n = 3
        g = Or(f, And(Var("p"), And(Var("q"), Var("r"))))
        assert_same_without(switch, partial(search_keys, g, other, NAMED_CLASSES[class_name], 3))

    return test


test_catalog_witness_does_not_depend_on_the_types = catalog_test("types")
test_random_formulas_witness_does_not_depend_on_the_types = random_test("types")
test_catalog_witness_does_not_depend_on_the_orbit_reduction = catalog_test("orbits")
test_random_formulas_witness_does_not_depend_on_the_orbit_reduction = random_test("orbits")
test_catalog_witness_does_not_depend_on_the_idle_rows = catalog_test("idle")
test_random_formulas_witness_does_not_depend_on_the_idle_rows = random_test("idle")
test_witness_does_not_depend_on_the_budget = catalog_test("chunks")
test_random_formulas_witness_does_not_depend_on_the_budget = random_test("chunks")
test_catalog_witness_does_not_depend_on_the_int_path = catalog_test("ints")
test_random_formulas_witness_does_not_depend_on_the_int_path = random_test("ints")
test_catalog_entry_reduced_matches_plain = catalog_test("all")
test_random_formulas_reduced_match_plain = random_test("all")


def test_frame_table_does_not_repeat_relations():
    rows, normals = full_table(4, S2_0), _normals(4, S2_0, False)  # every relation of the class
    assert rows.shape[1] == 1 << 16
    assert sorted(normals) == list(range(1, 16))  # every nonempty set
    # 4,915,200 bytes when each relation was repeated once per mask
    assert rows.nbytes < 300_000
    assert _frame_table(4, S2_0).shape[1] == 3044  # the search's table


def test_frame_table_is_built_once_per_size_and_class():
    # the relations depend on the class without `all_normal`, so classes that differ only
    # in their normal worlds share them, and every search over either reads the same table:
    # built on ints up to three worlds, where no block of codes is decoded, and by numpy at four
    fc = FrameClass(serial=True, euclidean=True)
    pairs = [(fc, replace(fc, all_normal=True)), (S2, NAMED_CLASSES["kt"]), (S3, NAMED_CLASSES["s4"])]
    decoded, built = [], []
    block, table = search._frame_block, search._int_frame_table.__wrapped__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_frame_block", lambda *args: decoded.append(args) or block(*args))
        mp.setattr(search, "_frame_table", lru_cache(maxsize=None)(search._frame_table.__wrapped__))  # empty
        mp.setattr(search, "_int_frame_table", lru_cache(maxsize=None)(lambda *args: built.append(args) or table(*args)))
        for relational, normal in pairs:
            decoded.clear()
            built.clear()
            assert find_countermodel(parse("p -> p"), relational, 4) is None
            assert built == [(n, relational) for n in (1, 2, 3)]
            assert decoded == [(4, relational, lo) for lo in range(0, 1 << 16, _CODES)]  # the blocks of n = 4
            assert rule_probe_witness([parse("p")], parse("p"), relational, 4) is None
            assert find_countermodel(parse("p -> p"), normal, 4) is None
            assert rule_probe_witness([parse("p")], parse("p"), normal, 4) is None
            assert definability_probe(parse("p ||> q"), normal, 4) is None
            assert definability_probe(parse("p ||> q"), relational, 4) is None
            assert len(built) == 3 and len(decoded) == 4  # no later search builds or decodes a table
        assert search._int_frame_table.cache_info().currsize == 9  # three sizes of three relational conditions
        assert search._frame_table.cache_info().currsize == 3


def test_cached_arrays_are_read_only():
    # every later search reads them: a write into one would change its masks or decodes
    reps = reps_of(CATALOG_BY_NAME["ssi_transitivity"].formula)
    table = _planes(4, 3, reps, 0, padded(len(reps) ** 4))[1]
    arrays = [_reversal(3), _frame_table(3, S2_0), _frame_table(4, S2_0), *table, *_planes(3, 2, None, 0, 64)[1]]
    assert not any(a.flags.writeable for a in arrays)
    # the permutation tables are tuples of tuples of ints, which no reader can write into
    assert all(type(t) is tuple and all(type(row) is tuple and all(type(x) is int for x in row) for row in t)
               for t in _relabellings(3))
    # the frame lists, on ints and numpy alike, are bytes, which no reader can write into
    lists = [_frames(3, S2_0, False), _frames(4, S2_0, False)]
    assert all(type(x) is bytes for rows, normals in lists for x in (*rows, normals))


def test_enumerate_frames_decodes_as_it_yields():
    block = search._frame_block

    def first_block_only(n, fc, lo):  # a table built up front fails here, not out of memory
        assert lo == 0
        return block(n, fc, lo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_frame_block", first_block_only)
        tracemalloc.start()
        try:
            first = next(enumerate_frames(5, S2_0))  # of 2^30 frames, from 2^25 relation codes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert first == Frame(5, (0,) * 5, 0)
    assert peak < 8 << 20  # one block of codes: the relations alone take 160 MiB


# The search reads only the relations whose code is least among their images
# under the n! permutations of the worlds.  A permutation maps a frame of a
# class to one of the class and a hit to a hit, so the first hit's relation
# is least in its orbit, and the first witness must be the one the full
# table gives, whose frames `enumerate_frames` still yields.  The counts are
# the classes' relations up to isomorphism, terms of sequences in the OEIS
# (https://oeis.org), so they do not come from the code.
KEPT = {  # relations the search reads at n = 1, 2, ...: one per isomorphism class
    "s2_0": (2, 10, 104, 3044), "k": (2, 10, 104, 3044),  # binary relations, A000595
    "s2": (1, 3, 16, 218), "kt": (1, 3, 16, 218),  # digraphs, A000273; a loop at each world
    # preorders, A001930; at n = 5 the table joins the kept columns of 2,048 code blocks
    "s3": (1, 3, 9, 33, 139), "s4": (1, 3, 9, 33, 139),
    "kb": (2, 6, 20, 90),  # undirected graphs with loops allowed, A000666
    "ktb": (1, 2, 4, 11),  # simple graphs, A000088; a loop at each world
    "s5": (1, 2, 3, 5),  # equivalence relations up to isomorphism: partitions of n, A000041
}
FRAMES = {  # frames `enumerate_frames` yields at n = 1..4: every relation by every mask
    "s2_0": (4, 64, 4096, 1 << 20), "k": (2, 16, 512, 1 << 16),
    "s2": (2, 16, 512, 1 << 16), "kt": (1, 4, 64, 4096),
    "s3": (2, 16, 232, 5680), "s4": (1, 4, 29, 355),
    "kb": (2, 8, 64, 1024), "ktb": (1, 2, 8, 64), "s5": (1, 2, 5, 15),
}


@pytest.mark.parametrize("class_name", sorted(KEPT))
def test_search_reads_one_relation_per_isomorphism_class(class_name):
    fc = NAMED_CLASSES[class_name]
    kept = KEPT[class_name]
    relational = replace(fc, all_normal=False)  # the search's key
    assert tuple(_frame_table(n, relational).shape[1] for n in range(1, len(kept) + 1)) == kept
    assert tuple(len(_int_frame_table(n, relational)) for n in range(1, _INT_TABLES + 1)) == kept[:_INT_TABLES]
    for n, count in enumerate(FRAMES[class_name], 1):
        if count <= 1 << 16:
            assert sum(1 for _ in enumerate_frames(n, fc)) == count
        else:  # the 2^20 frames of s2_0 at n = 4 take seconds to yield: count the table they come from
            assert full_table(n, relational).shape[1] * len(_normals(n, fc, True)) == count


# Of the orbit-least relations under every mask, the search reads only the
# frames whose non-normal worlds have the least rows the class allows: a
# non-normal world's successors change no truth value, so the first hit's
# idle rows are least.  Only classes whose relational conditions come from
# reflexivity and transitivity keep a frame when its idle rows are replaced.
FRAMES_READ = {  # at n = 1..4, (relations x masks where it differs)
    "s2_0": (2, 15, 153, 3955),  # (2, 30, 728, 45,660)
    "s2": (1, 6, 34, 377),  # (1, 9, 112, 3,270)
    "s3": (1, 6, 25, 111),  # (1, 9, 63, 495)
    "k": KEPT["k"], "kt": KEPT["kt"], "s4": KEPT["s4"][:4],  # every world normal: no idle rows
}


@pytest.mark.parametrize("class_name", sorted(FRAMES_READ))
def test_search_reads_frames_with_least_idle_rows(class_name):
    fc = NAMED_CLASSES[class_name]
    assert tuple(len(_frames(n, fc, False)[1]) for n in range(1, 5)) == FRAMES_READ[class_name]
    for n in range(1, 4):
        rows, normals = _frames(n, fc, True)
        frames = [Frame(n, tuple(row[i] for row in rows), normals[i]) for i in range(len(normals))]
        # the canonical code: b(0,0) .. b(n-1,n-1) m(0) .. m(n-1), big-endian
        bits = [[fr.rel[i] >> j & 1 for i in range(n) for j in range(n)] + [fr.normals >> j & 1 for j in range(n)]
                for fr in frames]
        codes = [int("".join(map(str, b)), 2) for b in bits]
        assert codes == sorted(set(codes))
        for fr in frames:
            assert all(fr.normals >> w & 1 or fr.rel[w] == (1 << w if fc.reflexive else 0) for w in range(n))


SCOPED = [FrameClass(serial=True), FrameClass(symmetric=True), FrameClass(euclidean=True),
          FrameClass(reflexive=True, transitive=True, euclidean=True), STAR]


@pytest.mark.parametrize("fc", SCOPED, ids=str)
def test_idle_rows_are_kept_where_seriality_symmetry_or_euclideanness_may_fail(fc):
    # an empty or self-loop row can break these conditions, so every
    # orbit-least relation is read under every mask, in canonical order
    for n in range(1, 5):
        for all_points in (False, True):
            table, masks = _frame_table(n, replace(fc, all_normal=False)), _normals(n, fc, all_points)
            rows, normals = _frames(n, fc, all_points)
            assert rows == tuple(row.tobytes() for row in np.repeat(table, len(masks), axis=1))
            assert normals == bytes(masks * table.shape[1])


@pytest.mark.parametrize("conditions", [c for c in CONDITION_SETS if _idle_least(FrameClass(**c))], ids=condition_id)
def test_least_idle_rows_keep_a_frame_in_its_class(conditions):
    # the premise of the idle-row cut, judged by the oracle's conditions: making
    # each non-normal world's row least, empty or the world itself under
    # reflexivity, leaves every frame in the class
    for n in range(1, 4):
        members = {frozenset(edges) for edges, _ in naive_frames(n, all_normal=True, **conditions)}
        for edges, normals in naive_frames(n, **conditions):
            least = {(w, w) for w in range(n) if w not in normals} if conditions["reflexive"] else set()
            assert frozenset({(i, j) for i, j in edges if i in normals} | least) in members


def test_frame_list_takes_no_index_arrays():
    # a serial class with non-normal worlds reads every mask of every relation:
    # 35,100 frames at n = 4, 175,500 bytes, and index arrays would add 16 a frame
    fc = FrameClass(serial=True)
    _frame_table(4, fc)
    tracemalloc.start()
    try:
        rows, normals = search._cut_frames.__wrapped__(4, fc, False, _idle_least(fc), _frame_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(normals) == 35100
    assert peak < 2 * (sum(map(len, rows)) + len(normals))


def test_each_frame_switch_reaches_a_warm_scan():
    # with the frame lists cached, switching a reduction off must still change
    # what the scan reads, or the differential tests above would test nothing
    def read_at_four(*switches):
        with pytest.MonkeyPatch.context() as mp:
            switch_off(mp, *switches)
            read, frames = {}, search._frames
            mp.setattr(search, "_frames", lambda n, *args: read.setdefault(n, frames(n, *args)))
            assert rule_probe_witness([parse("p |> q"), parse("p")], parse("q"), S2, 4) is None
        return len(read[4][1])

    assert read_at_four() == 377
    assert read_at_four("idle") == 3270  # 218 relations x 15 masks
    assert read_at_four("orbits") == 6560  # of the 4,096 relations, least idle rows
    assert read_at_four("idle", "orbits") == 4096 * 15  # as "all" reads them
    assert read_at_four() == 377


def relation_code(rel):
    """The canonical code of a relation given as successor masks, world 0's successor group the top bits."""
    n = len(rel)
    return sum((rel[i] >> j & 1) << (n * n - 1 - i * n - j) for i in range(n) for j in range(n))


def relation_image(rel, perm):
    """The image of a relation under a permutation of the worlds: i sees j iff perm[i] sees perm[j] in it."""
    out = [0] * len(rel)
    for i, j in itertools.product(range(len(rel)), repeat=2):
        out[perm[i]] |= (rel[i] >> j & 1) << perm[j]
    return tuple(out)


def orbit_least(rel):
    """Whether no permutation of the worlds maps the relation to a smaller code."""
    return all(relation_code(relation_image(rel, perm)) >= relation_code(rel)
               for perm in itertools.permutations(range(len(rel))))


def test_orbit_least_against_every_permutation():
    # s2_0 to n = 3, one block of codes, and s2 and s3 at n = 4, four blocks
    for n, fc in ((1, S2_0), (2, S2_0), (3, S2_0), (4, S2), (4, S3)):
        rows = full_table(n, fc)
        least = [i for i, rel in enumerate(full_int_table(n, fc)) if orbit_least(rel)]
        src, image = _relabellings(n)
        assert _orbit_least(rows, np.array(src), np.array(image, dtype=np.uint64)).tolist() == least
        assert np.array_equal(_frame_table(n, fc), rows[:, least])  # tested a block at a time


# Up to `_INT_TABLES` worlds the relation tables and frame lists are built on
# Python ints, and above it by numpy, the form picked by n alone, into one
# layout of bytes.  The two builders must agree wherever both run, byte for
# byte, and with the oracle's frames.
@pytest.mark.parametrize("conditions", CONDITION_SETS, ids=condition_id)
def test_int_tables_and_frame_lists_match_numpy_and_the_oracle(conditions, monkeypatch):
    for n in range(1, _INT_TABLES + 1):
        relational = FrameClass(**conditions)
        table = _int_frame_table(n, relational)
        assert table == tuple(map(tuple, _frame_table(n, relational).T.tolist()))  # numpy's block decode
        relations = {tuple(sum(1 << j for i2, j in edges if i2 == i) for i in range(n))
                     for edges, _ in naive_frames(n, all_normal=True, **conditions)}
        assert list(table) == sorted((rel for rel in relations if orbit_least(rel)), key=relation_code)
        least = [min(rel[w] for rel in relations) for w in range(n)]  # empty, or the world itself
        for all_normal, all_points in itertools.product((False, True), repeat=2):
            fc = replace(relational, all_normal=all_normal)
            args = (n, fc, all_points, _idle_least(fc))
            rows, normals = search._cut_frames.__wrapped__(*args, _int_frame_table)
            frames = [(tuple(row[f] for row in rows), normals[f]) for f in range(len(normals))]
            # the oracle's frames, canonical order, of orbit-least relations, least idle rows where cut
            naive = []
            for edges, normal in naive_frames(n, all_normal=all_normal, **conditions):
                rel, nm = tuple(sum(1 << j for i, j in edges if i == w) for w in range(n)), sum(1 << w for w in normal)
                idle_least = all(nm >> w & 1 or rel[w] == least[w] for w in range(n))
                if (all_points or nm) and orbit_least(rel) and (idle_least or not args[3]):
                    naive.append((rel, nm))
            assert frames == naive
            with monkeypatch.context() as mp:
                mp.setattr(search, "_INT_TABLES", 0)  # numpy's cut of numpy's table
                assert search._cut_frames.__wrapped__(*args, _frame_table) == (rows, normals)
            assert _frames(n, fc, all_points) == (rows, normals)


def test_witnesses_at_four_worlds_do_not_depend_on_the_orbit_reduction():
    premises, conclusion = STAR_RULE
    assert assert_same_without("orbits", lambda: countermodel_key(STAR_F, STAR, 4))[:2] == (4, 3)
    assert assert_same_without("orbits", lambda: probe_key(rule_probe_witness(premises, conclusion, STAR, 4)))[0] == 4
    assert assert_same_without("orbits", lambda: probe_key(definability_probe(STAR_G, STAR, 4)))[0] == 4
    # 7 relations of s2 come before the witness's at n = 4, and the search reads 3 of them
    f = parse("(box q & p ||> ((q |> bot) => bot)) -> (p |> dia q | bot)")
    assert find_countermodel(f, S2, 3) is None
    first = (4, 3, {"worlds": 4, "rel": [[0], [1], [2], [0, 1, 2, 3]], "normals": [1, 2, 3], "val": {"p": [1, 2], "q": [2]}})
    assert assert_same_without("orbits", lambda: countermodel_key(f, S2, 4)) == first
    assert assert_same_without("orbits", lambda: probe_key(rule_probe_witness([parse("p -> p")], f, S2, 4))) == first
    assert assert_same_without("orbits", lambda: probe_key(definability_probe(f, S2, 4))) == first


# The word shapes, chunk geometries and memory bounds above are pinned for
# the plain scan of every valuation code; where a formula's types merge
# valuations the engine reads a shorter type table instead, so run them on
# the plain scan as well.
PLAIN_SCAN_CASES = [
    *(pytest.param(case, id=case.__name__.removeprefix("test_")) for case in (
        test_witness_beyond_the_first_chunk,
        test_valuations_beyond_the_pair_budget,
        test_ex_temporaries_stay_small,
        test_several_relations_by_all_masks,
        test_one_relation_split_into_mask_groups,
        test_one_frame_with_valuation_ranges,
    )),
    *(pytest.param(partial(test_every_word_shape_agrees_with_oracle, *shape), id="word_shape-" + "-".join(map(str, shape)))
      for shape in WORD_SHAPES),
]


@pytest.mark.parametrize("case", PLAIN_SCAN_CASES)
def test_on_the_plain_scan(case, monkeypatch):
    plain_scan(monkeypatch)
    case()


# Each size runs on Python ints up to `_INT_BITS` bits a slot, n worlds x
# frames x valuations, else on numpy chunks; the "ints" switch above runs
# numpy at every size.  One int a slot holds the whole size, its planes in
# canonical (frame, valuation) order, so the first hit is
# the lowest bit of the planes ORed and its world the lowest plane holding it.
def forms_of_run(mp):
    """The (n, form) of each size a search evaluates from now on: "int" or "array"."""
    calls = []
    for form in ("int", "array"):
        evaluate = getattr(search, f"_{form}_hit")

        def counted(program, roots, hit, n, *rest, evaluate=evaluate, form=form):
            calls.append((n, form))
            return evaluate(program, roots, hit, n, *rest)

        mp.setattr(search, f"_{form}_hit", counted)
    return calls


def test_small_sizes_run_on_ints_and_large_ones_on_numpy(monkeypatch):
    # counted, not timed: a change that moved them back would fail here
    calls = forms_of_run(monkeypatch)
    run_suite(2)
    assert len(calls) > len(CATALOG) and {form for _, form in calls} == {"int"}
    calls.clear()
    # super-strict detachment over s2 at n = 4: 377 frames x 256 valuations on 4 worlds, 386 kbit a
    # slot, where numpy computes a slot that never meets the normal points or a successor once per chunk
    assert rule_probe_witness([parse("p |> q"), parse("p")], parse("q"), S2, 4) is None
    assert {form for n, form in calls if n < 4} == {"int"} and len([n for n, _ in calls if n < 4]) == 3
    assert {form for n, form in calls if n == 4} == {"array"}


CHEAP_AT_THREE = sorted(set(NAMED_CLASSES) - {"s2_0", "k", "s2"})  # the oracle takes seconds on these at n = 3


@pytest.mark.parametrize("class_name", sorted(NAMED_CLASSES))
@settings(max_examples=5, deadline=None)
@given(formulas(max_leaves=4), formulas(max_leaves=3))
def test_ints_at_every_size_agree_with_oracle(class_name, f, other):
    max_n = 3 if class_name in CHEAP_AT_THREE else 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_INT_BITS", 1 << 40)
        calls = forms_of_run(mp)
        assert_all_searches_agree(f, other, NAMED_CLASSES[class_name], max_n)
    assert {form for _, form in calls} == {"int"}


# 17 variables, each only under `dia`, so no two valuations share a type
# (2^17 assignments of a world are more than `_PAIRS` in any case): at n = 1
# over s2_0 a slot is 2 frames (1 mask) x 2^17 valuations, 2^18 bits, the
# budget exactly.  The formula fails only where world 0 sees itself, the
# last relation, with every variable true, the last valuation.
AT_BUDGET = parse(" & ".join(f"dia x{i:02}" for i in range(17)) + " -> bot")
AT_BUDGET_WITNESS = (1, 0, {"worlds": 1, "rel": [[0]], "normals": [0], "val": {f"x{i:02}": [0] for i in range(17)}})


def test_slot_at_the_int_budget_and_one_bit_above():
    assert reps_of(AT_BUDGET) is None and _INT_BITS == 1 << 18
    with pytest.MonkeyPatch.context() as mp:
        calls = forms_of_run(mp)
        assert countermodel_key(AT_BUDGET, S2_0, 1) == AT_BUDGET_WITNESS
        assert calls == [(1, "int")]
        calls.clear()
        mp.setattr(search, "_INT_BITS", (1 << 18) - 1)  # the slot is now one bit above the budget
        assert countermodel_key(AT_BUDGET, S2_0, 1) == AT_BUDGET_WITNESS
        assert calls == [(1, "array")]
    assert not eval_json(AT_BUDGET_WITNESS[2], 0, AT_BUDGET)


def test_int_witnesses_at_the_ends_of_the_planes(monkeypatch):
    calls = forms_of_run(monkeypatch)
    # the last bit of the slot: frame 1 of 2, valuation 2^17 - 1 of 2^17, world 0
    assert countermodel_key(AT_BUDGET, S2_0, 1) == AT_BUDGET_WITNESS
    # the last frame of 15: the last relation of 10, the full one, under the last of its 3 masks, both
    # worlds normal, and world 1: a p-world and a non-p world that see each other and themselves, with
    # p at world 1 the first such valuation
    f = parse("p -> ~(dia p & dia ~p & box (dia p & dia ~p) & box box top)")
    key = (2, 1, {"worlds": 2, "rel": [[0, 1], [0, 1]], "normals": [0, 1], "val": {"p": [1]}})
    assert _frame_table(2, S2_0)[:, -1].tolist() == [3, 3] and _normals(2, S2_0, False)[-1] == 3
    rows, normals = _frames(2, S2_0, False)
    assert len(normals) == 15 and [row[-1] for row in rows] == [3, 3] and normals[-1] == 3
    assert countermodel_key(f, S2_0, 2) == oracle_countermodel(f, S2_0, 2) == key
    assert probe_key(rule_probe_witness([parse("p -> p")], f, S2_0, 2)) == key
    assert {form for _, form in calls} == {"int"}
    with pytest.MonkeyPatch.context() as mp:  # numpy finds the same
        switch_off(mp, "ints")
        assert countermodel_key(f, S2_0, 2) == key
    # world 2, the top plane of three, at 3 x 153 frames x 512 bits a slot, within the budget
    calls.clear()
    assert 3 * 153 * 512 <= _INT_BITS
    assert countermodel_key(THREE_SUCCESSORS, S2_0, 3) == THREE_SUCCESSORS_WITNESS
    assert calls == [(1, "int"), (2, "int"), (3, "int")]


def test_a_new_formula_with_the_same_types_builds_no_frame_leaves():
    # the frame-side leaves are kept by frame list and valuation count, the variables' planes
    # by size, variables and types: a formula parsed again shares both
    text = "(p |> q) & (q |> r) -> (p |> r)"
    assert find_countermodel(parse(text), S2, 3) is None
    leaves, planes = search._frame_leaves.cache_info(), search._variable_planes.cache_info()
    assert find_countermodel(parse(text), S2, 3) is None
    assert search._frame_leaves.cache_info().misses == leaves.misses
    assert search._frame_leaves.cache_info().hits == leaves.hits + 3  # one a size
    assert search._variable_planes.cache_info().misses == planes.misses
    # new types over the same frames and valuation count: new variables' planes, the same frame leaves
    assert find_countermodel(parse("(p |> r) & (r |> q) -> (p |> q)"), S2, 3) is None
    assert search._frame_leaves.cache_info().misses == leaves.misses
    assert search._variable_planes.cache_info().misses == planes.misses + 1  # the types of n = 3, 7^3 valuations


@pytest.mark.parametrize("case", [
    pytest.param(lambda mp: test_search.TestWitnessReverification.test_wrong_extension(None, mp), id="search"),
    pytest.param(lambda mp: test_cli.TestValidCommand.test_internal_fault_is_not_an_input_error(None, mp), id="cli"),
])
def test_run_wrappers_on_numpy(case, monkeypatch):
    # the tests that wrap `_run` run on ints at these sizes; run them on numpy chunks too
    switch_off(monkeypatch, "ints")
    calls = forms_of_run(monkeypatch)
    case(monkeypatch)
    assert calls and {form for _, form in calls} == {"array"}


# `_first_hit` keeps the compiled program of the last `_COMPILED_MAX` formula
# tuples, keyed by the formulas' ids: the catalog's formulas compile once per
# process, a newly parsed formula compiles again however it is spelled, and
# what the switches patch is still read on every search.
def count_compiles(mp):
    """The formula tuples `search._compile` compiles from now on."""
    compiled = []
    compile_ = search._compile
    mp.setattr(search, "_compile", lambda fs: compiled.append(fs) or compile_(fs))
    return compiled


def test_a_formula_object_compiles_once(monkeypatch):
    compiled = count_compiles(monkeypatch)
    f, g = parse("p |> q"), parse("~q")
    for _ in range(2):
        assert find_countermodel(f, S2, 2) is not None
        rule_probe_witness([g], f, S2, 2)
    assert compiled == [(f,), (f, g)]
    h = parse("p |> q")  # equal to f, but a new object
    assert find_countermodel(h, S2, 2) is not None
    assert len(compiled) == 3 and compiled[-1][0] is h


def test_a_repeated_definability_probe_compiles_once(monkeypatch):
    # `desugar` builds a new formula on every call, so the probe keys its
    # program by the formula it was given, not by the pair it compiles
    compiled = count_compiles(monkeypatch)
    rewritten = []
    monkeypatch.setattr(search, "desugar", lambda f: rewritten.append(f) or desugar(f))
    f = parse("p |> q")
    entries = len(search._compiled)
    wits = [probe_key(definability_probe(f, S2, 2)) for _ in range(3)]
    assert wits[0] == wits[1] == wits[2] == oracle_definability(f, S2, 2)
    assert len(compiled) == 1 and compiled[0][0] is f and compiled[0][1] == desugar(f)
    assert rewritten == [f] and len(search._compiled) == min(entries + 1, search._COMPILED_MAX)
    assert find_countermodel(f, S2, 2) is not None and len(compiled) == 2  # a countermodel search is its own entry
    g = parse("p & q")  # already in the core language: no search
    assert definability_probe(g, S2, 2) is None and definability_probe(g, S2, 2) is None
    assert len(compiled) == 3 and rewritten == [f, g]


def test_the_suite_stays_compiled_between_other_searches(monkeypatch):
    compiled = count_compiles(monkeypatch)
    report = run_suite().to_json()
    fresh = [parse(f"x{i} -> x{i}") for i in range(search._COMPILED_MAX - len(CATALOG) + 1)]
    for f in fresh[:-1]:  # with the catalog's entries, these fill the cache
        assert find_countermodel(f, S2, 1) is None
        assert len(search._compiled) <= search._COMPILED_MAX
    compiled.clear()
    assert run_suite().to_json() == report and not compiled  # every entry a hit, now the most recent
    assert find_countermodel(fresh[-1], S2, 1) is None  # drops the least recent, fresh[0], not an entry
    assert len(search._compiled) == search._COMPILED_MAX
    assert run_suite().to_json() == report and compiled == [(fresh[-1],)]


def test_the_types_switch_reaches_a_cached_program():
    entry = CATALOG_BY_NAME["guarded_ax4"]  # three variables and no countermodel: the types are read at n = 3
    assert entry in REDUCED_AT_THREE
    key = countermodel_key(entry.formula, entry.frame_class, 3)  # compiled now, if not before
    with pytest.MonkeyPatch.context() as mp:
        compiled = count_compiles(mp)
        switch_off(mp, "types")
        reached = []
        off = search._types
        mp.setattr(search, "_types", lambda *args: reached.append(args) or off(*args))
        assert countermodel_key(entry.formula, entry.frame_class, 3) == key
    assert reached and not compiled


def test_a_repeated_suite_computes_each_programs_types_once(monkeypatch):
    monkeypatch.setattr(search, "_compiled", OrderedDict())
    computed = []
    representatives_ = search._representatives
    monkeypatch.setattr(search, "_representatives",
                        lambda program, *args: computed.append(program) or representatives_(program, *args))
    report = run_suite().to_json()
    # the three-variable entries searched to n = 3, past 64 valuations a frame
    programs = {id(search._compiled[(id(e.formula), False)][1]): e.name for e in CATALOG}
    assert sorted(programs[id(p)] for p in computed) == ["guarded_ax4", "guarded_ax5", "s3_chained_transitivity",
                                                         "ssi_transitivity"]
    assert run_suite().to_json() == report and len(computed) == 4


def test_a_search_never_hashes_a_formula(monkeypatch):
    # a structural key would walk every formula on every search
    f = parse("(p |> q) -> ~(p |> ~q)")
    suite = run_suite(2).to_json()

    def unhashable(g):
        raise AssertionError("a search hashed a formula")

    monkeypatch.setattr(Formula, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(Var("p"))
    for _ in range(2):
        assert find_countermodel(f, S2, 2) is None
        assert rule_probe_witness([f], Box(f), S2, 2) is None
        assert definability_probe(f, S2, 2) is None
        assert run_suite(2).to_json() == suite
