"""The batched search engine against an independent scan.

The oracle route walks `naive_frames` and every valuation in canonical
order and evaluates over sets with `eval_json`; the engine compiles the
formulas once and evaluates chunks of frames x valuations.  Both must return
the same first witness, compared as (frame size, world, model JSON), or
None on both sides.
"""

import tracemalloc
from dataclasses import asdict

import pytest
from hypothesis import given, settings

from superstrict.catalog import CATALOG
from superstrict.search import (
    _PAIRS,
    _leaves,
    definability_probe,
    enumerate_frames,
    find_countermodel,
    rule_probe_witness,
)
from superstrict.semantics import NAMED_CLASSES, S2, S2_0, frame_to_json, model_to_json
from superstrict.syntax import Box, desugar, parse, variables

from oracles import eval_json, naive_frames
from strategies import formulas

def oracle_first(fs, fc, max_n, hit):
    """First (n, world, model JSON) in canonical order where `hit(mj, w)`."""
    names = sorted(set().union(*map(variables, fs)))
    k = len(names)
    for n in range(1, max_n + 1):
        for edges, normals in naive_frames(n, **asdict(fc)):
            rel = [sorted(j for (i, j) in edges if i == w) for w in range(n)]
            for code in range(1 << (k * n)):
                val = {x: [j for j in range(n) if code >> (k * n - 1 - (i * n + j)) & 1]
                       for i, x in enumerate(names)}
                mj = {"worlds": n, "rel": rel, "normals": sorted(normals), "val": val}
                for w in range(n):
                    if hit(mj, w):
                        return n, w, mj
    return None


def oracle_countermodel(f, fc, max_n):
    return oracle_first([f], fc, max_n, lambda mj, w: w in mj["normals"] and not eval_json(mj, w, f))


def oracle_rule(premises, conclusion, fc, max_n):
    def hit(mj, w):
        return (
            w in mj["normals"]
            and not eval_json(mj, w, conclusion)
            and all(eval_json(mj, v, p) for v in mj["normals"] for p in premises)
        )

    return oracle_first([*premises, conclusion], fc, max_n, hit)


def oracle_definability(f, fc, max_n):
    g = desugar(f)
    return oracle_first([f, g], fc, max_n, lambda mj, w: eval_json(mj, w, f) != eval_json(mj, w, g))


def countermodel_key(f, fc, max_n):
    report = find_countermodel(f, fc, max_n)
    return None if report is None else (report.frame_size, report.world, model_to_json(report.model))


def probe_key(wit):
    return None if wit is None else (wit[0].frame.n, wit[1], model_to_json(wit[0]))


def assert_all_searches_agree(f, other, fc, max_n):
    assert countermodel_key(f, fc, max_n) == oracle_countermodel(f, fc, max_n)
    assert probe_key(rule_probe_witness([f], other, fc, max_n)) == oracle_rule([f], other, fc, max_n)
    assert probe_key(definability_probe(f, fc, max_n)) == oracle_definability(f, fc, max_n)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_entry_agrees_with_oracle(entry):
    assert_all_searches_agree(entry.formula, Box(entry.formula), entry.frame_class, min(entry.bound, 2))


@pytest.mark.parametrize("class_name", sorted(NAMED_CLASSES))
@settings(max_examples=30)
@given(formulas(max_leaves=4), formulas(max_leaves=3))
def test_random_formulas_agree_with_oracle(class_name, f, other):
    assert_all_searches_agree(f, other, NAMED_CLASSES[class_name], 2)


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
    # 4 variables at n = 3: 4,096 valuations per frame, so a chunk holds 8 frames.
    key = countermodel_key(THREE_SUCCESSORS, S2_0, 3)
    assert key == THREE_SUCCESSORS_WITNESS
    assert probe_key(rule_probe_witness([parse("dia s -> s")], THREE_SUCCESSORS, S2_0, 3)) == key
    n, world, mj = key
    assert not eval_json(mj, world, THREE_SUCCESSORS)
    frames = [fr for fr in enumerate_frames(n, S2_0) if fr.normals]
    position = next(i for i, fr in enumerate(frames) if frame_to_json(fr) | {"val": mj["val"]} == mj)
    assert position >= _PAIRS >> (4 * n)


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
        first_leaves = _leaves(n, k, 0, _PAIRS)
        last_leaves = _leaves(n, k, last, last + _PAIRS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * _PAIRS
    for lo, leaves in ((0, first_leaves), (last, last_leaves)):
        assert len(leaves) == k
        for offset in (0, 1, 12345, _PAIRS - 1):
            code = lo + offset
            for i, leaf in enumerate(leaves):
                assert leaf.shape == (1, _PAIRS)
                expected = sum(1 << j for j in range(n) if code >> (k * n - 1 - (i * n + j)) & 1)
                assert int(leaf[0, offset]) == expected
    assert all(int(leaf[0, -1]) == 0b1111 for leaf in last_leaves)
