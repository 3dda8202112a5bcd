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
    _compile,
    _first_hit,
    _frame_blocks,
    _leaves,
    _planes,
    definability_probe,
    enumerate_frames,
    find_countermodel,
    rule_probe_witness,
)
from superstrict.semantics import NAMED_CLASSES, S2, S2_0, S3, FrameClass, frame_to_json, model_to_json
from superstrict.syntax import Box, desugar, parse, variables

from oracles import eval_json, naive_frames
from strategies import formulas

def oracle_first(fs, fc, max_n, hit, min_n=1):
    """First (n, world, model JSON) in canonical order where `hit(mj, w)`,
    over sizes min_n..max_n."""
    names = sorted(set().union(*map(variables, fs)))
    k = len(names)
    for n in range(min_n, max_n + 1):
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


def oracle_countermodel(f, fc, max_n, min_n=1):
    return oracle_first([f], fc, max_n, lambda mj, w: w in mj["normals"] and not eval_json(mj, w, f), min_n)


def oracle_rule(premises, conclusion, fc, max_n, min_n=1):
    def hit(mj, w):
        return (
            w in mj["normals"]
            and not eval_json(mj, w, conclusion)
            and all(eval_json(mj, v, p) for v in mj["normals"] for p in premises)
        )

    return oracle_first([*premises, conclusion], fc, max_n, hit, min_n)


def oracle_definability(f, fc, max_n, min_n=1):
    g = desugar(f)
    return oracle_first([f, g], fc, max_n, lambda mj, w: eval_json(mj, w, f) != eval_json(mj, w, g), min_n)


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
    # 4 variables at n = 3: 4,096 valuations per frame, so a chunk holds
    # one relation with its 7 normality masks.
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


# Word shapes the engine picks: n worlds, k variables, so 2^(k*n) valuations
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
    size, world, mj = countermodel_key(f, S2_0, n)
    vstep = min(1 << k * n, _PAIRS)
    code = valuation_code(mj)
    assert (size, world) == (n, n - 1)
    assert min(vstep, 64) == used and divmod(code % vstep, used) == (t, j)
    assert code // vstep == (1 if k * n > 15 else 0)
    if k:
        plane = _planes(n, k, code - code % vstep, code - code % vstep + vstep)[0]
        assert plane.shape == (n, 1, vstep // used) and plane.dtype.itemsize == max(used // 8, 1)


def test_the_witness_world_is_the_lowest_plane():
    # on the full two-world ktb frame both worlds fail under a@1 alone: world 0 comes first
    f = parse("dia a -> box a")
    assert_all_searches_agree(f, parse("dia top"), NAMED_CLASSES["ktb"], 2)
    size, world, mj = countermodel_key(f, NAMED_CLASSES["ktb"], 2)
    assert (size, world, mj["val"]) == (2, 0, {"a": [1]})
    assert not eval_json(mj, 0, f) and not eval_json(mj, 1, f)


def test_ex_temporaries_stay_small():
    longest = max(CATALOG, key=lambda e: len(_compile([e.formula])[0]))
    assert len(_compile([longest.formula])[0]) == 45
    # 2^16 valuations at n = 4, so a chunk is one frame of 512 uint64 words
    four_successors = parse("(r & s & bot) | ~(dia (p & q) & dia (p & ~q) & dia (~p & q) & dia (~p & ~q))")
    searches = [(longest.formula, longest.frame_class, longest.bound), (four_successors, S3, 4)]
    for f, fc, max_n in searches:  # fill the frame, leaf and plane caches
        find_countermodel(f, fc, max_n)
    tracemalloc.start()
    try:
        wits = [_first_hit((f,), fc, max_n, lambda normals, v: normals & ~v) for f, fc, max_n in searches]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wits[0] is None and wits[1][0].frame.n == 4
    # about 0.9 MB: a slot holds at most n * _PAIRS / 8 bytes a chunk, `ex` n times that
    assert peak < 1_250_000


# Chunk geometries.  The frame table is relations x normality masks, and a
# chunk crosses `rstep` relations with `gstep` consecutive masks: every mask
# of several relations when they fit in `_PAIRS // vstep` frames, else one
# relation and a group of masks, and one frame alone when its valuations
# are walked in ranges.  The first witness is the first (relation, mask,
# valuation) in that row-major order.
STAR = FrameClass(serial=True, symmetric=True)  # the first relation at n = 4: 0, 1 and 2 see 3, 3 sees them


def chunk_geometry(n, k, fc, all_points=False):
    """(relations, masks) a chunk holds at n worlds with k variables, and the class's masks."""
    masks = next(_frame_blocks(n, fc, all_points))[1].size
    fstep = _PAIRS // min(1 << k * n, _PAIRS)
    gstep = min(fstep, masks)
    return fstep // gstep, gstep, masks


def test_several_relations_by_all_masks():
    assert chunk_geometry(2, 0, S2_0) == (10922, 3, 3)
    assert chunk_geometry(2, 0, S2_0, all_points=True) == (8192, 4, 4)
    # relation 2 (1 sees 0) fails `box dia top` only when both worlds are
    # normal, the last mask; relation 3 (1 sees 0 and itself), next in the
    # same chunk, fails the disjunction at world 1 under the first mask
    f = parse("box dia top & (box box top | box ~box top)")
    key = countermodel_key(f, S2_0, 2)
    assert key == oracle_countermodel(f, S2_0, 2)
    assert key == (2, 1, {"worlds": 2, "rel": [[], [0]], "normals": [0, 1], "val": {}})
    assert not eval_json({"worlds": 2, "rel": [[], [0, 1]], "normals": [1], "val": {}}, 1, f)
    premises = [parse("box top")]  # true at every normal world
    assert probe_key(rule_probe_witness(premises, f, S2_0, 2)) == oracle_rule(premises, f, S2_0, 2) == key
    # a normal world with a non-normal successor: relation 2 under mask 1 of 0..3
    g = parse("~dia top |> top")
    wit = probe_key(definability_probe(g, S2_0, 2))
    assert wit == oracle_definability(g, S2_0, 2)
    assert wit == (2, 1, {"worlds": 2, "rel": [[], [0]], "normals": [1], "val": {}})
    # mask 0, no normal point, where a top-level `dia` differs from its rewriting
    h = parse("p & dia top")
    assert probe_key(definability_probe(h, S2_0, 2)) == oracle_definability(h, S2_0, 2)
    assert oracle_definability(h, S2_0, 2)[2]["normals"] == []


def test_one_relation_split_into_mask_groups():
    assert chunk_geometry(4, 3, STAR) == (1, 8, 15)
    assert chunk_geometry(4, 3, STAR, all_points=True) == (1, 8, 16)
    # three normal successors with distinct valuations, none of them the
    # world itself: the star with all four worlds normal, the last mask, in
    # the second group
    f = parse("~(r & p & q & dia (~r & p & q & box top) & dia (~r & p & ~q & box top) & dia (~r & ~p & box top))")
    assert find_countermodel(f, STAR, 3) is None
    key = countermodel_key(f, STAR, 4)
    assert key == oracle_countermodel(f, STAR, 4, min_n=4)
    assert key[:2] == (4, 3) and key[2]["rel"] == [[3], [3], [3], [0, 1, 2]] and key[2]["normals"] == [0, 1, 2, 3]
    # the same successors, normal or not: the first mask of the first group
    conclusion = parse("~(r & dia (~r & p & q) & dia (~r & p & ~q) & dia (~r & ~p))")
    premises = [parse("p -> p")]
    assert rule_probe_witness(premises, conclusion, STAR, 3) is None
    wit = probe_key(rule_probe_witness(premises, conclusion, STAR, 4))
    assert wit == oracle_rule(premises, conclusion, STAR, 4, min_n=4)
    assert wit[2]["normals"] == [3]
    # a normal world whose successors include a non-normal one: masks 0..15 in two groups of 8
    g = parse("r & ((~r & p & q & ~dia top) |> top) & ((~r & p & ~q) |> top) & ((~r & ~p) |> top)")
    assert definability_probe(g, STAR, 3) is None
    wit = probe_key(definability_probe(g, STAR, 4))
    assert wit == oracle_definability(g, STAR, 4, min_n=4)
    assert wit[2]["normals"] == [3]


def test_one_frame_with_valuation_ranges():
    # 8 variables at n = 2: 2^16 valuations of each of the 3 masks, walked in
    # two ranges; the first relation is 0 <-> 1
    assert chunk_geometry(2, 8, STAR) == (1, 1, 3)
    f = parse("(dia a & ~box box top) -> (b & c & d & e & f & g & h & bot)")
    key = countermodel_key(f, STAR, 2)
    assert key == oracle_countermodel(f, STAR, 2)
    assert key == (2, 1, {"worlds": 2, "rel": [[1], [0]], "normals": [1], "val": {"a": [0], **{x: [] for x in "bcdefgh"}}})
    assert valuation_code(key[2]) == _PAIRS  # the first code of the second range
    premises = [parse("h -> h")]
    assert probe_key(rule_probe_witness(premises, f, STAR, 2)) == oracle_rule(premises, f, STAR, 2) == key
    assert probe_key(definability_probe(f, STAR, 2)) == oracle_definability(f, STAR, 2)


def test_frame_table_does_not_repeat_relations():
    blocks = list(_frame_blocks(4, S2_0, False))
    assert sum(rows.shape[1] for rows, _ in blocks) == 1 << 16
    assert all(sorted(normals.tolist()) == list(range(1, 16)) for _, normals in blocks)  # every nonempty set
    # 4,915,200 bytes when each relation was repeated once per mask
    assert sum(rows.nbytes + normals.nbytes for rows, normals in blocks) < 300_000
