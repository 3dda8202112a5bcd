"""Bounded frame enumeration and countermodel search.

Canonical encodings (golden files depend on these):

* A frame on n worlds is the bit string b(0,0) b(0,1) .. b(0,n-1) b(1,0) ..
  b(n-1,n-1) m(0) .. m(n-1), where b(i,j) = 1 iff j is a successor of i and
  m(i) = 1 iff world i is normal.  Frames are enumerated in ascending order
  of that string read as a big-endian integer: relation bits first, then
  normality bits.
* A valuation for variables x1 < .. < xk (sorted by name) is the bit string
  x1@0 .. x1@(n-1) x2@0 .. xk@(n-1), enumerated the same way.
* Witness search scans sizes 1..max_n, frames in canonical order, valuations
  in canonical order, worlds in ascending order, and returns the first hit.

Each search compiles its formulas into one postfix program over their
shared subformula DAG, built from conjunction, disjunction, material
implication, "some successor is in" and the set of normal points.  For each
n it reads one list of frames, `_frames`, in canonical order: a frame is a
relation plus a set of normal worlds, as in Kripke's semantics for
non-normal logics, and the list takes the relations of the class, each
under its normality masks, `_normals`, less the frames that the orbits and
idle rows below show cannot hold the first hit.  Up to `_INT_TABLES` = 3
worlds, at most 512 relation codes, the relations, `_int_frame_table`, and
the list are built on Python ints; above it numpy decodes the codes a block
at a time, `_frame_table`, and cuts the list.  The form is picked by n
alone, and either writes the list in one layout, the int form's: n bytes
objects of successor masks, byte f of row w world w's successors in frame
f, and one bytes object of normality masks, which numpy views as arrays.

`_first_hit` keeps the programs of the last `_COMPILED_MAX` = 256 formula
tuples it searched, the least recently used dropped first.  The key is the
formulas' ids, not their structure: `hash` walks a formula, at about two
fifths of the cost of compiling it.  An entry holds its formulas, so no
other object can take their ids while it is kept, and, from the first
search that reads them, the program's propositional types.  Only formula
objects searched before find their program kept, such as the catalog's,
which every `run_suite` in a process searches again; a formula parsed again
is a new object and compiles again, so a fresh process that searches each
formula once, as one command line call does, gains nothing.  A definability
probe is kept by its one formula, as `desugar` builds a new rewriting each
call.

The program is bit-sliced, one bit plane per world, one bit of a plane per
(frame, valuation) pair, and a slot takes one of two forms, picked for each
n by its size, n x frames x valuations bits.  A numpy call costs about a
microsecond however few bits it reads, and most searches stop at n <= 3,
where a slot holds a few hundred bits: there one operation on two Python
ints takes about a tenth of that.  So:

* Up to `_INT_BITS` = 2^18 bits, the whole size is one chunk, and a slot
  is one Python int of n world planes of `width` = frames x valuations
  bits: bit f * valuations + v of plane w is its truth at world w of frame
  f under valuation v, the frames in canonical order.  Conjunction,
  disjunction and implication are one int operation each.  "Some successor
  is in" ORs n rotations of the operand's planes, rotation d bringing plane
  w + d mod n to plane w, each ANDed with the cached mask of the frames
  where w sees w + d mod n.  The leaves are built bit-parallel, with no
  loop over (frame, valuation) bits: `_frame_leaves` widens each frame's
  byte to its block of valuations by strided byte copies, kept by frame
  list and valuation count, and `_variable_planes` repeats one frame's
  `_valuation_rows`, kept by size, variables and types, for every frame.
  The lowest set bit of the hit planes ORed over the worlds is in the
  first hit frame, and the least canonical code among the valuations that
  hit there is the first hit valuation.
* Above it, the program runs on numpy chunks of `fstep` consecutive frames
  x a range of `vstep` valuations: as many frames as keep every slot's
  bit planes within `_CHUNK_BYTES`, so the Python loop and one numpy call
  per instruction are paid once per megabyte of planes, and a frame with
  more valuations than `_PAIRS` alone, walking them in ranges of `_PAIRS`.
  A slot's value on a chunk is an array of shape (n, frames, words).  A
  frame's valuations are packed little-endian into words of `used =
  min(vstep, 64)` bits (uint8 holds 1, 2, 4 or 8 of them, wider words are
  filled), so bit j of word t of plane w is the slot's truth at world w
  under valuation t * used + j of the range: `_planes` packs the variables'
  planes by `int.to_bytes` from the int form's rows of the range.  The
  leaves broadcast: the variables' planes are (n, 1, words), so a slot
  that meets no normal point or successor is computed once a chunk, the
  normal points (n, frames, 1), and the frames' successors a (world,
  successor, frames, 1) array of all-ones or all-zero words.  "Some
  successor is in" ORs the successor words, masked by the operand, over
  the successor axis.  The first frame with a nonzero word in the hit
  planes ORed over the worlds is the first hit frame, and its words, read
  as one int, are the bits that hit there, decoded as the int form's are.

A search is a hit predicate on the program's results, `hit(normals, full,
some, *results)`, built from `&`, `|` and `^`, the all-ones value `full` and
`some(x)`, "some world is in x", copied to every world.  Each form defines
`some` beside its "some successor is in", so one predicate serves the ints,
the numpy chunks and the world masks of a single model.  A countermodel is
`normals & (full ^ x)`, a normal world outside `x`; a rule-probe witness
also takes `full ^ some(normals & (full ^ p))` for each premise `p`, no
normal world outside it; a definability witness is `a ^ b`.  Every search
runs through `_first_hit`, which re-verifies the first hit frame and
valuation once, the only ones built as Frame and Model objects:
its frame against the class, the hit predicate on the scalar extensions of
:mod:`superstrict.semantics`, its lowest world the witness world.  A
failure there is an internal fault and raises `RuntimeError`;
`CountermodelReport` validates its public construction with `ValueError`,
and takes a witness `_first_hit` has checked without checking it again.

The scan reads one valuation per propositional type.  A formula's truth
depends on the valuation only through its maximal propositional
subformulas, the argument behind uniform substitution: the roots and the
operands of "some successor is in" and of connectives with a modal operand
that are built from bot and variables by conjunction, disjunction and
implication alone.  Two valuations that give every world the same row of
truth values for them agree on every slot, at every world, in every frame,
and so on every hit.  `_representatives` evaluates those slots once per
compiled program on the 2^k assignments of one world and keeps the smallest
assignment giving each row.  The valuations that give every world such a
representative form a product over the worlds, and both forms read it in
one layout, `_valuation_rows`: the product's order, world 0's
representative the most significant digit, which forms no code and so
holds at any k*n.  The plain scan reads every code in canonical order,
`_code_rows`: on ints one row of 2^(k*n) bits, on numpy ranges of it.  One
decode, `_valuation`, takes the least canonical code among the valuations
that hit in the first hit frame, whatever the rows' order; the witness is
the same, as canonical order is variable-major, so the smallest code
among the product takes at each world the smallest assignment with its
row, a representative.  On numpy `_array_hit` zero-pads the valuations to
whole words, which leaves the first hit as it is: a padded bit is the
all-false valuation, product index 0, as 0 is the least member of its
class and so always a representative, so a padded bit hits only where
index 0 hits; and a frame's table valuations, at most `_PAIRS`, lie in one
chunk, so the first hit frame holds all of that frame's hits.  A plain
scan's count is a power of two, never padded, and a frame with more than
`_PAIRS` valuations is alone in its chunk and walks its ranges in order,
so the first range that hits holds its least hitting code.  The table is
read from the first n with more than 64 valuations a frame, wherever the
product has at most `_PAIRS`.

The scan reads one relation per isomorphism class.  A permutation of the
worlds maps a frame of a named class to a frame of the class, since every
class condition is closed under isomorphism, and the class's set of
normality masks to itself.  It maps a hit to a hit: a countermodel, a
rule-probe witness or a definability witness, at the image world under the
image valuation.  The frames that hit are therefore a union of orbits, and
as canonical order is relation-major, the first of them has the least
relation code of its orbit: a smaller image would carry a hit on an earlier
frame.  So `_frame_table` keeps of the relations that meet the class
conditions, stated by `semantics.relation_satisfies`, only those that
`_orbit_least`, trying one permutation at a time on the relations still in,
finds no smaller than any of their n! images; up to `_INT_TABLES` worlds
`_int_frame_table` keeps those of `_least_relations`, which walks every
code once and marks the images of each code it keeps.  A table is built
once per n and relational conditions, the class without `all_normal`, and
kept for every n.  This is orderly generation (Read 1978,
"Every one a winner"; McKay 1998, "Isomorph-free exhaustive generation").
At n = 4 it keeps 3,044 of the 65,536 relations of `s2_0`, 218 of the 4,096
of `s2` and 33 of the 355 of `s3`.  `enumerate_frames` still yields every
frame: up to `_INT_TABLES` worlds it walks the relation codes on ints, and
above it decodes them `_CODES` at a time as it yields.

The scan also skips frames that differ only in idle rows.  At a non-normal
world `box`, `=>`, `|>` and `||>` are false and `dia` is true, whatever its
successors (Kripke 1965, "Semantical analysis of modal logic II"; Priest,
*An Introduction to Non-Classical Logic*, 2nd ed. 2008, ch. 4); `_compile`
joins every "some successor is in" to the normal points.  So the row of a
non-normal world is idle: it changes no truth value anywhere.  Where the
relational conditions come from reflexivity and transitivity alone
(`_idle_least`), replacing each idle row by the least row the class
allows, empty or the world itself under reflexivity, keeps the frame in
the class, as the new rows are subsets of the old that reach no other
world, and lowers its code unless they were least already.  So the first
hit has least idle rows, and its relation is orbit-least as well:
`_frames` keeps only such frames, and the scan meets the same first frame,
valuation and world.  Seriality, symmetry and euclideanness can fail under
that replacement, so those classes read every mask of every relation.  At
n = 4 the scan reads 3,955 frames of `s2_0` of 45,660 relations x masks,
377 of `s2` (3,270) and 111 of `s3` (495).

`np` is a proxy that imports numpy at its first attribute read.  A process
whose searches stay within `_INT_TABLES` worlds and `_INT_BITS` bits a
slot, such as `superstrict suite` at default bounds or `countermodel`
at `--max-n 3`, or that enumerates frames of at most `_INT_TABLES` worlds,
never imports it; the first size above either does.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from . import semantics
from .semantics import Frame, FrameClass, Model, extension, holds, satisfies_class
from .semantics import relation_satisfies  # noqa: F401  callers look it up here
from .syntax import And, Bot, Box, Dia, Formula, Imp, Or, Ssi, Sssi, Strict, Var, desugar, fold


class _Numpy:
    """numpy, imported at the first attribute read; each attribute read is
    kept on the instance, so a later read is a plain lookup."""

    def __getattr__(self, name: str):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
_PAIRS = 1 << 15  # valuations a frame evaluated at once
_CHUNK_BYTES = 1 << 20  # bytes of every slot's bit planes in a chunk
_INT_BITS = 1 << 18  # bits of a slot up to which a size runs on Python ints
_INT_TABLES = 3  # worlds up to which relation tables and frame lists are built on Python ints
_CODES = 1 << 14  # relation codes decoded at once
_COMPILED_MAX = 256  # formula tuples whose compiled program `_first_hit` keeps
Program = list[tuple]  # (op, slot a, slot b); a variable's name as `a` until lowered


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: cached tables are shared by every search."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _mask(group: int, n: int) -> int:
    """The world mask of the n-bit group `group`, whose top bit is world 0."""
    return int(format(group, f"0{n}b")[::-1], 2)


@lru_cache(maxsize=None)
def _reversal(n: int) -> np.ndarray:
    """`rev[m]`: `_mask(m, n)` for every n-bit group m."""
    return _frozen(np.array([_mask(m, n) for m in range(1 << n)], dtype=np.min_scalar_type((1 << n) - 1)))[0]


@lru_cache(maxsize=None)
def _relabellings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n! permutations of the worlds, the identity first, as two tables:
    `src[p, w]`, the world that permutation p sends to w, and `image[p, s]`,
    the n-bit group, world 0 the top bit, of the image of successor mask s,
    in the dtype of an n*n-bit relation code."""
    perms = np.array(list(itertools.permutations(range(n))))  # perms[p, i]: where p sends i
    bits = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    image = _reversal(n)[(bits[None] << perms[:, None]).sum(axis=2)]
    return _frozen(np.argsort(perms, axis=1), image.astype(np.min_scalar_type((1 << n * n) - 1)))


def _orbit_least(rows: np.ndarray) -> np.ndarray:
    """The columns, ascending, of the relations in successor rows of shape
    (n, relations) whose code is least among their images under every
    permutation of the worlds.  The permutations are tried one at a time in
    `_relabellings` order, each on the relations no earlier one has beaten,
    until none is left."""
    n = len(rows)
    src, image = _relabellings(n)
    shift = (n * np.arange(n - 1, -1, -1)).astype(image.dtype)[:, None]

    def codes(p: int, r: np.ndarray) -> np.ndarray:  # the code of each relation's image under p
        return (image[p].take(r[src[p]]) << shift).sum(axis=0, dtype=image.dtype)

    keep, code = np.arange(rows.shape[1]), codes(0, rows)
    for p in range(1, len(src)):
        if not keep.size:
            break
        ok = codes(p, rows.take(keep, axis=1)) >= code
        keep, code = keep[ok], code[ok]
    return keep


def _frame_block(n: int, fc: FrameClass, lo: int) -> np.ndarray:
    """The successor rows, shape (n, relations), of the relation codes in
    [lo, lo + _CODES) that meet the relational conditions of `fc`, in
    canonical order, as `semantics.relation_satisfies` states them, read
    there: a caller may wrap `search.relation_satisfies` for one frame."""
    codes, low = np.arange(lo, min(lo + _CODES, 1 << n * n), dtype=np.uint64), np.uint64((1 << n) - 1)
    rows = [_reversal(n)[codes >> np.uint64(n * (n - 1 - w)) & low] for w in range(n)]  # world w's successors
    ok = np.broadcast_to(semantics.relation_satisfies(rows, n, fc), rows[0].shape)  # a plain True without a condition
    # row by row, so the table is C-ordered: `np.stack(rows)[:, ok]` is not,
    # and its strides slow every operation in `_run` that broadcasts
    return np.stack([rw[ok] for rw in rows])


@lru_cache(maxsize=None)
def _frame_table(n: int, fc: FrameClass) -> np.ndarray:
    """The successor rows of `fc`'s relations at n that `_orbit_least` keeps,
    one per isomorphism class (see the module docstring), tested a block of
    `_frame_block` at a time and joined in order."""
    blocks = (_frame_block(n, fc, lo) for lo in range(0, 1 << n * n, _CODES))
    return _frozen(np.concatenate([rows.take(_orbit_least(rows), axis=1) for rows in blocks], axis=1))[0]


def _relation(code: int, n: int) -> tuple[int, ...]:
    """The successor masks of the relation with canonical code `code` on n worlds."""
    return tuple(_mask(code >> n * (n - 1 - w) & (1 << n) - 1, n) for w in range(n))


@lru_cache(maxsize=None)
def _least_relations(n: int) -> tuple[tuple[int, ...], ...]:
    """The relations on n worlds, each as its n successor masks, whose code
    is least among their images under the n! permutations of the worlds, in
    canonical order.  Orderly over all 2^(n*n) codes, so for small n only:
    a code no smaller code has reached is least in its orbit, and reaches
    its images."""
    perms = list(itertools.permutations(range(n)))
    # moved[p][s]: the n-bit group, world 0 the top bit, of the image of successor mask s under p
    moved = [[_mask(sum((s >> j & 1) << p[j] for j in range(n)), n) for s in range(1 << n)] for p in perms]
    reached, least = set(), []
    for code in range(1 << n * n):
        if code not in reached:
            least.append(rel := _relation(code, n))
            reached.update(sum(m[rel[i]] << n * (n - 1 - p[i]) for i in range(n)) for p, m in zip(perms, moved))
    return tuple(least)


@lru_cache(maxsize=None)
def _int_frame_table(n: int, fc: FrameClass) -> tuple[tuple[int, ...], ...]:
    """`_frame_table` built on Python ints, for n up to `_INT_TABLES`: the
    relations of `_least_relations`, each as its n successor masks, that
    meet the relational conditions of `fc`, as `semantics.relation_satisfies`
    states them on int rows, in canonical order."""
    return tuple(rel for rel in _least_relations(n) if semantics.relation_satisfies(rel, n, fc))


def _normals(n: int, fc: FrameClass, all_points: bool) -> tuple[int, ...]:
    """`fc`'s normality masks at n in canonical order: all worlds under
    `all_normal`, else every set, the empty one, where no world can fail,
    only with `all_points`."""
    return ((1 << n) - 1,) if fc.all_normal else tuple(_mask(g, n) for g in range(0 if all_points else 1, 1 << n))


def _idle_least(fc: FrameClass) -> bool:
    """Whether `fc` keeps a frame whose idle rows are made least (see the module docstring)."""
    return not (fc.serial or fc.symmetric or fc.euclidean)


def _frames(n: int, fc: FrameClass, all_points: bool) -> tuple[tuple[bytes, ...], bytes]:
    """The frames a search of `fc` reads at n, cut by the functions
    `_idle_least` and, by n, `_int_frame_table` or `_frame_table` name now."""
    table = _int_frame_table if n <= _INT_TABLES else _frame_table
    return _cut_frames(n, fc, all_points, _idle_least(fc), table)


@lru_cache(maxsize=None)
def _cut_frames(n: int, fc: FrameClass, all_points: bool, idle: bool,
                table: Callable) -> tuple[tuple[bytes, ...], bytes]:
    """The frames a search of `fc` reads at n, in canonical order: each
    relation `table` gives for `fc` without `all_normal` under each mask of
    `_normals`, less, with `idle`, those with a non-normal world whose row
    is not the least in the table, empty or the world itself under
    reflexivity.  They are cut on ints up to `_INT_TABLES` worlds, else on
    numpy, into one layout: n bytes objects of rows, byte f of row w world
    w's successors in frame f, and a bytes object of masks."""
    relations, masks = table(n, replace(fc, all_normal=False)), _normals(n, fc, all_points)
    if n <= _INT_TABLES:
        least, frames = [min(rel[w] for rel in relations) for w in range(n)], []
        for rel in relations:  # under each mask where every world whose row is not least is normal
            need = sum(1 << w for w in range(n) if idle and rel[w] != least[w])
            frames += [(rel, m) for m in masks if m & need == need]
        return tuple(bytes(rel[w] for rel, _ in frames) for w in range(n)), bytes(m for _, m in frames)
    rows, normals = relations, np.array(masks, relations.dtype)
    keep = np.ones((rows.shape[1], normals.size), dtype=bool)
    for w in range(n) if idle else ():
        keep &= (normals >> w & 1 == 1) | (rows[w] == rows[w].min(initial=(1 << n) - 1))[:, None]
    # relation-major, each relation repeated once per mask it keeps, a row at a time: no index arrays
    count = keep.sum(axis=1)
    return tuple(row.repeat(count).tobytes() for row in rows), np.broadcast_to(normals, keep.shape)[keep].tobytes()


@lru_cache(maxsize=64)
def _planes(n: int, k: int, reps: tuple[int, ...] | None, lo: int, size: int) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """The variables' rows of `size` valuations and their numpy bit planes,
    shape (n, 1, words): the `_valuation_rows` of the type table `reps`,
    zero-padded to `size`, or without it the `_code_rows` of codes lo ..
    lo + size - 1.  Bit j of word t of plane w is bit t * used + j of the
    row of world w, with `used = min(size, 64)`."""
    rows = _code_rows(n, k, lo, size) if reps is None else _valuation_rows(n, k, reps)
    word, length = f"<u{max(min(size, 64) // 8, 1)}", max(size // 8, 1)
    return rows, tuple(np.frombuffer(b"".join(x.to_bytes(length, "little") for x in var), word).reshape(n, 1, -1)
                       for var in rows)


@lru_cache(maxsize=None)
def _bit_table(bit: int, shift: int) -> bytes:
    """The `bytes.translate` table taking a mask to its bit `bit`, moved to bit `shift`."""
    return bytes((m >> bit & 1) << shift for m in range(256))


def _spread(masks: bytes, bit: int, size: int) -> int:
    """The int whose bits f * size .. (f + 1) * size - 1 are set where
    `masks[f]` has bit `bit`: one frame a byte, widened to its block of a
    plane.  Each frame's lowest bit is placed first, without a loop over
    frames: it lands at bit f * size & 7 of byte f * size >> 3, the same bit
    again `period` frames and `step` bytes on, so one strided copy a residue
    of f places them all, into one buffer unless a block is narrower than a
    byte.  Then (x << size) - x fills each block."""
    g = math.gcd(size, 8)
    period, step, length = 8 // g, size // g, (len(masks) * size + 7) // 8
    x, buf = 0, bytearray(length)
    for c in range(min(period, len(masks))):
        src, start = masks[c::period], c * size >> 3
        buf[start:start + len(src) * step:step] = src.translate(_bit_table(bit, c * size & 7))
        if size < 8:  # several frames share a byte: each residue in a buffer of its own
            x, buf = x | int.from_bytes(buf, "little"), bytearray(length)
    x |= int.from_bytes(buf, "little")
    return (x << size) - x


def _repeat(x: int, size: int, times: int) -> int:
    """`times` copies of the `size`-bit int x, copy t at bit t * size, by doubling."""
    out, block, copies, at = 0, x, 1, 0
    while True:
        if times & 1:
            out |= block << at * size
            at += copies
        times >>= 1
        if not times:
            return out
        block |= block << copies * size
        copies *= 2


@lru_cache(maxsize=64)
def _frame_leaves(n: int, rows: tuple[bytes, ...], normals: bytes, nvals: int) -> tuple[int, int, tuple[int, ...]]:
    """The plane width, frames x `nvals`, and the frame-side leaves of the
    int form on the frames `rows` and `normals` of `_frames`, each n world
    planes of that width, bit f * nvals + v of plane w its value at world w
    of frame f under valuation v: the normal points, and the edge masks of
    `ex`, plane w of mask d set where w sees w + d mod n.  They depend on
    the valuations only through their count, so every formula searched over
    a class, size and `all_points` shares them; the frame lists are kept,
    so the bytes hash once.  At most 64 are kept, each 1 + n ints of at
    most `_INT_BITS` bits."""
    width = len(normals) * nvals
    norm = sum(_spread(normals, w, nvals) << w * width for w in range(n))
    edges = tuple(sum(_spread(rows[w], (w + d) % n, nvals) << w * width for w in range(n)) for d in range(n))
    return width, norm, edges


def _stripes(b: int, bits: int) -> int:
    """The int of 2^bits bits whose bit v is bit b < bits of v: runs of
    2^b zeros and 2^b ones, by `_repeat`."""
    run = 1 << b
    return _repeat((1 << run) - 1 << run, 2 * run, 1 << bits - 1 - b)


def _code_rows(n: int, k: int, lo: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The variables' rows of the valuation codes lo .. lo + size - 1, a
    power of two that divides lo: `rows[i][w]` has bit j set where variable
    i holds at world w under code lo + j, bit k*n - 1 - (i*n + w) of it.
    A code's bits below log2(size) are j's, and those above are lo's."""
    bits, full = size.bit_length() - 1, (1 << size) - 1

    def row(b: int) -> int:  # bit b of each code
        return _stripes(b, bits) if b < bits else full * (lo >> b & 1)

    return tuple(tuple(row(k * n - 1 - i * n - w) for w in range(n)) for i in range(k))


@lru_cache(maxsize=64)
def _valuation_rows(n: int, k: int, reps: tuple[int, ...] | None) -> tuple[tuple[int, ...], ...]:
    """The variables' planes of one frame: `rows[i][w]` has bit v set where
    variable i holds at world w under valuation v.  The valuations are
    every n-tuple of the k-bit assignments `reps` given to worlds 0 .. n-1,
    v their index in base len(reps) with world 0's the most significant
    digit: not canonical order where k > 1 and n > 1, as canonical order
    compares a variable at every world before the next variable; without
    `reps`, every code, v the code itself."""
    if reps is None:
        return _code_rows(n, k, 0, 1 << k * n)
    r = len(reps)
    holds = [bytes(a >> k - 1 - i & 1 for a in reps) for i in range(k)]  # byte d: variable i under reps[d]
    return tuple(tuple(_repeat(_spread(h, 0, r ** (n - 1 - w)), r ** (n - w), r ** w) for w in range(n)) for h in holds)


def _valuation(rows: tuple[tuple[int, ...], ...], hits: int) -> list[int]:
    """The variables' world masks under the least canonical code among the
    valuations of `rows` whose bits `hits` sets."""
    for var in rows:  # the code's bits from the top, each kept 0 where a valuation that hits has it 0
        for x in var:
            hits = hits & ~x or hits
    v = hits.bit_length() - 1
    return [sum((x >> v & 1) << w for w, x in enumerate(var)) for var in rows]


@lru_cache(maxsize=64)
def _variable_planes(n: int, k: int, reps: tuple[int, ...] | None, frames: int) -> tuple[int, ...]:
    """The variables' leaves of the int form on `frames` frames: the
    `_valuation_rows` of one frame repeated for every frame, each n world
    planes.  A miss costs k * n repeats, not a frame-side leaf."""
    rows = _valuation_rows(n, k, reps)
    nvals = 1 << k * n if reps is None else len(reps) ** n
    width = frames * nvals
    return tuple(sum(_repeat(x, nvals, frames) << w * width for w, x in enumerate(var)) for var in rows)


def enumerate_frames(n: int, fc: FrameClass) -> Iterator[Frame]:
    """Every frame on exactly n worlds satisfying `fc`, canonical order."""
    if n < 1:
        raise ValueError("frame size must be at least 1")
    if n <= _INT_TABLES:  # on ints, as the int tables are built
        every = (_relation(code, n) for code in range(1 << n * n))
        relations = (rel for rel in every if semantics.relation_satisfies(rel, n, fc))
    else:  # decoded as yielded, so the first frame comes at once
        blocks = (_frame_block(n, fc, lo).T.tolist() for lo in range(0, 1 << n * n, _CODES))
        relations = (tuple(rel) for block in blocks for rel in block)
    masks = _normals(n, fc, True)
    for rel in relations:
        for nm in masks:
            yield Frame(n, rel, nm)


def _compile(formulas: Sequence[Formula]) -> tuple[Program, list[int], tuple[str, ...]]:
    """One postfix program for all `formulas`, the slot of each, and the
    variables, sorted.

    Instruction i computes slot i from earlier slots; leaf 0 is bot, leaf 1
    the normal points and leaf 2 + i variable i.  Equal subformulas lower
    to equal instructions, emitted once as keys of one dict.  The arrows
    lower through box: `a => b` is `box (a -> b)`, `a |> b` adds `ex a`."""
    slots: dict[tuple, int] = {}

    def emit(op: str, a: int | str = 0, b: int = 0) -> int:
        return slots.setdefault((op, a, b), len(slots))

    bot, norm = emit("leaf", 0), emit("leaf", 1)

    def neg(a: int) -> int:
        return emit("imp", a, bot)

    def box(a: int) -> int:
        return emit("and", neg(emit("ex", neg(a))), norm)

    def ssi(a: int, b: int) -> int:
        return emit("and", emit("ex", a), box(emit("imp", a, b)))

    def lower(g: Formula, kids: Sequence[int]) -> int:
        a, b = (*kids, 0, 0)[:2]
        match g:
            case Var(name):
                return emit("var", name)
            case Bot():
                return bot
            case And() | Or() | Imp():  # the op is the class name: "and", "or", "imp"
                return emit(type(g).__name__.lower(), a, b)
            case Ssi():
                return ssi(a, b)
            case Sssi():
                return emit("and", ssi(a, b), emit("ex", neg(b)))
            case Strict():
                return box(emit("imp", a, b))
            case Box():
                return box(a)
            case Dia():
                return emit("imp", norm, emit("ex", a))
        raise TypeError(f"not a formula: {g!r}")

    roots = [fold(f, lower) for f in formulas]
    names = tuple(sorted(a for op, a, _ in slots if op == "var"))
    program = [("leaf", 2 + names.index(a), 0) if op == "var" else (op, a, b) for op, a, b in slots]
    return program, roots, names


_compiled: OrderedDict[tuple, list] = OrderedDict()  # (ids, desugared) -> [formulas, program, roots, names, types]


def _compiled_program(formulas: Sequence[Formula], desugared: bool) -> list:
    """The formulas, with `desugared` followed by their `desugar`, their
    `_compile`, and a slot for `_types`, kept by the given formulas' ids
    (see the module docstring)."""
    if (entry := _compiled.get(key := (*map(id, formulas), desugared))) is None:
        formulas = (*formulas, *map(desugar, formulas)) if desugared else tuple(formulas)
        entry = _compiled[key] = [formulas, *_compile(formulas), ...]
        if len(_compiled) > _COMPILED_MAX:
            _compiled.popitem(last=False)
    else:
        _compiled.move_to_end(key)
    return entry


def _types(entry: list) -> tuple[int, ...] | None:
    """`_representatives` of a `_compiled_program` entry's program, computed
    at the first call and kept in the entry, so a search that never reads
    the types does not pay for them, and a repeated one pays once."""
    if entry[4] is ...:
        entry[4] = _representatives(entry[1], entry[2], len(entry[3]))
    return entry[4]


def _representatives(program: Program, roots: Sequence[int], k: int) -> tuple[int, ...] | None:
    """The smallest k-bit assignment, the first variable as the high bit, of
    each class of assignments that give the maximal propositional slots of
    `program` the same row of truth values, ascending; None when 2^k exceeds
    `_PAIRS` or no two assignments share a row.

    A slot is propositional when it is bot, a variable, or a conjunction,
    disjunction or implication of propositional slots; it is maximal when it
    is a root or an operand of an instruction that is not propositional.
    The slots are evaluated by `_run` on the 2^k assignments of one world,
    where no world is normal or a successor."""
    if 1 << k > _PAIRS:
        return None
    full = (1 << (1 << k)) - 1  # bit a of a slot's int: its truth under assignment a
    variables = [_stripes(k - 1 - i, k) for i in range(k)]  # variable i: bit k - 1 - i of an assignment
    vals = _run(program, (0, 0, *variables), lambda x: 0, full)
    propositional: list[bool] = []
    maximal = set(roots)
    for op, a, b in program:
        p = a != 1 if op == "leaf" else op != "ex" and propositional[a] and propositional[b]
        if not p and op != "leaf":
            maximal.update((a, b))
        propositional.append(p)
    atoms = {vals[s] for s in maximal if propositional[s]}
    if all(v in atoms or full ^ v in atoms for v in variables):
        return None  # every variable or its complement an atom: each assignment its own class
    classes = [full]
    for x in atoms:
        classes = [c for part in classes for c in (part & x, part & ~x) if c]
    if len(classes) == 1 << k:
        return None
    return tuple(sorted((c & -c).bit_length() - 1 for c in classes))


def _run(program: Program, leaves: Sequence, ex: Callable, full) -> list:
    """Every slot's value on a chunk, in the form of its leaves: bot, the
    normal points and the variables' planes.  `&`, `|` and `^` act alike on
    ints and on arrays, so only "some successor is in" depends on the form,
    and `ex` computes it from the operand's value.  This is the one
    evaluator of a program: `_representatives` runs it too, on one world."""
    vals: list = []
    for op, a, b in program:
        match op:
            case "leaf":
                v = leaves[a]
            case "and":
                v = vals[a] & vals[b]
            case "or":
                v = vals[a] | vals[b]
            case "imp":  # b is bot in every negation the lowering emits
                v = full ^ vals[a] if b == 0 else (full ^ vals[a]) | vals[b]
            case "ex":
                v = ex(vals[a])
        vals.append(v)
    return vals


def _geometry(slots: int, n: int, nvals: int) -> tuple[int, int, int, np.dtype]:
    """(vstep, fstep, used, word): a chunk of `fstep` frames x `vstep` of
    their `nvals` valuations, packed `used` to a word of dtype `word`, for a
    program of `slots` slots on n worlds.  A frame with more than `_PAIRS`
    valuations walks them in ranges of `_PAIRS`, alone in its chunk; else
    the chunk takes as many frames as keep every slot's planes, n worlds of
    `vstep // used` words a frame, within `_CHUNK_BYTES`, and at least one."""
    vstep = min(nvals, _PAIRS)
    used = min(vstep, 64)
    word = np.dtype(f"<u{max(used // 8, 1)}")  # uint8 up to 8 used bits, then filled
    frame_bytes = slots * n * (vstep // used) * word.itemsize
    fstep = 1 if nvals > vstep else max(_CHUNK_BYTES // frame_bytes, 1)
    return vstep, fstep, used, word


def _int_hit(program: Program, roots: Sequence[int], hit: Callable, n: int, k: int, rows: tuple[bytes, ...],
             normals: bytes, reps: tuple[int, ...] | None, nvals: int) -> tuple | None:
    """The first hit among the frames `rows` and `normals` of size n as
    (relation, mask, variables' world masks), or None, evaluated on Python
    ints: the whole size at once, one int a slot, its leaves those of
    `_frame_leaves` and `_variable_planes` for the `nvals` valuations of
    `reps`, every code without them.  The first hit frame holds the lowest
    set bit, and `_valuation` decodes the valuation from the bits that hit
    there, as a table's product order is not canonical."""
    width, norm, edges = _frame_leaves(n, rows, normals, nvals)
    variables = _variable_planes(n, k, reps, len(normals))
    size = n * width

    def ex(x: int) -> int:  # rotated by d planes, plane w holds plane w + d mod n, kept where w sees it
        out = x & edges[0]
        for d in range(1, n):
            out |= (x >> d * width | x << size - d * width) & edges[d]
        return out

    def one(x: int) -> int:  # the n planes ORed, in plane 0
        out = x
        for w in range(1, n):
            out |= x >> w * width
        return out & (1 << width) - 1

    def some(x: int) -> int:  # the n planes ORed, copied to every plane
        out = one(x)
        return out | sum(out << w * width for w in range(1, n))

    full = (1 << size) - 1
    vals = _run(program, (0, norm, *variables), ex, full)
    mask = hit(norm, full, some, *(vals[r] for r in roots))
    if not mask:
        return None
    pairs = one(mask)
    f = ((pairs & -pairs).bit_length() - 1) // nvals  # the first frame with a hit, in canonical order
    hits = pairs >> f * nvals & (1 << nvals) - 1
    return [row[f] for row in rows], normals[f], _valuation(_valuation_rows(n, k, reps), hits)


def _array_hit(program: Program, roots: Sequence[int], hit: Callable, n: int, k: int, rows: tuple[bytes, ...],
               normals: bytes, reps: tuple[int, ...] | None, nvals: int) -> tuple | None:
    """The first hit as `_int_hit` gives it, evaluated on numpy chunks of
    consecutive frames and valuations as `_geometry` sizes them, on arrays
    viewing the frame list's bytes: the `nvals` valuations zero-padded to a
    power of two up to 64, else to whole 64-bit words, and read from
    `_planes`, the table of `reps` at once, or without it every code in
    ranges.  `_valuation` decodes the first hit frame's words."""
    size = 1 << (nvals - 1).bit_length() if nvals <= 64 else -(-nvals // 64) * 64
    vstep, fstep, used, word = _geometry(len(program), n, size)
    words = vstep // used
    full = word.type((1 << used) - 1)
    rows, normals = np.frombuffer(b"".join(rows), np.uint8).reshape(n, -1), np.frombuffer(normals, np.uint8)
    bit = np.arange(n, dtype=np.uint8)[:, None]

    def some(x: np.ndarray) -> np.ndarray:  # the world planes ORed, broadcast to every world
        return np.bitwise_or.reduce(x, axis=0, keepdims=True)

    for f0 in range(0, normals.size, fstep):
        fr, nm = rows[:, f0:f0 + fstep], normals[f0:f0 + fstep]
        succ = np.multiply(fr[:, None] >> bit & 1, full, dtype=word)[..., None]
        norm = np.multiply(nm >> bit & 1, full, dtype=word)[..., None]

        def ex(x: np.ndarray) -> np.ndarray:  # the successor words, masked by the operand, ORed
            return np.bitwise_or.reduce(succ & x, axis=1)

        for lo in range(0, size, vstep):  # several ranges only for a frame alone in its chunk, in canonical order
            valuations, planes = _planes(n, k, reps, lo, vstep)
            vals = _run(program, (full ^ full, norm, *planes), ex, full)
            mask = hit(norm, full, some, *(vals[r] for r in roots))
            if mask.any():
                pairs = some(np.broadcast_to(mask, (n, nm.size, words)))[0]
                f = int(np.flatnonzero(pairs)[0]) // words
                return fr[:, f], nm[f], _valuation(valuations, int.from_bytes(pairs[f].tobytes(), "little"))
    return None


def _first_hit(formulas: Sequence[Formula], fc: FrameClass, max_n: int, hit: Callable[..., np.ndarray],
               all_points: bool = False, desugared: bool = False) -> tuple[Model, int] | None:
    """First model and world, in canonical order, in the bit planes that
    `hit(normals, full, some, *extensions of formulas)` returns.  `hit` may
    use only `&`, `|`, `^`, the all-ones `full` and `some(x)`, where some
    world is in `x`, on every world, so that it works on every form of a
    slot: ints, arrays, and the witness's scalar `extension` of each
    formula, world masks, where the witness is re-verified with `some(x)`
    `full` if `x` is nonzero, else 0.

    With `desugared` the one formula is followed by its `desugar`, and the
    search is None at once where that is the formula itself.  The program
    comes from `_compiled_program` (see the module docstring).  Each size
    runs in one of two forms, picked by its bits a slot, n worlds x frames
    x valuations: up to `_INT_BITS` the whole size is one chunk of Python
    ints, `_int_hit`, else numpy chunks, `_array_hit`, on the frames of
    `_frames`, read once per n (see the module docstring).
    The valuations are all 2^(k*n), or the shorter table of the formulas'
    propositional types, `_types`, taken at the first n with more than 64
    valuations a frame and read wherever it has at most `_PAIRS`, both
    laid out by `_valuation_rows` or, on numpy, `_planes`.  The witness
    valuation is decoded at the hit, its world taken from re-verification.
    A size past k*n = 64 must read the table: that bound is stated on the
    work, as a plain scan past it walks more than 2^64 valuations a frame,
    not on the layout, which holds any k*n.  The table grows with n, so
    where there is none at `max_n` the search is refused with `ValueError`
    at once."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    entry = _compiled_program(formulas, desugared)
    formulas, program, roots, names, _ = entry
    if desugared and formulas[1] is formulas[0]:  # one formula, already in the core language
        return None
    k = len(names)
    if k * max_n > 64 and ((types := _types(entry)) is None or len(types) ** max_n > _PAIRS):
        raise ValueError(f"{k} variables on {max_n} worlds: a scan of every valuation is limited to "
                         "variables x worlds <= 64")
    reps = None
    for n in range(1, max_n + 1):
        # at the first n above 64 valuations a frame, where numpy words are full; on ints,
        # types from n = 1 timed within noise on `run_suite()`
        if k * (n - 1) <= 6 < k * n:
            reps = _types(entry)
        types = reps if reps is not None and len(reps) ** n <= _PAIRS else None
        nvals = 1 << (k * n) if types is None else len(types) ** n
        frames = _frames(n, fc, all_points)
        found = (_int_hit if n * len(frames[1]) * nvals <= _INT_BITS else _array_hit)(
            program, roots, hit, n, k, *frames, types, nvals)
        if found is not None:
            rel, nm, valuation = found
            frame = Frame(n, tuple(int(r) for r in rel), int(nm))
            model = Model(frame, dict(zip(names, valuation)))
            full = (1 << n) - 1
            worlds = hit(frame.normals, full, lambda x: full if x else 0, *(extension(model, f) for f in formulas))
            if not satisfies_class(frame, fc) or not worlds:
                raise RuntimeError("search witness failed re-verification")
            return model, (worlds & -worlds).bit_length() - 1
    return None


@dataclass(frozen=True)
class CountermodelReport:
    """A verified countermodel: the formula fails at a normal world."""

    formula: Formula
    frame_class: FrameClass
    model: Model
    world: int
    frame_size: int

    def __post_init__(self) -> None:
        frame = self.model.frame
        if not 0 <= self.world < frame.n:
            raise ValueError("countermodel world out of range")
        if self.frame_size != frame.n:
            raise ValueError("frame_size does not match the model")
        if not satisfies_class(frame, self.frame_class):
            raise ValueError("countermodel frame is outside the requested class")
        if not frame.normals >> self.world & 1:
            raise ValueError("countermodel world is not normal")
        if holds(self.model, self.world, self.formula):
            raise ValueError("countermodel failed re-verification")

    @classmethod
    def _checked(cls, formula: Formula, frame_class: FrameClass, model: Model, world: int) -> CountermodelReport:
        """The report on a witness `_first_hit` has re-verified, built without checking it again."""
        report = object.__new__(cls)
        report.__dict__.update(formula=formula, frame_class=frame_class, model=model, world=world,
                               frame_size=model.frame.n)
        return report


def find_countermodel(f: Formula, fc: FrameClass, max_n: int) -> CountermodelReport | None:
    """First model (canonical order, sizes 1..max_n) falsifying `f` at a
    normal world, or None."""
    wit = _first_hit((f,), fc, max_n, _rule_hit)
    return None if wit is None else CountermodelReport._checked(f, fc, *wit)


def valid_up_to(f: Formula, fc: FrameClass, max_n: int) -> bool:
    """No countermodel on any frame of the class with at most max_n worlds."""
    return find_countermodel(f, fc, max_n) is None


def _rule_hit(normals: np.ndarray | int, full: np.ndarray | int, some: Callable,
              conclusion: np.ndarray | int, *premises: np.ndarray | int) -> np.ndarray | int:
    """Normal worlds failing the conclusion, in models where no normal world
    fails a premise; with no premise, a countermodel's hit."""
    out = normals & (full ^ conclusion)
    for p in premises:
        out = out & (full ^ some(normals & (full ^ p)))
    return out


def rule_probe_witness(
    premises: Sequence[Formula], conclusion: Formula, fc: FrameClass, max_n: int
) -> tuple[Model, int] | None:
    """First model where every premise is true but the conclusion fails at a
    normal world, plus that world."""
    return _first_hit((conclusion, *premises), fc, max_n, _rule_hit)


def rule_preservation_probe(
    premises: Sequence[Formula], conclusion: Formula, fc: FrameClass, max_n: int
) -> Frame | None:
    """Frame of the first model witnessing that truth of the premises does
    not carry over to the conclusion, or None up to max_n."""
    wit = rule_probe_witness(premises, conclusion, fc, max_n)
    return wit[0].frame if wit else None


def definability_probe(f: Formula, fc: FrameClass, max_n: int) -> tuple[Model, int] | None:
    """First point (normal or not) where `f` and `desugar(f)` disagree, None
    at once where `f` is already in the core language."""
    return _first_hit((f,), fc, max_n, lambda normals, full, some, a, b: a ^ b, all_points=True, desugared=True)
