"""Kripke frames with non-normal points and the primitive truth clauses.

Worlds are integers 0..n-1.  Successor sets, the set of normal points, and
variable extensions are all bitmasks (bit w = world w).  A frame whose
points are all normal behaves exactly like a plain Kripke frame.

`relation_satisfies` is the one statement of the relational conditions, on
a frame's rows here and on the search's blocks of relation codes alike.

`extension` evaluates the boolean connectives on whole masks and reads the
truth clause of each modal connective at a world from `_CLAUSES`, the one
statement of those clauses.  It is independent of the search's lowering,
and re-verifies every witness the search returns.

Truth in a model quantifies over the normal points only, so it is vacuous
when the frame has no normal point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .syntax import (
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Imp,
    Or,
    Ssi,
    Sssi,
    Strict,
    Var,
    fold,
    variables,
)


@dataclass(frozen=True)
class FrameClass:
    """A conjunction of frame conditions; the empty conjunction is S2_0."""

    reflexive: bool = False
    transitive: bool = False
    serial: bool = False
    symmetric: bool = False
    euclidean: bool = False
    all_normal: bool = False


S2_0 = FrameClass()
S2 = FrameClass(reflexive=True)
S3 = FrameClass(reflexive=True, transitive=True)

NAMED_CLASSES: dict[str, FrameClass] = {
    "s2_0": S2_0,
    "s2": S2,
    "s3": S3,
    "k": FrameClass(all_normal=True),
    "kd": FrameClass(serial=True, all_normal=True),
    "kt": FrameClass(reflexive=True, all_normal=True),
    "kb": FrameClass(symmetric=True, all_normal=True),
    "k4": FrameClass(transitive=True, all_normal=True),
    "k5": FrameClass(euclidean=True, all_normal=True),
    "k45": FrameClass(transitive=True, euclidean=True, all_normal=True),
    "kd45": FrameClass(serial=True, transitive=True, euclidean=True, all_normal=True),
    "ktb": FrameClass(reflexive=True, symmetric=True, all_normal=True),
    "s4": FrameClass(reflexive=True, transitive=True, all_normal=True),
    "s5": FrameClass(reflexive=True, euclidean=True, all_normal=True),
}


@dataclass(frozen=True)
class Frame:
    """`rel[w]` is the successor bitmask of w; `normals` the normal points."""

    n: int
    rel: tuple[int, ...]
    normals: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a frame needs at least one world")
        full = (1 << self.n) - 1
        if len(self.rel) != self.n:
            raise ValueError("rel must have one successor mask per world")
        if any(not 0 <= row <= full for row in self.rel):
            raise ValueError("successor mask out of range")
        if not 0 <= self.normals <= full:
            raise ValueError("normals mask out of range")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], normals: Iterable[int]) -> "Frame":
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            rows[i] |= 1 << j
        nm = 0
        for w in normals:
            if not 0 <= w < n:
                raise ValueError(f"normal world {w} out of range")
            nm |= 1 << w
        return cls(n, tuple(rows), nm)


@dataclass(frozen=True)
class Model:
    frame: Frame
    valuation: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        full = (1 << self.frame.n) - 1
        for name, mask in self.valuation.items():
            if not 0 <= mask <= full:
                raise ValueError(f"extension of {name!r} out of range")

    @classmethod
    def from_sets(cls, frame: Frame, val: Mapping[str, Iterable[int]]) -> "Model":
        out: dict[str, int] = {}
        for name, worlds in val.items():
            mask = 0
            for w in worlds:
                if not 0 <= w < frame.n:
                    raise ValueError(f"world {w} in extension of {name!r} out of range")
                mask |= 1 << w
            out[name] = mask
        return cls(frame, out)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relation_satisfies(rel: Sequence, n: int, fc: FrameClass):
    """Whether the successor masks `rel[w]` meet the conditions of `fc` but
    all_normal: ints give a bool, numpy arrays of masks, one per relation, a
    bool array, as `>>`, `&`, `|`, `==` and `!=` act alike on both."""
    ok = True
    for w in range(n):
        s = rel[w]
        if fc.reflexive:
            ok &= s >> w & 1 == 1
        if fc.serial:
            ok &= s != 0
        for v in range(n):
            if fc.symmetric:  # w sees v just when v sees w
                ok &= s >> v & 1 == rel[v] >> w & 1
            if fc.transitive:  # where w sees v, v's successors are w's
                ok &= (s >> v & 1 == 0) | (rel[v] | s == s)
            if fc.euclidean:  # where w sees v, w's successors are v's
                ok &= (s >> v & 1 == 0) | (s | rel[v] == rel[v])
    return ok


def satisfies_class(frame: Frame, fc: FrameClass) -> bool:
    full = (1 << frame.n) - 1
    if fc.all_normal and frame.normals != full:
        return False
    return relation_satisfies(frame.rel, frame.n, fc)


# The truth clause of each modal connective at a world w: `normal` says
# whether w is normal, `s` is its successor mask, `a` and `b` the extensions
# of the children (`b` is 0 under box and dia), and `s & ~b` the successors
# falsifying b.
_CLAUSES = {
    Ssi: lambda normal, s, a, b: normal and s & a and not s & a & ~b,
    Sssi: lambda normal, s, a, b: normal and s & a and not s & a & ~b and s & ~b,
    Strict: lambda normal, s, a, b: normal and not s & a & ~b,
    Box: lambda normal, s, a, b: normal and not s & ~a,
    Dia: lambda normal, s, a, b: not normal or s & a,
}


def extension(model: Model, f: Formula) -> int:
    """Bitmask of the worlds where `f` is true: the boolean connectives act
    on whole masks, the modal ones world by world through `_CLAUSES`."""
    frame = model.frame
    n, rel, normals = frame.n, frame.rel, frame.normals
    full = (1 << n) - 1

    def ext(g: Formula, kids: Sequence[int]) -> int:
        match g:
            case Var(name):
                return model.valuation.get(name, 0)
            case Bot():
                return 0
            case And():
                return kids[0] & kids[1]
            case Or():
                return kids[0] | kids[1]
            case Imp():
                return (full ^ kids[0]) | kids[1]
        clause = _CLAUSES[type(g)]  # `fold` has already refused anything that is not a formula
        a, b = (*kids, 0)[:2]
        return sum(1 << w for w in range(n) if clause(normals >> w & 1, rel[w], a, b))

    return fold(f, ext)


def holds(model: Model, world: int, f: Formula) -> bool:
    """Truth of `f` at a world of the model."""
    if not 0 <= world < model.frame.n:
        raise ValueError(f"world index {world} out of range")
    return bool(extension(model, f) >> world & 1)


def true_in_model(model: Model, f: Formula) -> bool:
    """Truth at every normal point; vacuously true without normal points."""
    full = (1 << model.frame.n) - 1
    return not model.frame.normals & (full ^ extension(model, f))


def valid_on_frame(frame: Frame, f: Formula) -> bool:
    """Truth in every model on the frame.

    Only the variables occurring in `f` are varied; the truth clauses never
    consult any other variable.
    """
    names = sorted(variables(f))
    return all(
        true_in_model(Model(frame, dict(zip(names, masks))), f)
        for masks in itertools.product(range(1 << frame.n), repeat=len(names))
    )


# ---------------------------------------------------------------------------
# JSON forms


def frame_to_json(frame: Frame) -> dict:
    return {
        "worlds": frame.n,
        "rel": [sorted(_bits(row)) for row in frame.rel],
        "normals": sorted(_bits(frame.normals)),
    }


def frame_from_json(data: object) -> Frame:
    # `type(x) is int` also rejects JSON booleans, which Python counts as ints
    if not isinstance(data, dict):
        raise ValueError("frame JSON must be an object")
    n = data.get("worlds")
    if type(n) is not int or n < 1:
        raise ValueError("'worlds' must be a positive integer")
    rel = data.get("rel")
    if not isinstance(rel, list) or len(rel) != n:
        raise ValueError("'rel' must list the successors of each world")
    edges = []
    for i, row in enumerate(rel):
        if not isinstance(row, list):
            raise ValueError("'rel' rows must be lists of worlds")
        for j in row:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"successor {j!r} of world {i} out of range")
            edges.append((i, j))
    normals = data.get("normals")
    if not isinstance(normals, list) or any(
        type(w) is not int or not 0 <= w < n for w in normals
    ):
        raise ValueError("'normals' must be a list of worlds")
    return Frame.from_edges(n, edges, normals)


def model_to_json(model: Model) -> dict:
    return {
        **frame_to_json(model.frame),
        "val": {name: sorted(_bits(mask)) for name, mask in sorted(model.valuation.items())},
    }


def model_from_json(data: object) -> Model:
    frame = frame_from_json(data)
    val = data.get("val", {})
    if not isinstance(val, dict):
        raise ValueError("'val' must map variables to lists of worlds")
    sets: dict[str, list[int]] = {}
    for name, worlds in val.items():
        if not isinstance(name, str) or not isinstance(worlds, list):
            raise ValueError("'val' must map variables to lists of worlds")
        for w in worlds:
            if type(w) is not int or not 0 <= w < frame.n:
                raise ValueError(f"world {w!r} in extension of {name!r} out of range")
        sets[name] = worlds
    return Model.from_sets(frame, sets)
