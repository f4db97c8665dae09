"""Measurable cylinder sets as vectorized predicates with expression trees.

Every set is determined at some level n: membership of a realization depends
only on its level-n projection, so the same object can be evaluated on trees
of any depth >= n.  Sets are built from a small grammar

    disk-product | halfspace | affine-image | union | intersection |
    complement | acted-image

and each node knows how to evaluate itself on a batch of level-n vectors and
how to serialize itself to a JSON expression tree (complex numbers as
``[re, im]`` pairs).

Boolean combinations of sets at different levels are evaluated at the finest
participating level, feeding each operand the projection of the input to the
operand's own level, which is exactly the cylinder-set semantics.

``acted_set(g, A)`` is the image of ``A`` under a group element: a tree lies
in ``g . A`` iff acting with the conjugate (inverse) element puts it in ``A``.
Evaluation multiplies the level-``max(g.level, A.level)`` vector by the
conjugate phases and projects down to ``A``'s level; this agrees with acting
on the full tree because phases are constant below their own level.

:func:`linear_reads` walks an expression once and returns the linear
combinations of its level vector that its leaves read, with an equivalent set
over those reads; the measure estimator samples the reads instead of the level
when they are fewer.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .group import GroupElement, embed
from .tree import (
    ComplexGaussianConvention,
    DepthMismatchError,
    LevelMismatchError,
    LevelVector,
    project_vectors,
)

disk_mass = ComplexGaussianConvention.disk_mass


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


class BorelSet:
    """Base class: a membership predicate determined at a fixed level."""

    __slots__ = ("_level",)

    kind: str = ""

    def __init__(self, level: int) -> None:
        if level < 0:
            raise ValueError("determination level must be non-negative")
        self._level = int(level)

    @property
    def level(self) -> int:
        return self._level

    # -- evaluation ---------------------------------------------------------

    def _member(self, x: np.ndarray) -> np.ndarray:
        """Membership for a batch of vectors at exactly this set's level."""
        raise NotImplementedError

    def indicator_at(self, x: np.ndarray, level: int | None = None) -> np.ndarray:
        """Boolean membership for a batch ``(batch, 2**level)`` of vectors.

        ``level`` defaults to the set's own level; deeper inputs are projected
        down first.
        """
        arr = np.asarray(x, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[None, :]
        at = self._level if level is None else int(level)
        if arr.shape[1] != 1 << at:
            raise LevelMismatchError(f"expected {1 << at} columns for level {at}, got {arr.shape[1]}")
        if at < self._level:
            raise DepthMismatchError(f"set is determined at level {self._level}, input is at {at}")
        if at > self._level:
            arr = project_vectors(arr, at, self._level)
        return self._member(arr)

    def indicator(self, levels: Sequence[np.ndarray]) -> np.ndarray:
        """Boolean membership for a batch of realizations given per-level arrays."""
        if len(levels) <= self._level:
            raise DepthMismatchError(
                f"set is determined at level {self._level}, only {len(levels)} levels given"
            )
        return self.indicator_at(levels[self._level])

    def contains(self, z: LevelVector) -> bool:
        """Membership of a single level vector (level >= the set's level)."""
        return bool(self.indicator_at(z.entries[None, :], z.level)[0])

    def _eval_child(self, child: "BorelSet", x: np.ndarray) -> np.ndarray:
        """Evaluate a child node on vectors given at this node's level."""
        if child.level == self._level:
            return child._member(x)
        return child._member(project_vectors(x, self._level, child.level))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(level={self._level})"


def _complex_pairs(arr: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in arr]


def _pairs_to_complex(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    return np.array([complex(p[0], p[1]) for p in pairs], dtype=np.complex128)


# ---------------------------------------------------------------------------
# leaves of the grammar
# ---------------------------------------------------------------------------


class DiskProduct(BorelSet):
    """Product of open disks, one per path at the determination level."""

    __slots__ = ("centers", "radii")

    kind = "disk-product"

    def __init__(self, level: int, centers: np.ndarray, radii: np.ndarray) -> None:
        super().__init__(level)
        self.centers = centers
        self.radii = radii

    def _member(self, x: np.ndarray) -> np.ndarray:
        # AND sibling columns pairwise: each step is one long loop over the
        # batch, where a reduction along the 2**level-wide rows runs one short
        # loop per row.
        inside = np.abs(x - self.centers) < self.radii
        while inside.shape[1] > 1:
            inside = inside[:, 0::2] & inside[:, 1::2]
        return inside[:, 0]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "level": self._level,
            "centers": _complex_pairs(self.centers),
            "radii": [float(r) for r in self.radii],
        }


class Halfspace(BorelSet):
    """Closed halfspace ``Re(<normal, x>) <= offset`` at a fixed level."""

    __slots__ = ("normal", "offset")

    kind = "halfspace"

    def __init__(self, level: int, normal: np.ndarray, offset: float) -> None:
        super().__init__(level)
        self.normal = normal
        self.offset = float(offset)

    def _member(self, x: np.ndarray) -> np.ndarray:
        return (x @ np.conj(self.normal)).real <= self.offset

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "level": self._level,
            "normal": _complex_pairs(self.normal),
            "offset": self.offset,
        }


class AffineImage(BorelSet):
    """Image ``scale * base + shift``: membership of x tests ``(x - shift)/scale`` in base."""

    __slots__ = ("base", "scale", "shift")

    kind = "affine-image"

    def __init__(self, base: BorelSet, scale: float, shift: np.ndarray) -> None:
        super().__init__(base.level)
        self.base = base
        self.scale = float(scale)
        self.shift = shift

    def _member(self, x: np.ndarray) -> np.ndarray:
        return self.base._member((x - self.shift) / self.scale)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "scale": self.scale,
            "shift": _complex_pairs(self.shift),
            "base": self.base.to_json(),
        }


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


class BooleanSet(BorelSet):
    """Union or intersection of any number of sets, by its ``kind``."""

    __slots__ = ("kind", "children", "_combine")

    def __init__(self, kind: str, children: tuple[BorelSet, ...]) -> None:
        super().__init__(max(c.level for c in children))
        self.kind = kind
        self.children = children
        self._combine = np.logical_or if kind == "union" else np.logical_and

    def _member(self, x: np.ndarray) -> np.ndarray:
        out = self._eval_child(self.children[0], x)
        for child in self.children[1:]:
            out = self._combine(out, self._eval_child(child, x))
        return out

    def to_json(self) -> dict:
        return {"kind": self.kind, "children": [c.to_json() for c in self.children]}


class ComplementSet(BorelSet):
    __slots__ = ("child",)

    kind = "complement"

    def __init__(self, child: BorelSet) -> None:
        super().__init__(child.level)
        self.child = child

    def _member(self, x: np.ndarray) -> np.ndarray:
        return ~self.child._member(x)

    def to_json(self) -> dict:
        return {"kind": self.kind, "child": self.child.to_json()}


class ActedSet(BorelSet):
    """Image of a set under a group element."""

    __slots__ = ("element", "base", "_conj_phases")

    kind = "acted-image"

    def __init__(self, element: GroupElement, base: BorelSet) -> None:
        super().__init__(max(element.level, base.level))
        self.element = element
        self.base = base
        self._conj_phases = np.conj(embed(element, self._level).phases)

    def _member(self, x: np.ndarray) -> np.ndarray:
        return self._eval_child(self.base, x * self._conj_phases)

    def innovation_copy(self, level: int) -> "ActedSet | None":
        """This event as a function of one level of innovations, or ``None``.

        Applies when the base is determined at or above ``level`` and the
        element lives at level ``k + 1 > level`` with a phase that depends
        only on the last bit of its path.  The element then moves the
        level-``level`` values ``x`` only through the level-``k`` innovations
        aggregated to that level, ``U``, and a tree lies in this set exactly
        when the level-``(level + 1)`` vector with children
        ``(x + U)/sqrt(2)`` and ``(x - U)/sqrt(2)`` lies in the returned
        copy, which acts with the same two phases at level ``level + 1``.
        """
        if self.element.level <= level or self.base.level > level:
            return None
        phases = self.element.phases
        if np.any(phases[0::2] != phases[0]) or np.any(phases[1::2] != phases[1]):
            return None
        return acted_set(GroupElement(level + 1, np.tile(phases[:2], 1 << level)), self.base)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "element": {
                "level": self.element.level,
                "phases": _complex_pairs(self.element.phases),
            },
            "base": self.base.to_json(),
        }


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

CenterLike = Union[LevelVector, np.ndarray, Sequence[complex], complex, float]


def _coerce_centers(level: int, centers: CenterLike) -> np.ndarray:
    if isinstance(centers, LevelVector):
        if centers.level != level:
            raise LevelMismatchError(f"centers at level {centers.level}, set at level {level}")
        arr = centers.entries.copy()
    else:
        arr = np.asarray(centers, dtype=np.complex128).reshape(-1)
        if arr.size == 1:
            arr = np.full(1 << level, arr[0], dtype=np.complex128)
    if arr.size != 1 << level:
        raise ValueError(f"level {level} requires {1 << level} centers, got {arr.size}")
    arr.setflags(write=False)
    return arr


def disk_product(level: int, centers: CenterLike, radii) -> DiskProduct:
    """Product of open disks ``|x(path) - center(path)| < radius(path)``.

    A scalar center or radius is broadcast to every path.  Radii must be
    positive; ``inf`` is allowed and makes the factor trivial.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    c = _coerce_centers(level, centers)
    r = np.asarray(radii, dtype=np.float64).reshape(-1)
    if r.size == 1:
        r = np.full(1 << level, r[0])
    if r.size != 1 << level:
        raise ValueError(f"level {level} requires {1 << level} radii, got {r.size}")
    if np.any(np.isnan(r)) or np.any(r <= 0.0):
        raise ValueError("radii must be positive")
    r.setflags(write=False)
    return DiskProduct(level, c, r)


def halfspace(level: int, normal: CenterLike, offset: float) -> Halfspace:
    """Closed halfspace ``Re(sum conj(normal(path)) * x(path)) <= offset``."""
    n = _coerce_centers(level, normal)
    if not np.any(n):
        raise ValueError("normal must be nonzero")
    return Halfspace(level, n, offset)


def affine_image(base: BorelSet, scale: float, shift: CenterLike) -> AffineImage:
    """The set ``scale * base + shift`` at the base's determination level."""
    if not scale > 0.0:
        raise ValueError("scale must be strictly positive")
    s = _coerce_centers(base.level, shift)
    return AffineImage(base, scale, s)


def boolean_combine(op: str, operands: Sequence[BorelSet]) -> BorelSet:
    """Union, intersection, or complement of existing sets.

    Operands may live at different levels; the result is determined at the
    finest one.  Complement takes exactly one operand.
    """
    ops = tuple(operands)
    if not ops:
        raise ValueError("boolean_combine needs at least one operand")
    if op in ("union", "intersection"):
        return BooleanSet(op, ops)
    if op == "complement":
        if len(ops) != 1:
            raise ValueError("complement takes exactly one operand")
        return ComplementSet(ops[0])
    raise ValueError(f"unknown boolean operation {op!r}")


def acted_set(element: GroupElement, base: BorelSet) -> ActedSet:
    """Image of ``base`` under ``element``; determined at the finer level."""
    return ActedSet(element, base)


def symmetric_difference(a: BorelSet, b: BorelSet) -> BorelSet:
    """Points in exactly one of the two sets."""
    return boolean_combine(
        "union",
        [
            boolean_combine("intersection", [a, boolean_combine("complement", [b])]),
            boolean_combine("intersection", [b, boolean_combine("complement", [a])]),
        ],
    )


# ---------------------------------------------------------------------------
# linear reads
# ---------------------------------------------------------------------------


class LinearReads(NamedTuple):
    """The linear reads a set makes of its level vector, and the set on them.

    ``matrix`` has shape ``(D, 2**L)``, ``L`` the set's level.  A level-``L``
    row vector ``x`` lies in the set exactly when its reads ``x @ matrix.T``,
    padded with zero columns to ``2**reduced.level``, lie in ``reduced``.
    """

    matrix: np.ndarray
    reduced: BorelSet


def linear_reads(target: BorelSet, max_reads: int) -> LinearReads | None:
    """The reads of ``target`` when it makes at most ``max_reads``, else ``None``.

    One walk of the expression tree follows the affine map from the level-``L``
    vector ``x`` to each leaf's input: acted images multiply by their
    conjugate phases, children coarser than their parent project, and affine
    images subtract their shift and divide by their scale.  Row ``i`` of the
    map to a level-``l`` leaf reads only the ``2**(L - l)`` entries of ``x``
    below path ``i``, so the linear part is kept as one coefficient per entry
    of ``x``.  Each distinct linear part gets its own block of rows, once,
    however many leaves read it; the walk stops as soon as the rows exceed
    ``max_reads``, before any matrix is built.

    The reduced set keeps the union, intersection and complement nodes and
    drops the acted and affine ones.  Its leaves all live at the level
    ``ceil(log2(D))`` and test only their own block of reads: a disk factor
    has radius ``inf`` and a halfspace a zero normal outside it.  Shifts are
    folded into the disk centers and halfspace offsets.  Returns ``None`` for
    node types other than the grammar's.
    """
    top = target.level
    # (leaf level, coefficient bytes) -> (first row, coefficients)
    reads: dict[tuple[int, bytes], tuple[int, np.ndarray]] = {}
    rows = 0

    def walk(node: BorelSet, coef: np.ndarray, shift: np.ndarray):
        # The input of ``node`` is ``shift`` plus, in row i, the coefficients
        # coef.reshape(2**node.level, -1)[i] times the entries of x below path i.
        nonlocal rows
        if isinstance(node, (DiskProduct, Halfspace)):
            key = (node.level, coef.tobytes())
            if key not in reads:
                reads[key] = (rows, coef)
                rows += 1 << node.level
                if rows > max_reads:
                    return None
            return ("leaf", node, reads[key][0], shift)
        if isinstance(node, AffineImage):
            return walk(node.base, coef / node.scale, (shift - node.shift) / node.scale)
        if isinstance(node, ActedSet):
            phases = node._conj_phases
            coef = (coef.reshape(phases.size, -1) * phases[:, None]).reshape(-1)
            return down(node.base, node.level, coef, shift * phases)
        if isinstance(node, ComplementSet):
            child = walk(node.child, coef, shift)
            return None if child is None else ("complement", child)
        if isinstance(node, BooleanSet):
            children = []
            for c in node.children:
                child = down(c, node.level, coef, shift)
                if child is None:
                    return None
                children.append(child)
            return (node.kind, children)
        return None

    def down(child: BorelSet, level: int, coef: np.ndarray, shift: np.ndarray):
        k = level - child.level
        if k:
            coef = coef * 2.0 ** (-0.5 * k)
            shift = project_vectors(shift[None, :], level, child.level)[0]
        return walk(child, coef, shift)

    plan = walk(target, np.ones(1 << top, dtype=np.complex128), np.zeros(1 << top, dtype=np.complex128))
    if plan is None:
        return None
    level = (rows - 1).bit_length()

    def build(spec) -> BorelSet:
        if spec[0] == "leaf":
            _, leaf, start, shift = spec
            block = slice(start, start + shift.size)
            if isinstance(leaf, DiskProduct):
                centers = np.zeros(1 << level, dtype=np.complex128)
                radii = np.full(1 << level, math.inf)
                centers[block] = leaf.centers - shift
                radii[block] = leaf.radii
                return disk_product(level, centers, radii)
            normal = np.zeros(1 << level, dtype=np.complex128)
            normal[block] = leaf.normal
            return halfspace(level, normal, leaf.offset - float(np.vdot(leaf.normal, shift).real))
        if spec[0] == "complement":
            return boolean_combine("complement", [build(spec[1])])
        return boolean_combine(spec[0], [build(c) for c in spec[1]])

    matrix = np.zeros((rows, 1 << top), dtype=np.complex128)
    for (leaf_level, _), (start, coef) in reads.items():
        n = 1 << leaf_level
        rows_of = matrix[start : start + n].reshape(n, n, -1)
        rows_of[np.arange(n), np.arange(n)] = coef.reshape(n, -1)
    return LinearReads(matrix, build(plan))


# ---------------------------------------------------------------------------
# deserialization
# ---------------------------------------------------------------------------


def set_from_json(obj: dict) -> BorelSet:
    """Rebuild a set from its JSON expression tree."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("set description must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "disk-product":
        return disk_product(int(obj["level"]), _pairs_to_complex(obj["centers"]), obj["radii"])
    if kind == "halfspace":
        return halfspace(int(obj["level"]), _pairs_to_complex(obj["normal"]), float(obj["offset"]))
    if kind == "affine-image":
        return affine_image(
            set_from_json(obj["base"]), float(obj["scale"]), _pairs_to_complex(obj["shift"])
        )
    if kind in ("union", "intersection"):
        return boolean_combine(kind, [set_from_json(c) for c in obj["children"]])
    if kind == "complement":
        return boolean_combine("complement", [set_from_json(obj["child"])])
    if kind == "acted-image":
        element = GroupElement(
            int(obj["element"]["level"]), _pairs_to_complex(obj["element"]["phases"])
        )
        return acted_set(element, set_from_json(obj["base"]))
    raise ValueError(f"unknown set kind {kind!r}")
