"""Circle-valued step functions acting on the tree space.

An element of level n assigns a unit-modulus phase to every length-n path and,
implicitly, the same phase to every extension of that path.  Acting on a tree
multiplies each leaf by the phase of its length-n prefix and rebuilds the
shallower levels by averaging.  Because the phases are constant on the subtree
below their path, every level at or below n of the acted tree is the pointwise
phase multiple of the original level, while levels above n get re-averaged.

The action preserves the sampling law: at level n it multiplies a vector of
independent standard complex Gaussians coordinatewise by unit-modulus
constants, which leaves the law invariant, and the deeper innovations are
untouched in distribution.

``make_gsk(s, k)`` builds the one-parameter "whirling" family used by the
independence and mixing experiments: a level-(k+1) element whose phase at a
path depends only on that path's last bit,

    phase = (1 + i*s) / sqrt(1 + s**2)   if the bit is 0,
    phase = (1 - i*s) / sqrt(1 + s**2)   if the bit is 1.

Its distance from the identity is sqrt(2 - 2/sqrt(1 + s**2)) no matter which
level it lives at, small for small s even though the phase pattern alternates
at arbitrarily fine scales.

An element is a pattern of ``2**p`` phases, ``p <= level``, that tiles the
level: the phase of path ``i`` is ``pattern[i % 2**p]``.  ``GroupElement``
takes such a pattern, and a dense array of ``2**level`` phases is the case
``p = level``.  A whirling element holds its two phases and the identity its
one, whatever the level.  ``embed``, ``compose``, ``conjugate`` and
``uniform_distance`` work on the patterns, brought to a common period where
two meet; ``phases`` tiles the pattern out to the level on each read and keeps
nothing, so a caller that reads it often keeps its own copy.  The dense bits
do not depend on the pattern's period: a pattern entry is computed once and
copied.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tree import DepthMismatchError, LevelMismatchError, TreeSample

# Constructor tolerance on | |phase| - 1 |.
PHASE_TOL = 1e-12


class GroupElement:
    """Unit-modulus phase per length-n path, in path order.  Immutable.

    Built from a ``pattern`` of ``2**p`` phases, ``p <= level``, tiled over
    the level; :attr:`phases` is the dense array.
    """

    __slots__ = ("_level", "_pattern")

    def __init__(self, level: int, phases: Iterable[complex]) -> None:
        if level < 0:
            raise ValueError("level must be non-negative")
        arr = np.array(phases, dtype=np.complex128).reshape(-1)
        # p is compared with the level: 2**level may be too large to build.
        if arr.size == 0 or arr.size & (arr.size - 1) or arr.size.bit_length() - 1 > level:
            raise ValueError(f"a level-{level} element holds 2**p phases, p <= {level}, got {arr.size}")
        if not (np.abs(np.abs(arr) - 1.0) <= PHASE_TOL).all():
            raise ValueError("phases must have unit modulus")
        arr.setflags(write=False)
        self._level = int(level)
        self._pattern = arr

    @property
    def level(self) -> int:
        return self._level

    @property
    def pattern(self) -> np.ndarray:
        """The ``2**p`` phases that tile the level, read-only."""
        return self._pattern

    @property
    def phases(self) -> np.ndarray:
        """All ``2**level`` phases, read-only: the pattern itself when it is
        dense, else a fresh tile of it."""
        reps = (1 << self._level) // self._pattern.size
        if reps == 1:
            return self._pattern
        dense = np.tile(self._pattern, reps)
        dense.setflags(write=False)
        return dense

    def __repr__(self) -> str:
        return f"GroupElement(level={self._level})"


def _common_patterns(g: GroupElement, h: GroupElement) -> tuple[np.ndarray, np.ndarray]:
    """The patterns of ``g`` and ``h``, both tiled to the longer period."""
    size = max(g.pattern.size, h.pattern.size)
    return (np.tile(g.pattern, size // g.pattern.size), np.tile(h.pattern, size // h.pattern.size))


def identity(level: int) -> GroupElement:
    """The identity element at the given level: one phase, 1."""
    return GroupElement(level, np.ones(1, dtype=np.complex128))


def make_gsk(s: float, k: int) -> GroupElement:
    """Whirling element of strength ``s`` read off bit ``k``, at level k+1."""
    if k < 0:
        raise ValueError("bit position k must be non-negative")
    signs = np.array([1, -1])
    return GroupElement(k + 1, (1.0 + 1j * s * signs) / math.hypot(1.0, s))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Pointwise product.  Levels must already match; embed first if not."""
    if g.level != h.level:
        raise LevelMismatchError(f"cannot compose levels {g.level} and {h.level}")
    a, b = _common_patterns(g, h)
    return GroupElement(g.level, a * b)


def conjugate(g: GroupElement) -> GroupElement:
    """Pointwise complex conjugate; the group inverse."""
    return GroupElement(g.level, np.conj(g.pattern))


def embed(g: GroupElement, level: int) -> GroupElement:
    """Rewrite ``g`` at a finer level; each phase repeats over its subtree."""
    if level < g.level:
        raise LevelMismatchError(f"cannot embed level {g.level} into coarser level {level}")
    if level == g.level:
        return g
    return GroupElement(level, np.repeat(g.pattern, 1 << (level - g.level)))


def uniform_distance(g: GroupElement, h: GroupElement) -> float:
    """Max pointwise distance after embedding both at the finer level."""
    level = max(g.level, h.level)
    a, b = _common_patterns(embed(g, level), embed(h, level))
    return float(np.max(np.abs(a - b)))


def act(g: GroupElement, tree: TreeSample) -> TreeSample:
    """Apply ``g`` to a tree of depth >= ``g.level``.

    Leaves are multiplied by the phase of their length-``g.level`` prefix and
    all shallower levels are rebuilt by averaging.
    """
    if tree.depth < g.level:
        raise DepthMismatchError(
            f"tree depth {tree.depth} is too shallow for a level-{g.level} element"
        )
    leaf_phases = embed(g, tree.depth).phases
    return TreeSample.from_leaves(tree.level(tree.depth) * leaf_phases)


def random_element(level: int, gen: np.random.Generator) -> GroupElement:
    """Element with independent uniformly distributed phases."""
    angles = gen.uniform(0.0, 2.0 * math.pi, size=1 << level)
    return GroupElement(level, np.exp(1j * angles))
