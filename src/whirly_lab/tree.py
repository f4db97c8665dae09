"""Dyadic Gaussian tree process: exact sampling, projections, coordinate changes.

The process assigns a complex value to every finite binary string.  It is
defined top-down from independent innovations: the root value is a standard
complex Gaussian, and each node of value ``z`` splits with a fresh standard
complex Gaussian innovation ``u`` into

    child0 = (z + u) / sqrt(2)        child1 = (z - u) / sqrt(2)

Averaging the children recovers the parent, ``z == (child0 + child1)/sqrt(2)``,
so every realization satisfies that constraint at every node, and the
restriction to any fixed level is a vector of independent standard complex
Gaussians.  The innovation is recovered as ``u == (child0 - child1)/sqrt(2)``,
which makes (root, innovations) a bijective coordinate system for depth-N
realizations; :func:`phi_roundtrip` measures how exactly the implementation
realizes that bijection.

Both directions give the same law.  :func:`sample_levels` draws leaf-first:
the deepest level as i.i.d. standard complex values in one call, then every
shallower level by averaging sibling pairs.
The root-first :func:`refine` recursion serves the conditional sampler, the
innovation coordinates and :func:`tree_from_innovations`, and stays the
reference the leaf-first sampler is tested against.

"Standard complex Gaussian" throughout this library means: independent real
and imaginary parts, each mean 0 and variance 1.  The "sampling convention"
section below holds the Gaussian closed forms this pins down.

Levels are stored as numpy arrays in path order: the length-n string with bits
``b_0 .. b_{n-1}`` (root end first) lives at index ``sum(b_j * 2**(n-1-j))``,
so extending a path by one bit maps index ``i`` to ``2*i`` or ``2*i + 1``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.special import chndtr

SQRT2 = math.sqrt(2.0)

# Constructor tolerance for the parent-equals-averaged-children constraint,
# relative to 1 + |parent|.
AVERAGING_REL_TOL = 1e-12


class DepthMismatchError(ValueError):
    """An operation asked for tree levels deeper than the data provides."""


class LevelMismatchError(ValueError):
    """Two level-indexed objects were combined at incompatible levels."""


# ---------------------------------------------------------------------------
# sampling convention
# ---------------------------------------------------------------------------


# The library-wide convention for complex Gaussian draws: a standard complex
# Gaussian has independent real and imaginary parts, each mean 0 and variance
# 1.  Closed forms used as oracles elsewhere:
#
# * ``E|Z|**2 == SECOND_MOMENT`` and ``Var(|Z|**2) == 4``;
# * ``|Z - c|**2`` follows a noncentral chi-square with 2 degrees of freedom
#   and noncentrality ``|c|**2``, so the open disk of radius ``r`` about ``c``
#   has mass ``scipy.special.chndtr(r**2, 2, |c|**2)``, the ``ncx2.cdf`` of
#   ``scipy.stats`` bit for bit, which reduces to ``1 - exp(-r**2 / 2)`` for a
#   centered disk; the entries of a level vector are independent, so a disk
#   product has the product of its disks' masses;
# * the law is invariant under multiplication by any unit-modulus constant.

SECOND_MOMENT = 2.0

_CHNDTR_RANGE = (
    "disk measure out of chndtr's range: it is NaN where the squared radius and "
    "squared offset pass about 1e11 and nearly agree, and almost everywhere past about 1e19"
)


def disk_mass(radius: float, center: complex = 0.0) -> float:
    """Probability that a standard complex Gaussian lies in ``|z - center| < radius``;
    a NaN from ``chndtr`` is refused with a ``ValueError``, as in
    :func:`disk_product_mass`."""
    if radius != radius:
        raise ValueError("radius must not be NaN")
    if radius <= 0.0:
        return 0.0
    if math.isinf(radius):
        return 1.0
    offset = abs(center)
    if offset == 0.0:
        return -math.expm1(-0.5 * radius * radius)
    mass = float(chndtr(radius * radius, 2, offset * offset))
    if mass != mass:
        raise ValueError(_CHNDTR_RANGE)
    return mass


def disk_product_mass(radii: np.ndarray, centers: np.ndarray, scale: float = 1.0,
                      shifts: np.ndarray | float = 0.0) -> np.ndarray:
    """Measure of ``scale*K + shifts`` for the product ``K`` of open disks of
    ``radii`` about ``centers``, along the last axis:
    ``prod_i chndtr((scale*r_i)**2, 2, |shifts_i + scale*c_i|**2)``.

    ``chndtr`` is NaN where its argument and noncentrality pass about 1e11
    and nearly agree, and almost everywhere past about 1e19, so a measure it
    leaves NaN is refused with a ``ValueError``."""
    offsets = np.abs(shifts + scale * centers)
    masses = np.prod(chndtr(np.square(scale * radii), 2, np.square(offsets)), axis=-1)
    if np.isnan(masses).any():
        raise ValueError(_CHNDTR_RANGE)
    return masses


def standard_complex(
    gen: np.random.Generator, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Draw standard complex Gaussians of the given shape.

    Each value takes two consecutive normals, real part first: the normals
    fill the float64 view of a C-contiguous complex128 array of ``shape``,
    ``out`` when it is given and a fresh array otherwise, and that array is
    returned.  So a draw into ``out`` equals a fresh draw from the same
    generator state.
    """
    shape = tuple(shape)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.dtype != np.complex128 or out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous complex128 array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    gen.standard_normal(out=out.reshape(-1).view(np.float64))
    return out


# ---------------------------------------------------------------------------
# value containers
# ---------------------------------------------------------------------------


class LevelVector:
    """Complex values on all paths of one length, in path order.  Immutable."""

    __slots__ = ("_level", "_entries")

    def __init__(self, level: int, entries: Iterable[complex]) -> None:
        if level < 0:
            raise ValueError("level must be non-negative")
        arr = np.array(entries, dtype=np.complex128).reshape(-1)
        if arr.size != 1 << level:
            raise ValueError(f"level {level} requires {1 << level} entries, got {arr.size}")
        arr.setflags(write=False)
        self._level = int(level)
        self._entries = arr

    @property
    def level(self) -> int:
        return self._level

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"LevelVector(level={self._level}, entries={self._entries!r})"


class TreeSample:
    """One realization of the tree process down to a fixed depth.  Immutable.

    ``levels[n]`` holds the values of all length-n paths in path order.  The
    constructor enforces the averaging constraint
    ``|levels[n][i] - (levels[n+1][2i] + levels[n+1][2i+1])/sqrt(2)|
    <= AVERAGING_REL_TOL * (1 + |levels[n][i]|)`` at every node.
    """

    __slots__ = ("_levels",)

    def __init__(self, levels: Sequence[Iterable[complex]]) -> None:
        if len(levels) == 0:
            raise ValueError("a tree has at least its root level")
        stored: list[np.ndarray] = []
        for n, level in enumerate(levels):
            arr = np.array(level, dtype=np.complex128).reshape(-1)
            if arr.size != 1 << n:
                raise ValueError(f"level {n} requires {1 << n} entries, got {arr.size}")
            arr.setflags(write=False)
            stored.append(arr)
        self._levels = tuple(stored)
        self._check_averaging()

    def _check_averaging(self) -> None:
        for n in range(self.depth):
            parent = self._levels[n]
            rebuilt = _coarsen(self._levels[n + 1])
            bound = AVERAGING_REL_TOL * (1.0 + np.abs(parent))
            if not np.all(np.abs(parent - rebuilt) <= bound):
                raise ValueError(f"averaging constraint violated at level {n}")

    @classmethod
    def from_leaves(cls, leaves: Iterable[complex]) -> "TreeSample":
        """Build the unique constraint-satisfying tree over the given leaf values."""
        arr = np.asarray(leaves, dtype=np.complex128).reshape(-1)
        if arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError("leaf count must be a power of two")
        return cls(_levels_from_leaves(arr))

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        return self._levels

    def level(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.depth:
            raise DepthMismatchError(f"level {n} not available in a depth-{self.depth} tree")
        return self._levels[n]

    def __repr__(self) -> str:
        return f"TreeSample(depth={self.depth})"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Most complex values one call of a level sampler may hold, counting every
# returned level, not only the drawn ones: 2**26 values are 1 GiB.  A default
# montecarlo block holds under 2**17 down to depth 10, and its 64-row floor
# stays within the budget down to depth 19.  The same budget bounds the phases
# of the dense elements a search's element factory may build and the normals
# of a sharpness check.  Only check_sampler_budget reads it.
MAX_SAMPLER_VALUES = 1 << 26


def check_sampler_budget(depth: int, count: int) -> None:
    """Refuse, before any draw, ``count`` realizations to ``depth`` whose
    levels would hold more than :data:`MAX_SAMPLER_VALUES` complex values."""
    # One realization to depth 26 already holds 2**27 - 1 values, so the
    # shift stops there: a depth read from outside never builds 2**depth.
    cap = MAX_SAMPLER_VALUES.bit_length() - 1
    values = count * ((2 << min(depth, cap)) - 1)
    if values > MAX_SAMPLER_VALUES:
        raise ValueError(
            f"{count} realizations to depth {depth} hold {'over ' if depth > cap else ''}"
            f"{values} complex values, above the sampler budget of {MAX_SAMPLER_VALUES}"
        )


def _div_real(x: np.ndarray, s: float) -> np.ndarray:
    """``x / s`` for a freshly computed complex128 array ``x`` and a real
    ``s``, in place; returns ``x``.

    NumPy divides complex by real with Smith's complex division, which for a
    real divisor computes exactly ``x.real * (1/s)`` and ``x.imag * (1/s)``.
    Scaling the float64 view of ``x`` by the reciprocal gives the same bits
    without the complex loop.  True division of the view (``/= s``) rounds
    differently.  ``x`` must be C-contiguous and owned by the caller.
    """
    view = x.view(np.float64)
    view *= 1.0 / s
    return x


def refine(parent: np.ndarray, innovation: np.ndarray) -> np.ndarray:
    """One level of the innovation recursion along the last axis.

    Node ``i`` of ``parent`` splits into children ``2i`` and ``2i + 1`` with
    values ``(z + u)/sqrt(2)`` and ``(z - u)/sqrt(2)``.
    """
    child = np.empty(parent.shape[:-1] + (parent.shape[-1] * 2,), dtype=np.complex128)
    np.add(parent, innovation, out=child[..., 0::2])
    np.subtract(parent, innovation, out=child[..., 1::2])
    return _div_real(child, SQRT2)


def _coarsen(child: np.ndarray) -> np.ndarray:
    """One level of averaging along the last axis, the inverse of :func:`refine`:
    node ``i`` of the result is ``(child[2i] + child[2i + 1])/sqrt(2)``."""
    return _div_real(child[..., 0::2] + child[..., 1::2], SQRT2)


def _levels_from_leaves(leaves: np.ndarray) -> list[np.ndarray]:
    """Every level from the root down to ``leaves`` (last axis), by averaging."""
    levels = [leaves]
    while levels[0].shape[-1] > 1:
        levels.insert(0, _coarsen(levels[0]))
    return levels


def sample_levels(
    depth: int,
    count: int,
    gen: np.random.Generator,
    out: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Vectorized sampler: ``count`` independent realizations to ``depth``.

    Returns one array per level, of shape ``(count, 2**n)``.  The draw is
    leaf-first: one array of ``(count, 2**depth)`` i.i.d. standard complex
    values is level ``depth``, and each shallower level averages the one
    below it.  Any fixed level of the process is i.i.d. standard, and the
    averaging constraint determines every level above it, so this is the law
    of the root-first recursion.  Both draw ``2**depth`` values per
    realization; leaf-first draws them in one call and computes one value
    per parent node, where :func:`refine` computes and interleaves two per
    child pair.  Results are reproducible for a given generator state.  With
    ``out`` the leaves are drawn into it (see :func:`standard_complex`), and
    the returned level ``depth`` is ``out``.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if count <= 0:
        raise ValueError("count must be positive")
    check_sampler_budget(depth, count)
    return _levels_from_leaves(standard_complex(gen, (count, 1 << depth), out))


def conditional_levels(
    entries: np.ndarray,
    level: int,
    depth: int,
    count: int,
    gen: np.random.Generator,
) -> list[np.ndarray]:
    """Vectorized conditional sampler: realizations whose level-``level``
    restriction equals ``entries`` exactly.

    Levels above the pinned one are determined by averaging; levels below are
    generated by the innovation recursion with fresh draws, which is the exact
    conditional law of the process given its level-``level`` values.
    """
    if depth < level:
        raise DepthMismatchError(f"depth {depth} is above the conditioning level {level}")
    if count <= 0:
        raise ValueError("count must be positive")
    check_sampler_budget(depth, count)
    pinned = np.asarray(entries, dtype=np.complex128).reshape(1, -1)
    if pinned.size != 1 << level:
        raise ValueError(f"level {level} requires {1 << level} entries")
    levels = [np.tile(project_vectors(pinned, level, j), (count, 1)) for j in range(level)]
    levels.append(np.tile(pinned, (count, 1)))
    for n in range(level, depth):
        parent = levels[n]
        levels.append(refine(parent, standard_complex(gen, parent.shape)))
    return levels


def sample_tree(depth: int, gen: np.random.Generator) -> TreeSample:
    """Draw one realization of the process down to ``depth``."""
    return TreeSample([a[0] for a in sample_levels(depth, 1, gen)])


# ---------------------------------------------------------------------------
# projections and statistics
# ---------------------------------------------------------------------------


def project_vectors(x: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Project a batch of level-``from_level`` vectors down to ``to_level``.

    The projection averages sibling blocks with the same normalization as the
    tree recursion: each coarse value is ``2**(-k/2)`` times the sum of its
    ``2**k`` descendants, ``k = from_level - to_level``.  Shape
    ``(batch, 2**from_level) -> (batch, 2**to_level)``.

    Summation order: ``k`` folds of sibling pairs, each adding the two
    columns of the batch's flat ``reshape(-1, 2)`` view (the pairs of
    ``x[:, 0::2] + x[:, 1::2]``, in one long loop), then one multiplication
    by ``2**(-k/2)`` in place, so the ``2**k`` descendants are added as a
    balanced binary tree, not left to right.  For ``k = 1`` the result is
    exact to the operation: ``(x[2i] + x[2i+1]) * 2**-0.5`` with one rounding
    for each of the two steps, the same as any other order.  A batch that is
    not C-contiguous is copied by the first reshape.
    """
    if to_level > from_level:
        raise LevelMismatchError("cannot project to a finer level")
    if to_level < 0:
        raise ValueError("to_level must be non-negative")
    if x.shape[1] != 1 << from_level:
        raise LevelMismatchError(
            f"expected {1 << from_level} columns for level {from_level}, got {x.shape[1]}"
        )
    k = from_level - to_level
    if k == 0:
        return x
    rows = x.shape[0]
    for _ in range(k):
        pairs = x.reshape(-1, 2)
        x = pairs[:, 0] + pairs[:, 1]
    x *= 2.0 ** (-0.5 * k)
    return x.reshape(rows, 1 << to_level)


def project(tree: TreeSample, n: int) -> LevelVector:
    """Level-``n`` restriction of a tree as a LevelVector."""
    if not 0 <= n <= tree.depth:
        raise DepthMismatchError(f"cannot project a depth-{tree.depth} tree to level {n}")
    return LevelVector(n, tree.level(n))


def u_stat_arrays(levels: Sequence[np.ndarray], n: int, k: int) -> np.ndarray:
    """Batch aggregated innovations: shape ``(batch, 2**n)`` from level arrays.

    Entry ``sigma`` is ``2**(-(k-n)/2)`` times the sum of the level-``k``
    innovations inside the subtree rooted at the length-n path ``sigma``.
    Requires ``n <= k`` and the level-``k+1`` array to be present.
    """
    if not 0 <= n <= k:
        raise ValueError(f"need 0 <= n <= k, got n={n}, k={k}")
    if len(levels) <= k + 1:
        raise DepthMismatchError(f"innovations at level {k} need level {k + 1} values")
    child = levels[k + 1]
    return project_vectors((child[:, 0::2] - child[:, 1::2]) / SQRT2, k, n)


def u_stat_vector(tree: TreeSample, n: int, k: int) -> np.ndarray:
    """Aggregated innovations for all length-n paths of one tree."""
    if k + 1 > tree.depth:
        raise DepthMismatchError(f"u_stat at level {k} needs depth >= {k + 1}, have {tree.depth}")
    return u_stat_arrays([a[None, :] for a in tree.levels], n, k)[0]


# ---------------------------------------------------------------------------
# coordinate bijection
# ---------------------------------------------------------------------------


def innovations(tree: TreeSample) -> tuple[complex, list[np.ndarray]]:
    """Forward coordinate change: (root value, innovation array per level)."""
    root = complex(tree.level(0)[0])
    out = []
    for n in range(tree.depth):
        child = tree.level(n + 1)
        out.append((child[0::2] - child[1::2]) / SQRT2)
    return root, out


def tree_from_innovations(root: complex, innovation_levels: Sequence[np.ndarray]) -> TreeSample:
    """Inverse coordinate change: rebuild the tree from root and innovations."""
    levels = [np.array([root], dtype=np.complex128)]
    for n, innovation in enumerate(innovation_levels):
        u = np.asarray(innovation, dtype=np.complex128).reshape(-1)
        if u.size != 1 << n:
            raise ValueError(f"innovation level {n} requires {1 << n} entries, got {u.size}")
        levels.append(refine(levels[n], u))
    return TreeSample(levels)


def phi_roundtrip(tree: TreeSample) -> float:
    """Max absolute error over all nodes after mapping a tree to its
    (root, innovations) coordinates and back; NaN if any node's error is."""
    root, us = innovations(tree)
    rebuilt = tree_from_innovations(root, us)
    residuals = [np.max(np.abs(tree.level(n) - rebuilt.level(n))) for n in range(tree.depth + 1)]
    return float(np.max(residuals))
