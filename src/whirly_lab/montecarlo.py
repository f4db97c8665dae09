"""Seeded Monte Carlo estimation of set measures with Wilson intervals.

Estimators draw realizations of the tree process (unconditional or pinned at a
level), evaluate set membership, and report the hit fraction with a Wilson
score confidence interval.

Every estimate is a joint table of :func:`estimate_joint_events`: a measure
is the one-event table, and a conditional measure the one-event table pinned
at a level vector.  Its blocks draw through one block sampler,
:func:`event_indicators`, which draws only what a family of events reads and
chooses how from the family alone: whirled events in innovation coordinates,
``(m + 1) * 2**N`` draws per sample for ``m`` distinct bits, with one copy
per pattern and base evaluated once per bit (``_innovation_plan`` alone
decides which families qualify); other unconditional families through the
exact joint law of their ``D`` stacked linear reads when ``D`` plus the
off-diagonal entries of their per-group triangular factors stays below
``2**L``; and otherwise the deepest level the family needs, never a level
below it.

The sampler budget is checked on the level the blocks fill.  An estimator's
``depth`` decides nothing but must reach the family's level.

Reads that share no column of the level vector are independent, so the read
factor is block-diagonal over support groups and each group is factored on
its own columns.  A block applies it by columns: one scale by the diagonal,
then one 1-D update per off-diagonal entry.  No sampling block calls BLAS:
OpenBLAS threads even a product by a ``2 x 2`` factor, and its threads then
compete with the tally's workers (README, "Hot-path kernels").

Sharding rule: the requested sample count is pre-partitioned into fixed-size
blocks by index (:func:`block_plan`), and block ``i`` always draws from the
stream's child key ``(stream_id, i)``.  Workers only decide which blocks they
execute, and block results are summed in plan order, so the result is
bit-identical for any worker count.  The block size is a function of the
problem, never of run-time conditions: of the level the draws fill (the
family's deepest level, that of its padded reads, or level ``N + 1`` in
innovation coordinates).  It is also never read from the machine (its cache
sizes, its core count), because the block plan decides which draws each
sample gets.

Block buffers: during one :func:`tally_blocks` call each worker thread (the
calling thread when ``workers=1``, each pool thread otherwise) holds an arena
of arrays, and every sampling block draws into its worker's arrays through
:func:`block_buffer` instead of fresh ones.  A fresh 1 MB array arrives as
zero pages that the kernel faults in on first write, once per block; a reused
one is already mapped (README, "Hot-path kernels").  The arena is dropped when
the tally returns or raises, so nothing is held between calls, and outside a
tally :func:`block_buffer` returns fresh memory.  The buffers change where the
draws land, never their values.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

from .group import GroupElement
from .rng import RngStream
from .sets import ActedSet, BorelSet, LinearReads, acted_set, linear_reads
from .tree import (
    DepthMismatchError,
    LevelVector,
    check_sampler_budget,
    conditional_levels,
    refine,
    sample_levels,
    standard_complex,
)

DEFAULT_CONFIDENCE = 0.95
MIN_SAMPLES = 100
MAX_JOINT_EVENTS = 12

# Per-block leaf budget: a depth-d block holds fewer than 2**17 complex values
# over all its levels (2 MB, the size of a typical L2 cache) unless the
# _MIN_BLOCK floor binds, and many small blocks spread evenly over workers.
# A fixed constant, because it decides the draws.
_BLOCK_LEAF_BUDGET = 1 << 16
_MIN_BLOCK = 64

# Most reads times level entries (16 MB) on the read path: linear_reads keeps
# one coefficient per level entry for each distinct read block it walks, and
# its group stack holds at most this many entries.  It binds only above level
# 10; the per-block cost of the factor is bounded by the read path's own rule
# (event_indicators).
_MAX_READ_ENTRIES = 1 << 20


def default_block_size(depth: int) -> int:
    """Fixed block size used by the shard rule at a given sampling depth.
    A depth whose block does not fit the sampler budget (from 20 on) is
    refused by :func:`~whirly_lab.tree.check_sampler_budget`."""
    size = max(_MIN_BLOCK, _BLOCK_LEAF_BUDGET >> depth)
    check_sampler_budget(depth, size)
    return size


def block_plan(samples: int, block_size: int) -> Iterator[tuple[int, int]]:
    """``(index, count)`` of each block that splits ``samples`` into blocks,
    in index order, yielded one at a time."""
    blocks = (samples + block_size - 1) // block_size
    return ((i, min(block_size, samples - i * block_size)) for i in range(blocks))


# The arena of the tally worker running on this thread, or None outside a
# tally.  It rides on the thread because a block function gets only
# ``(gen, count)``.
_worker = threading.local()


def _open_arena() -> None:
    _worker.arena = {}


def block_buffer(slot: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous complex128 array of ``shape`` for a
    sampling block to draw into.

    Inside :func:`tally_blocks` it is the running worker's array for ``slot``:
    allocated on first use, reused by the worker's later blocks, and cut to
    its leading rows for a block with fewer rows, such as a short last block.
    A request with other trailing dimensions or more rows replaces it.
    Outside a tally it is a fresh array, so nothing a caller keeps aliases a
    buffer.
    """
    shape = tuple(shape)
    arena = getattr(_worker, "arena", None)
    if arena is None:
        return np.empty(shape, dtype=np.complex128)
    held = arena.get(slot)
    if held is None or held.shape[1:] != shape[1:] or held.shape[0] < shape[0]:
        held = arena[slot] = np.empty(shape, dtype=np.complex128)
    return held[: shape[0]]


def tally_blocks(
    block_fn: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    rng: RngStream,
    *,
    block_size: int,
    workers: int = 1,
) -> np.ndarray:
    """Sum block tallies over the deterministic shard plan.

    ``block_fn(gen, count)`` may return any numeric 1-D array whose value
    depends only on the generator state and ``count``.  Blocks are laid out
    by index and block ``i`` uses ``rng.block(i)``, and the block results are
    summed in plan order, so the total is independent of ``workers``, for
    float and complex tallies too.  Results go into a running total as they
    come, and at most ``2 * workers`` are held at once, however many blocks;
    the plan itself is taken one block at a time.
    A ``workers`` below 1 is refused with a ``ValueError`` before any draw.

    Each worker, the calling thread when ``workers == 1`` and each pool
    thread otherwise, holds its own arena of :func:`block_buffer` arrays for
    the span of this call.  The calling thread's arena is dropped when the
    call returns or raises; a pool thread's ends with the thread, when the
    pool shuts down before the call returns.  A block must therefore return
    nothing that aliases a buffer.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    plan = block_plan(samples, block_size)

    def run(task: tuple[int, int]) -> np.ndarray:
        index, count = task
        return np.asarray(block_fn(rng.block(index), count))

    if workers == 1:
        _open_arena()
        try:
            return _sum_in_order(map(run, plan))
        finally:
            _worker.arena = None
    with ThreadPoolExecutor(max_workers=workers, initializer=_open_arena) as pool:
        return _sum_in_order(_bounded_map(pool, run, plan, 2 * workers))


def _bounded_map(pool: ThreadPoolExecutor, fn: Callable, items: Iterator, window: int):
    """``pool.map(fn, items)`` that holds at most ``window`` results not yet
    taken and takes ``items`` only as it submits them."""
    pending = deque(pool.submit(fn, item) for item in itertools.islice(items, window))
    for item in items:
        yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def _sum_in_order(parts) -> np.ndarray:
    """Running total of ``parts``, added in the order they come."""
    total = next(parts).copy()
    for part in parts:
        total += part
    return total


# ---------------------------------------------------------------------------
# intervals and result containers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _normal_quantile(confidence: float) -> float:
    """Two-sided standard normal quantile of a confidence level."""
    return float(ndtri(0.5 * (1.0 + confidence)))


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")


def binomial_se(p: float | np.ndarray, samples: int) -> float | np.ndarray:
    """Binomial standard error ``sqrt(p*(1-p)/samples)`` of a proportion or an array of them."""
    return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / samples)


def wilson_interval(hits: int, samples: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Endpoints are exact at the boundary (0 hits gives a lower endpoint of 0,
    all hits gives an upper endpoint of 1) and always lie inside [0, 1].
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not 0 <= hits <= samples:
        raise ValueError("hits must lie in [0, samples]")
    _check_confidence(confidence)
    z = _normal_quantile(confidence)
    p = hits / samples
    zz = z * z / samples
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z * math.sqrt(p * (1.0 - p) / samples + zz / (4.0 * samples)) / (1.0 + zz)
    # At the boundaries center and half agree exactly in exact arithmetic;
    # pin the endpoints so rounding noise cannot leak across 0 or 1.
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == samples else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte Carlo measure estimate with its Wilson interval, binomial SE and provenance."""

    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    hits: int
    seed: int
    confidence: float = DEFAULT_CONFIDENCE

    @property
    def std_error(self) -> float:
        """Binomial standard error of the point estimate, :func:`binomial_se`."""
        return float(binomial_se(self.estimate, self.samples))

    def json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci": [self.ci_low, self.ci_high],
            "samples": self.samples,
            "hits": self.hits,
            "seed": self.seed,
            "confidence": self.confidence,
        }


@dataclass(frozen=True)
class JointTable:
    """Joint occupancy table for a family of events.

    Cell index ``c`` collects samples for which event ``j`` happened exactly
    when bit ``j`` of ``c`` is set; cell probabilities sum to 1.
    """

    n_events: int
    counts: tuple[int, ...]
    samples: int
    seed: int

    @property
    def probs(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.float64) / self.samples

    def marginal(self, j: int) -> float:
        """Estimated probability of event ``j``."""
        if not 0 <= j < self.n_events:
            raise ValueError(f"event index {j} out of range")
        idx = np.arange(1 << self.n_events)
        return float(self.probs[(idx >> j) & 1 == 1].sum())

    def json_dict(self) -> dict:
        return {
            "events": self.n_events,
            "counts": list(self.counts),
            "samples": self.samples,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _innovation_plan(
    events: Sequence[BorelSet], given: LevelVector | None
) -> tuple[int, dict[int, dict[ActedSet, list[int]]]] | None:
    """Level ``N`` and, for each distinct bit ``k``, each innovation copy with
    the rows of the events it stands for; ``None`` unless every event is in
    innovation form (:func:`event_indicators`, point 1)."""
    if not all(isinstance(e, ActedSet) for e in events):
        return None
    level = max([e.base.level for e in events] + ([] if given is None else [given.level]))
    copies: dict[tuple[bytes, int], ActedSet] = {}
    plan: dict[int, dict[ActedSet, list[int]]] = {}
    for j, e in enumerate(events):
        pattern = e.element.pattern
        if e.element.level <= level or (
            pattern.size > 2 and ((pattern[0::2] != pattern[0]).any() or (pattern[1::2] != pattern[1]).any())
        ):
            return None
        key = (pattern[:2].tobytes(), id(e.base))
        if key not in copies:
            copies[key] = acted_set(GroupElement(level + 1, pattern[:2]), e.base)
        plan.setdefault(e.element.level - 1, {}).setdefault(copies[key], []).append(j)
    return level, plan


class ReadFactor(NamedTuple):
    """``conj(R)`` for grouped reads with ``A_g^H = Q_g R_g`` in each group
    ``g`` (see :class:`~whirly_lab.sets.LinearReads`), so ``R`` is
    block-diagonal up to the order of its rows.

    ``diagonal[i]`` is entry ``(i, i)`` and ``updates`` lists every entry
    ``(i, j, value)`` with ``i < j`` in one group.
    """

    diagonal: np.ndarray
    updates: tuple[tuple[int, int, complex], ...]

    @classmethod
    def of(cls, reads: LinearReads, limit: int) -> "ReadFactor | None":
        """The factor of ``reads``, or ``None`` when its rows plus its
        off-diagonal entries reach ``limit``, before any QR is taken."""
        count, size = reads.rows.shape
        if count * size * (size + 1) // 2 >= limit:
            return None
        r = np.linalg.qr(reads.groups.conj().transpose(0, 2, 1), mode="r")
        # A group with fewer columns than rows gets zero rows: its extra
        # draws are read by nothing.
        factor = np.zeros((count, size, size), dtype=np.complex128)
        factor[:, : r.shape[1]] = np.conj(r)
        diagonal = np.empty(reads.rows.size, dtype=np.complex128)
        diagonal[reads.rows] = factor.diagonal(axis1=1, axis2=2)
        a, b = np.triu_indices(size, 1)
        updates = zip(reads.rows[:, a].ravel().tolist(), reads.rows[:, b].ravel().tolist(),
                      factor[:, a, b].ravel().tolist())
        return cls(diagonal, tuple(updates))

    def apply(self, z: np.ndarray, width: int) -> np.ndarray:
        """``z @ conj(R)`` padded with zero columns to ``width``, column by
        column: each step is one long loop over the batch and none calls BLAS."""
        count, rows = z.shape
        xi = np.empty((count, width), dtype=np.complex128)
        np.multiply(z, self.diagonal, out=xi[:, :rows])
        xi[:, rows:] = 0.0
        for i, j, value in self.updates:
            xi[:, j] += z[:, i] * value
        return xi


def event_indicators(
    events: Sequence[BorelSet], *, given: LevelVector | None = None
) -> tuple[int, Callable[[np.random.Generator, int], np.ndarray]]:
    """Block size and block sampler for the indicators of a family of events.

    The sampler maps ``(gen, count)`` to a boolean array of shape
    ``(len(events), count)`` whose row ``j`` tells which of ``count`` fresh
    realizations lie in event ``j``; with ``given`` the realizations come from
    the exact conditional law pinned at that level vector.  The draws depend
    on the family and ``given`` alone, through the first path that applies:

    1. Innovation coordinates.  When every event is ``g . K`` with ``g`` at
       level ``k + 1 > N``, ``N`` the finest base or conditioning level, and
       a phase that reads only the last bit of its path (a pattern of one or
       two phases, or a longer one whose even and odd entries are each
       constant), a tree lies in ``g . K`` exactly when the level-``N + 1``
       vector with children ``(x_N + U_k)/sqrt(2)`` and
       ``(x_N - U_k)/sqrt(2)`` lies in the copy ``K`` acted on by the same two
       phases at level ``N + 1``, where ``U_k`` are the level-``k``
       innovations aggregated to level ``N``.  Events with the same phases
       and base share one copy.  The sampler draws ``x_N``, then for each
       distinct ``k`` in increasing order one fresh standard ``U`` of shape
       ``(count, 2**N)``, and evaluates each copy of that ``k`` once on it.
       This is the joint law of ``x_N`` and the ``U_k``, which are
       independent of ``x_N`` and of each other.  Only one ``U`` is held at a
       time, and blocks are sized for level ``N + 1``.
    2. Reads.  Without ``given``, the family's ``D`` distinct linear reads
       of its level-``L`` vector, ``L`` the deepest event level, come grouped
       by the level-``c`` subtree they read, ``c`` the coarsest leaf level
       (see :func:`~whirly_lab.sets.linear_reads`); reads of different
       groups are independent.  :class:`ReadFactor` takes
       ``A_g^H = Q_g R_g`` for every group's read matrix ``A_g`` in one
       batched QR, and ``conj(R)`` is block-diagonal over the groups.  When
       ``D`` plus the off-diagonal entries of ``R`` is below ``2**L``, the
       draws of the level, and ``D * 2**L`` is at most ``_MAX_READ_ENTRIES``
       (which binds only above level 10), the sampler draws ``D`` standard
       complex values ``z`` per realization and evaluates every reduced
       event on ``xi = z @ conj(R)``, computed as one scale of ``z`` by the
       diagonal and one 1-D column update per off-diagonal entry: the reads
       ``x @ A_g.T`` equal ``(x @ conj(Q_g)) @ conj(R_g)``, and
       ``x @ conj(Q_g)`` is i.i.d. standard because ``Q_g`` has orthonormal
       columns.  The rule bounds the updates per block, which one dense
       group would make quadratic in ``D``.  ``xi`` keeps the read order and
       is padded with zero columns; blocks are sized for its level.
    3. Levels.  Otherwise it draws the deepest level the family or ``given``
       needs, with :func:`~whirly_lab.tree.sample_levels` or
       :func:`~whirly_lab.tree.conditional_levels`, and no level below it.

    Blocks are sized by :func:`default_block_size` for the level their draws
    fill, so a family whose blocks would not fit the sampler budget is
    refused there, before any draw.
    """

    def levels_to(to: int, gen: np.random.Generator, count: int) -> list[np.ndarray]:
        if given is None:
            return sample_levels(to, count, gen, out=block_buffer("levels", (count, 1 << to)))
        return conditional_levels(given.entries, given.level, to, count, gen)

    plan = _innovation_plan(events, given)
    if plan is not None:
        level, by_bit = plan

        def innovation_block(gen: np.random.Generator, count: int) -> np.ndarray:
            x = levels_to(level, gen, count)[level]
            out = np.empty((len(events), count), dtype=bool)
            for bit in sorted(by_bit):
                u = standard_complex(gen, x.shape, out=block_buffer("innovation", x.shape))
                w = refine(x, u)
                for copy, rows in by_bit[bit].items():
                    out[rows] = copy.indicator_at(w)
            return out

        return default_block_size(level + 1), innovation_block

    level = max([e.level for e in events] + ([] if given is None else [given.level]))
    # From level 21 on no read fits, and the walk would first allocate
    # several level-``level`` arrays only to give up at the first leaf.  The
    # entry budget is shifted first, so such a level never builds 2**level.
    max_reads = _MAX_READ_ENTRIES >> level and min((1 << level) - 1, _MAX_READ_ENTRIES >> level)
    reads = linear_reads(events, max_reads) if given is None and max_reads > 0 else None
    factor = None if reads is None else ReadFactor.of(reads, 1 << level)
    if factor is not None:
        rows = reads.rows.size
        read_level = reads.reduced[0].level

        def read_block(gen: np.random.Generator, count: int) -> np.ndarray:
            z = standard_complex(gen, (count, rows), out=block_buffer("reads", (count, rows)))
            xi = factor.apply(z, 1 << read_level)
            return np.stack([r.indicator_at(xi) for r in reads.reduced])

        return default_block_size(read_level), read_block

    def level_block(gen: np.random.Generator, count: int) -> np.ndarray:
        levels = levels_to(level, gen, count)
        return np.stack([e.indicator(levels) for e in events])

    return default_block_size(level), level_block


def estimate_measure(
    target: BorelSet,
    depth: int,
    samples: int,
    rng: RngStream,
    *,
    workers: int = 1,
    confidence: float = DEFAULT_CONFIDENCE,
) -> MeasureEstimate:
    """Estimate the measure of ``target`` from fresh realizations.

    The hits are cell 1 of the one-event :func:`estimate_joint_events`
    table, which draws only what the set reads (see
    :func:`event_indicators`): two standard complex values per realization
    for the symmetric difference of two acted level-0 disks, at any level,
    and the set's own level vector for a set that reads all of it.  A set
    whose blocks would not fit the sampler budget, or a ``confidence``
    outside (0, 1), is refused with a ``ValueError`` before any draw.
    ``depth`` must reach the set's level and decides nothing else.
    """
    _check_confidence(confidence)
    total = estimate_joint_events([target], depth, samples, rng, workers=workers).counts[1]
    low, high = wilson_interval(total, samples, confidence)
    return MeasureEstimate(
        estimate=total / samples,
        ci_low=low,
        ci_high=high,
        samples=samples,
        hits=total,
        seed=rng.master_seed,
        confidence=confidence,
    )


def estimate_joint_events(
    events: Sequence[BorelSet],
    depth: int,
    samples: int,
    rng: RngStream,
    *,
    given: LevelVector | None = None,
    workers: int = 1,
) -> JointTable:
    """Joint occupancy counts for up to 12 events on shared samples.

    With ``given`` the samples come from the exact conditional law pinned at
    that level vector; one event and a ``given`` estimate a conditional
    measure, and one event alone its measure (:func:`estimate_measure`).
    The events are sampled through :func:`event_indicators`, which refuses a
    family whose blocks would not fit the sampler budget before any draw.
    ``depth`` must reach every event's level and that of ``given`` and
    decides nothing else.
    """
    n_events = len(events)
    if not 1 <= n_events <= MAX_JOINT_EVENTS:
        raise ValueError(f"need between 1 and {MAX_JOINT_EVENTS} events, got {n_events}")
    min_level = max(e.level for e in events)
    if given is not None:
        min_level = max(min_level, given.level)
    if depth < min_level:
        raise DepthMismatchError(f"sampling depth {depth} is below the required level {min_level}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    block_size, indicators = event_indicators(events, given=given)

    def block(gen: np.random.Generator, count: int) -> np.ndarray:
        rows = indicators(gen, count)
        code = rows[0].astype(np.intp)
        for j in range(1, n_events):
            code |= rows[j].astype(np.intp) << j
        return np.bincount(code, minlength=1 << n_events)

    counts = tally_blocks(block, samples, rng, block_size=block_size, workers=workers)
    return JointTable(
        n_events=n_events,
        counts=tuple(counts.tolist()),
        samples=samples,
        seed=rng.master_seed,
    )
