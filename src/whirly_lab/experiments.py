"""Statistical experiments: each verifier checks one identity of the model.

Every experiment returns an :class:`ExperimentReport` whose ``passed`` flag is
a pure function of the ``observed`` and ``thresholds`` maps (see
:meth:`ExperimentReport.evaluate`), so a stored report can be re-judged
without re-running anything.  Statistical checks are normalized to sigma
units: the observed value is a deviation divided by its standard error and the
threshold is 3.

Experiments derive all their internal randomness from the stream they are
handed (via ``RngStream.child``), so a report is reproducible from
``(seed, stream_id)`` alone, worker count included.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import GroupElement, act, compose, make_gsk, random_element, uniform_distance
from .montecarlo import (
    MIN_SAMPLES,
    MeasureEstimate,
    binomial_se,
    block_buffer,
    default_block_size,
    estimate_joint_events,
    estimate_measure,
    event_indicators,
    tally_blocks,
    wilson_interval,  # not called here; benchmarks/test_smoke.py checks this binding
)
from .rng import RngStream
from .sets import (
    BorelSet,
    DiskProduct,
    acted_set,
    affine_image,
    disk_product,
    symmetric_difference,
)
from .tree import (
    LevelVector,
    _div_real,
    check_sampler_budget,
    disk_mass,
    disk_product_mass,
    project,
    sample_levels,
    sample_tree,
    standard_complex,
    u_stat_arrays,
    u_stat_vector,
)

EXACT_TOL = 1e-10
SIGMA_LIMIT = 3.0

# The annulus bound is an open inequality; aim below the cap so the bisection
# root itself satisfies it with margin.
_ANNULUS_MARGIN = 0.9


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: parameters in, observations out.

    ``thresholds`` maps an observed key to comparison rules among ``max``,
    ``min``, ``lt``, ``gt``; the report passes when every rule holds.  A NaN
    or an infinity anywhere in ``parameters`` or ``observed`` is refused with
    a ``ValueError`` that names every such field.
    """

    name: str
    parameters: dict
    observed: dict
    thresholds: dict
    seed: int
    runtime_ms: int

    def __post_init__(self) -> None:
        bad = [*_non_finite(self.parameters, "parameters"), *_non_finite(self.observed, "observed")]
        if bad:
            raise ValueError(f"report fields not finite: {', '.join(bad)}")

    @property
    def passed(self) -> bool:
        return self.evaluate(self.observed, self.thresholds)

    @staticmethod
    def evaluate(observed: dict, thresholds: dict) -> bool:
        """Recompute the pass flag from observations and thresholds."""
        for key, rules in thresholds.items():
            value = observed[key]
            for op, bound in rules.items():
                if op == "max":
                    ok = value <= bound
                elif op == "min":
                    ok = value >= bound
                elif op == "lt":
                    ok = value < bound
                elif op == "gt":
                    ok = value > bound
                else:
                    raise ValueError(f"unknown threshold rule {op!r}")
                if not ok:
                    return False
        return True

    def json_dict(self) -> dict:
        """The deterministic body: every field but the wall-clock ``runtime_ms``."""
        return {
            "name": self.name,
            "parameters": self.parameters,
            "observed": self.observed,
            "thresholds": self.thresholds,
            "pass": self.passed,
            "seed": self.seed,
        }


def _non_finite(value, path: str):
    """Yield the path of every NaN or infinity in ``value``, walking nested
    dicts and lists."""
    if isinstance(value, float):
        if not math.isfinite(value):
            yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{i}]")


def report_json(payload: dict) -> str:
    """The one text form of every report: indented JSON with sorted keys.
    A NaN or an infinity raises ``ValueError`` rather than print."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _sigma(diff: float, se: float) -> float:
    """``diff`` in units of ``se``; with a zero ``se``, 0 for no difference
    and ``inf`` for any other."""
    return (diff / se) if se > 0.0 else (0.0 if diff == 0.0 else math.inf)


def _finish(
    name: str,
    parameters: dict,
    observed: dict,
    thresholds: dict,
    seed: int,
    started: float,
) -> ExperimentReport:
    return ExperimentReport(
        name=name,
        parameters=parameters,
        observed=observed,
        thresholds=thresholds,
        seed=seed,
        runtime_ms=int(1000.0 * (time.perf_counter() - started)),
    )


# ---------------------------------------------------------------------------
# marginal laws
# ---------------------------------------------------------------------------


def verify_marginals(n: int, samples: int, rng: RngStream) -> ExperimentReport:
    """Check that level-n values and aggregated innovations up to three levels
    deeper are jointly standard: means near 0, second moments near 2, and all
    pairwise cross-moments near 0, each within 3 standard errors.
    """
    if not 0 <= n <= 8:
        raise ValueError("n must lie in [0, 8]")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    started = time.perf_counter()
    depth = n + 4
    width = 1 << n
    n_vars = 5 * width

    def moment_block(gen: np.random.Generator, count: int) -> np.ndarray:
        # First moments, squared moduli and cross products in one vector.
        levels = sample_levels(depth, count, gen)
        columns = [levels[n]] + [u_stat_arrays(levels, n, k) for k in range(n, n + 4)]
        w = np.concatenate(columns, axis=1)
        return np.concatenate(
            [w.sum(axis=0), (w.real**2 + w.imag**2).sum(axis=0), (w.conj().T @ w).ravel()]
        )

    sums = tally_blocks(moment_block, samples, rng, block_size=default_block_size(depth))
    mean = sums[:n_vars] / samples
    second = sums[n_vars : 2 * n_vars].real / samples
    cov = sums[2 * n_vars :].reshape(n_vars, n_vars) / samples - np.outer(mean.conj(), mean)
    off = np.abs(cov)
    np.fill_diagonal(off, 0.0)

    se_mean = math.sqrt(2.0 / samples)
    se_second = 2.0 / math.sqrt(samples)
    se_cross = 2.0 / math.sqrt(samples)
    observed = {
        "max_mean_sigma": float(np.max(np.abs(mean)) / se_mean),
        "max_second_moment_sigma": float(np.max(np.abs(second - 2.0)) / se_second),
        "max_cross_moment_sigma": float(np.max(off) / se_cross),
    }
    thresholds = {key: {"max": SIGMA_LIMIT} for key in observed}
    parameters = {"n": n, "samples": samples, "depth": depth, "variables": n_vars}
    return _finish("verify-marginals", parameters, observed, thresholds, rng.master_seed, started)


# ---------------------------------------------------------------------------
# exact action identity
# ---------------------------------------------------------------------------


def verify_action_identity(
    n: int, k: int, s: float, trials: int, rng: RngStream
) -> ExperimentReport:
    """Check the exact level-n effect of a whirling element on random trees:

        project(act(g, t), n) == (project(t, n) + i*s*U) / sqrt(1 + s**2)

    where ``U`` collects the level-k aggregated innovations of ``t``.  The
    identity is algebraic, so the residual threshold is 1e-10, not
    statistical.  A ``k`` whose trees would not fit the sampler budget is
    refused with a ``ValueError`` before anything is drawn or built.
    """
    if not 0 <= n <= k:
        raise ValueError("need 0 <= n <= k")
    if trials < 1:
        raise ValueError("trials must be positive")
    # Each trial draws a depth-(k + 1) tree, and acting on it reads 2**(k + 1) phases of g.
    check_sampler_budget(k + 1, 1)
    started = time.perf_counter()
    gen = rng.generator()
    g = make_gsk(s, k)
    scale = math.hypot(1.0, s)
    worst = 0.0
    for _ in range(trials):
        t = sample_tree(k + 1, gen)
        lhs = project(act(g, t), n).entries
        rhs = (project(t, n).entries + 1j * s * u_stat_vector(t, n, k)) / scale
        worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))  # keeps a NaN residual
    observed = {"max_residual": float(worst)}
    thresholds = {"max_residual": {"max": EXACT_TOL}}
    parameters = {"n": n, "k": k, "s": s, "trials": trials}
    return _finish("verify-action-identity", parameters, observed, thresholds, rng.master_seed, started)


# ---------------------------------------------------------------------------
# uniform continuity of the action on measures
# ---------------------------------------------------------------------------


def _annulus_width(radius: float, center: complex, epsilon: float) -> tuple[float, float]:
    """Largest band half-width ``s`` with annulus mass below epsilon/3."""
    target = _ANNULUS_MARGIN * epsilon / 3.0

    def mass(s: float) -> float:
        inner = max(radius - s, 0.0)
        return disk_mass(radius + s, center) - disk_mass(inner, center)

    lo = 1e-9 * radius
    hi = radius
    if mass(hi) <= target:
        return hi, mass(hi)
    if mass(lo) >= target:
        raise ValueError("no band width satisfies the annulus bound; epsilon is degenerate")
    # The band mass grows with s: bisect until lo and hi are adjacent floats,
    # keeping mass(lo) < target <= mass(hi).
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mass(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, mass(lo)


def verify_continuity(
    radius: float,
    center: complex,
    epsilon: float,
    n: int,
    samples: int,
    rng: RngStream,
    *,
    pairs: int = 20,
    workers: int = 1,
) -> ExperimentReport:
    """Check that nearby group elements move a disk cylinder by less than
    ``epsilon`` in measure.

    The tolerance ``delta`` on the uniform distance is derived from a band
    half-width ``s`` chosen so the boundary annulus of the disk has mass below
    ``epsilon/3``.  The difference of the two rotated projections has expected
    squared modulus at most ``2*delta**2`` under this library's Gaussian
    convention, so ``delta = s*sqrt(epsilon/6)`` keeps the crossing
    probability below ``epsilon/3`` by Markov's inequality.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 <= n <= 10:
        raise ValueError("n must lie in [0, 10]")
    if not 1 <= pairs <= 50:
        raise ValueError("pairs must lie in [1, 50]")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    started = time.perf_counter()

    band, annulus_mass = _annulus_width(radius, center, epsilon)
    delta = band * math.sqrt(epsilon / 6.0)
    target = disk_product(0, center, radius)

    pair_gen = rng.child(0).generator()
    reach = min(delta, 2.0) * (1.0 - 1e-12)
    theta_max = 2.0 * math.asin(reach / 2.0)

    max_distance = 0.0
    max_estimate = 0.0
    max_clearance = 0.0
    for i in range(pairs):
        g = random_element(n, pair_gen)
        angles = pair_gen.uniform(-theta_max, theta_max, size=1 << n)
        h = compose(g, GroupElement(n, np.exp(1j * angles)))
        max_distance = max(max_distance, uniform_distance(g, h))
        moved = symmetric_difference(acted_set(g, target), acted_set(h, target))
        est = estimate_measure(moved, n, samples, rng.child(1 + i), workers=workers)
        max_estimate = max(max_estimate, est.estimate)
        max_clearance = max(max_clearance, est.estimate + SIGMA_LIMIT * est.std_error)

    observed = {
        "band_half_width": band,
        "annulus_mass": annulus_mass,
        "delta": delta,
        "max_pair_distance": max_distance,
        "max_symdiff_estimate": max_estimate,
        "max_symdiff_clearance": max_clearance,
    }
    thresholds = {"max_symdiff_clearance": {"lt": epsilon}}
    parameters = {
        "radius": radius,
        "center": [center.real, center.imag] if isinstance(center, complex) else [float(center), 0.0],
        "epsilon": epsilon,
        "n": n,
        "samples": samples,
        "pairs": pairs,
    }
    return _finish("verify-continuity", parameters, observed, thresholds, rng.master_seed, started)


# ---------------------------------------------------------------------------
# convolution identity
# ---------------------------------------------------------------------------


def verify_convolution(
    target: BorelSet,
    a: float,
    samples: int,
    rng: RngStream,
    *,
    workers: int = 1,
) -> ExperimentReport:
    """Check that averaging the measure of ``sqrt(1+a**2)*K + a*z`` over a
    level sample ``z`` returns the measure of ``K`` itself.

    The left side is estimated by Fubini with one joint draw per sample:
    ``(x, y)`` independent level vectors, hit when ``(x - a*y)/sqrt(1+a**2)``
    lies in ``K``.  The right side is the direct estimator on fresh samples.
    The two must agree within 3 combined standard errors.

    A block draws ``x`` and ``y`` into its worker's buffers and computes
    ``(x - a*y)/sqrt(1+a**2)`` in place in ``y``, by the same operations as
    the expression, so with the same bits.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    started = time.perf_counter()
    n = target.level
    width = 1 << n
    scale = math.hypot(1.0, a)

    def fubini_block(gen: np.random.Generator, count: int) -> np.ndarray:
        x = standard_complex(gen, (count, width), out=block_buffer("fubini_x", (count, width)))
        y = standard_complex(gen, (count, width), out=block_buffer("fubini_y", (count, width)))
        np.multiply(a, y, out=y)
        np.subtract(x, y, out=y)
        hits = target.indicator_at(_div_real(y, scale))
        return np.array([int(np.count_nonzero(hits))], dtype=np.int64)

    fubini_hits = int(
        tally_blocks(
            fubini_block, samples, rng.child(0), block_size=default_block_size(n), workers=workers
        )[0]
    )
    fubini = fubini_hits / samples
    direct = estimate_measure(target, n, samples, rng.child(1), workers=workers)

    se = math.hypot(binomial_se(fubini, samples), direct.std_error)
    diff = abs(fubini - direct.estimate)
    observed = {
        "fubini_estimate": fubini,
        "direct_estimate": direct.estimate,
        "difference": diff,
        "combined_se": se,
        "sigma_difference": _sigma(diff, se),
    }
    thresholds = {"sigma_difference": {"max": SIGMA_LIMIT}}
    parameters = {"a": a, "level": n, "samples": samples}
    return _finish("verify-convolve", parameters, observed, thresholds, rng.master_seed, started)


# ---------------------------------------------------------------------------
# conditional independence of whirled events
# ---------------------------------------------------------------------------


def verify_conditional_independence(
    target: BorelSet,
    s: float,
    m: int,
    samples: int,
    rng: RngStream,
    *,
    given: LevelVector | None = None,
    workers: int = 1,
    element_factory: Callable[[float, int], GroupElement] = make_gsk,
) -> ExperimentReport:
    """Check that the whirled copies of a cylinder are conditionally
    independent with the predicted common measure.

    Conditioned on the level-n projection ``z``, the events
    ``g(s, k) . pullback(K)`` for ``k = n .. n+m-1`` are driven by disjoint
    innovation aggregates, so they must be mutually independent, each with
    measure equal to that of ``(sqrt(1+s**2)*K - z) / s``.  Marginals are
    compared against a direct estimate of that affine set; every joint cell is
    compared against the product of the observed marginals, all in sigma
    units.

    ``element_factory`` builds the group element for each ``k``; substituting
    a factory that ignores ``k`` produces identical events and must fail the
    product test.  A level whose blocks, sized for level ``n + 1``, would not
    fit the sampler budget is refused before any element is built.
    """
    if not 1 <= m <= 6:
        raise ValueError("m must lie in [1, 6]")
    if not s > 0.0:
        raise ValueError("s must be strictly positive")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    started = time.perf_counter()
    n = target.level
    scale = math.hypot(1.0, s)
    default_block_size(n + 1)

    if given is None:
        given = LevelVector(n, standard_complex(rng.child(0).generator(), (1 << n,)))
    if given.level != n:
        raise ValueError("conditioning vector must live at the set's determination level")

    events = [acted_set(element_factory(s, k), target) for k in range(n, n + m)]
    depth = max([n] + [e.level for e in events])
    table = estimate_joint_events(events, depth, samples, rng.child(1), given=given, workers=workers)

    reference_set = affine_image(target, scale / s, -given.entries / s)
    reference = estimate_measure(reference_set, n, samples, rng.child(2), workers=workers)

    marginals = np.array([table.marginal(j) for j in range(m)])
    se_marginals = binomial_se(marginals, samples)
    max_marginal_sigma = 0.0
    for p, se_p in zip(marginals, se_marginals):
        se = math.hypot(se_p, reference.std_error)
        diff = abs(p - reference.estimate)
        max_marginal_sigma = max(max_marginal_sigma, _sigma(diff, se))

    probs = table.probs
    max_cell_sigma = 0.0
    floor = 1.0 / samples
    for code in range(1 << m):
        bits = (code >> np.arange(m)) & 1
        terms = np.where(bits == 1, marginals, 1.0 - marginals)
        expected = float(np.prod(terms))
        rel = se_marginals / np.maximum(terms, floor)
        se_expected = expected * math.sqrt(float(np.sum(rel * rel)))
        cell = float(probs[code])
        se = math.hypot(binomial_se(cell, samples), se_expected)
        diff = abs(cell - expected)
        max_cell_sigma = max(max_cell_sigma, _sigma(diff, se))

    observed = {
        "reference_marginal": reference.estimate,
        "min_marginal": float(marginals.min()),
        "max_marginal": float(marginals.max()),
        "max_marginal_sigma": float(max_marginal_sigma),
        "max_cell_sigma": float(max_cell_sigma),
    }
    thresholds = {
        "max_marginal_sigma": {"max": SIGMA_LIMIT},
        "max_cell_sigma": {"max": SIGMA_LIMIT},
    }
    parameters = {
        "s": s,
        "m": m,
        "level": n,
        "samples": samples,
        "depth": depth,
        "given": [[z.real, z.imag] for z in given.entries],
    }
    return _finish(
        "verify-independence", parameters, observed, thresholds, rng.master_seed, started
    )


# ---------------------------------------------------------------------------
# almost-sure positivity of translated measures
# ---------------------------------------------------------------------------


def _scanned_hits(
    target: BorelSet, a: float, shifts: np.ndarray, inner_samples: int, rng: RngStream, workers: int = 1
) -> np.ndarray:
    """Per-``z`` hit counts of ``sqrt(1+a**2)*K + a*z``, ``inner_samples`` each,
    by Monte Carlo, for the rows ``a*z`` of ``shifts``.

    The scan behind :func:`_fiber_scan` for every target but a disk product,
    and for a disk product the oracle the tests hold the exact fiber to.  One
    :func:`~whirly_lab.montecarlo.tally_blocks` call on ``rng.child(2)``
    draws ``inner_samples`` standard level vectors ``w`` in blocks of
    ``default_block_size(L)``, ``L`` the set's level, and a block counts for
    every ``z`` the ``w`` with ``(w - a*z)/sqrt(1+a**2)`` in ``K``.  Given
    ``z`` a count is ``Binomial(inner_samples, q(z))``; the counts of
    different ``z`` share their draws, so they are dependent.
    """
    width = 1 << target.level
    scale = math.hypot(1.0, a)

    def scan_block(gen: np.random.Generator, count: int) -> np.ndarray:
        w = standard_complex(gen, (count, width), out=block_buffer("scan", (count, width)))
        moved = block_buffer("scan_moved", (count, width))
        hits = np.empty(len(shifts), dtype=np.int64)
        for j, shift in enumerate(shifts):
            np.subtract(w, shift, out=moved)
            hits[j] = np.count_nonzero(target.indicator_at(_div_real(moved, scale)))
        return hits

    block_size = default_block_size(target.level)
    return tally_blocks(scan_block, inner_samples, rng.child(2), block_size=block_size, workers=workers)


def _fiber_scan(
    target: BorelSet, a: float, z_samples: int, inner_samples: int, base_samples: int, rng: RngStream,
    workers: int = 1,
) -> tuple[MeasureEstimate, np.ndarray, np.ndarray | None]:
    """The fiber of ``K`` at ``a``: ``(base, measures, hits)``.

    ``base`` estimates the measure of ``K`` on ``base_samples`` draws of
    ``rng.child(0)``, and a ``K`` whose interval reaches 0 is refused.
    ``measures`` holds the measure of ``sqrt(1+a**2)*K + a*z`` for each of
    ``z_samples`` standard level vectors ``z``, drawn once from
    ``rng.child(1)``.  For a :class:`~whirly_lab.sets.DiskProduct` it is
    exact and only the ``z`` are drawn: it is
    :func:`~whirly_lab.tree.disk_product_mass` at ``scale = sqrt(1+a**2)``
    and ``shifts = a*z``, and ``hits`` is ``None``.  Any other ``K`` is
    scanned on the same ``a*z``: ``hits`` holds :func:`_scanned_hits`'s
    counts and ``measures`` is ``hits / inner_samples``.  Both tallies run on
    ``workers`` threads.  Fewer than 10 ``z`` or ``MIN_SAMPLES`` inner
    samples, or a draw that would not fit the sampler budget (all ``z`` at
    once, or one block), is refused with a ``ValueError`` before anything is
    drawn.
    """
    if z_samples < 10:
        raise ValueError("need at least 10 z samples")
    if inner_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} inner samples")
    check_sampler_budget(target.level, max(z_samples, default_block_size(target.level)))
    base = estimate_measure(target, target.level, base_samples, rng.child(0), workers=workers)
    if not base.ci_low > 0.0:
        raise ValueError("target set is estimated null; its translated measures are uninformative")
    shifts = a * standard_complex(rng.child(1).generator(), (z_samples, 1 << target.level))
    if not isinstance(target, DiskProduct):
        hits = _scanned_hits(target, a, shifts, inner_samples, rng, workers)
        return base, hits / inner_samples, hits
    return base, disk_product_mass(target.radii, target.centers, math.hypot(1.0, a), shifts), None


def positivity_scan(
    target: BorelSet,
    a: float,
    z_samples: int,
    inner_samples: int,
    rng: RngStream,
) -> ExperimentReport:
    """Scan random level vectors ``z`` and estimate the measure of
    ``sqrt(1+a**2)*K + a*z`` for each.

    Reports the fraction of scanned ``z`` with at least one hit (threshold
    0.99), plus the quantile structure of the translated measures: ``delta_at_f``
    is ``np.quantile(measures, 1 - f)``, interpolated linearly between order
    statistics, so slightly fewer than a fraction ``f`` of the ``z`` may
    reach it, and it may lie below the largest level that a fraction ``f``
    of them reach.  Each ``z`` gets ``inner_samples`` hit-or-miss trials, on
    the fiber of :func:`_fiber_scan`, which also validates and budgets the
    scan.  Given ``z`` the trials are i.i.d., so where that fiber is exact
    the hit count of ``z`` is drawn from ``Binomial(inner_samples, q(z))``,
    all in one call on the generator of ``rng.child(2)``.
    """
    started = time.perf_counter()
    n = target.level
    base, measures, hits = _fiber_scan(target, a, z_samples, inner_samples, inner_samples, rng)
    if hits is None:
        hits = rng.child(2).generator().binomial(inner_samples, measures)
        measures = hits / inner_samples
    clear = int(np.count_nonzero(hits))

    fractions = {"50": 0.50, "75": 0.75, "87": math.sqrt(1.0 - 0.25), "95": 0.95}
    observed = {
        "base_measure": base.estimate,
        "fraction_positive": clear / z_samples,
        "min_translated": float(measures.min()),
        "median_translated": float(np.quantile(measures, 0.5)),
    }
    for key, frac in fractions.items():
        observed[f"delta_at_{key}"] = float(np.quantile(measures, 1.0 - frac))
    thresholds = {"fraction_positive": {"min": 0.99}}
    parameters = {
        "a": a,
        "level": n,
        "z_samples": z_samples,
        "inner_samples": inner_samples,
    }
    return _finish("positivity-scan", parameters, observed, thresholds, rng.master_seed, started)


# ---------------------------------------------------------------------------
# whirliness search
# ---------------------------------------------------------------------------


def whirly_search(
    target: BorelSet,
    epsilon: float,
    samples: int,
    max_depth: int,
    rng: RngStream,
    *,
    z_samples: int = 200,
    inner_samples: int = 10_000,
    workers: int = 1,
    element_factory: Callable[[float, int], GroupElement] = make_gsk,
) -> ExperimentReport:
    """Search for whirling elements of strength ``epsilon`` whose translates
    of ``K`` pile up to measure above ``1 - epsilon``.

    Constants phase: with ``a = -1/epsilon``, draw ``z_samples`` random level
    vectors ``z`` from ``rng.child(1)`` and find the largest ``delta`` such
    that the translated measure ``sqrt(1+a**2)*K + a*z`` exceeds ``delta``
    for more than a ``sqrt(1-epsilon/2)`` fraction of ``z``; from ``delta``
    derive the union length ``m`` that the constants guarantee.  The
    measures, the base estimate and their validation and budget are
    :func:`_fiber_scan`'s.  Search phase: estimate, on one sample
    set from ``rng.child(3)``, the measures of the unions of the first ``m``
    whirled copies ``g(epsilon, k) . K``, ``k = n .. n+m-1`` with ``n`` the
    set's level (a later base level draws the same union law: each copy
    reads only ``x_n`` and its own i.i.d. aggregated innovation), so the
    union curve is exactly monotone; ``m`` is capped by the constants and
    by ``max_depth``.  Whirling elements are sampled in innovation coordinates,
    ``m + 1`` level vectors per sample, and other elements through their
    reads or the deepest level they need (see
    :func:`~whirly_lab.montecarlo.event_indicators`).  The search passes,
    with ``found_n = n``, as soon as one union clears ``1 - epsilon`` by
    three standard errors; reaching the cap is a failure (``found_n = -1``),
    not an exception.  Whirling and identity elements are compact, two
    phases and one whatever their level, so the search itself stays small at
    any depth.  An ``element_factory`` may still build dense elements, which
    for ``k < max_depth`` hold about as many phases as one tree to
    ``max_depth``, so :func:`~whirly_lab.tree.check_sampler_budget` refuses
    ``max_depth >= 26`` with a ``ValueError`` before anything is drawn or
    built.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if max_depth < target.level + 1:
        raise ValueError("max_depth leaves no room for any whirling element")
    # make_gsk and identity elements hold two phases and one, but a factory
    # may build dense elements, 2**(k + 1) phases for each k < max_depth and
    # as many in all as one tree to max_depth; refuse before building any.
    check_sampler_budget(max_depth, 1)
    started = time.perf_counter()
    n0 = target.level

    # Constants phase.
    base, translated, _ = _fiber_scan(
        target, -1.0 / epsilon, z_samples, inner_samples, max(inner_samples, samples // 10), rng, workers
    )
    needed_fraction = math.sqrt(1.0 - epsilon / 2.0)
    ordered = np.sort(translated)[::-1]
    rank = min(int(needed_fraction * z_samples) + 1, z_samples)
    delta = float(ordered[rank - 1])
    m_theory: int | None = None  # constants are uninformative; search every feasible length
    if delta >= 1.0:
        m_theory = 1
    elif delta > 0.0:
        # An exact delta can lie below 2**-53, where log(1 - delta) is 0, or
        # so far below it that the length overflows a float.
        length = math.log(1.0 - needed_fraction) / math.log1p(-delta)
        if math.isfinite(length):
            m_theory = max(1, math.ceil(length))

    # Search phase.
    m_cap = max_depth - n0 if m_theory is None else min(max_depth - n0, m_theory)
    events = [acted_set(element_factory(epsilon, k), target) for k in range(n0, n0 + m_cap)]
    block_size, indicators = event_indicators(events)

    def union_block(gen: np.random.Generator, count: int) -> np.ndarray:
        stacked = indicators(gen, count)
        return np.logical_or.accumulate(stacked, axis=0).sum(axis=1).astype(np.int64)

    hits = tally_blocks(union_block, samples, rng.child(3), block_size=block_size, workers=workers)
    estimates = hits / samples
    ses = binomial_se(estimates, samples)
    margins = estimates - SIGMA_LIMIT * ses
    # The curve stops at the first union that clears 1 - epsilon.
    passing = np.flatnonzero(margins > 1.0 - epsilon)
    found_m = int(passing[0]) + 1 if passing.size else -1
    shown = found_m if found_m > 0 else m_cap
    best = int(np.argmax(margins[:shown]))
    curve = {f"union_n{n0}_m{m}": float(e) for m, e in enumerate(estimates[:shown], 1)}

    observed = {
        "base_measure": base.estimate,
        "delta": delta,
        "m_theory": -1.0 if m_theory is None else float(m_theory),
        "found": 1.0 if found_m > 0 else 0.0,
        "found_n": float(n0 if found_m > 0 else -1),
        "found_m": float(found_m),
        "union_estimate": float(estimates[best]),
        "union_se": float(ses[best]),
        "union_margin": float(margins[best]),
    }
    observed.update(curve)
    thresholds = {"union_margin": {"gt": 1.0 - epsilon}}
    parameters = {
        "epsilon": epsilon,
        "level": n0,
        "samples": samples,
        "max_depth": max_depth,
        "z_samples": z_samples,
        "inner_samples": inner_samples,
    }
    return _finish("whirly-search", parameters, observed, thresholds, rng.master_seed, started)


# ---------------------------------------------------------------------------
# sharpness of the scaling statistic
# ---------------------------------------------------------------------------


def sharpness_check(
    a: float, b: float, dims: int, samples: int, rng: RngStream
) -> ExperimentReport:
    """Check concentration of the root-mean-square statistic on real Gaussian
    vectors under two affine combinations.

    For independent standard Gaussian vectors ``x, y`` of length ``dims``:
    ``a*x + b*y`` has RMS concentrating at ``sqrt(a**2 + b**2)`` (tolerance
    ``5/sqrt(dims)`` on the sample mean) and ``(x - b*y)/a`` at
    ``sqrt(1 + b**2)/|a|`` (tolerance 0.01).  The second value equals 1, the
    RMS of a standard vector, exactly when ``a**2 == b**2 + 1``; the report's
    ``criterion_gap`` records ``|a**2 - b**2 - 1|``.  ``x`` and ``y`` are
    the two halves of one :func:`~whirly_lab.tree.standard_complex` draw of
    ``samples * dims`` values read as reals, which
    :func:`~whirly_lab.tree.check_sampler_budget` refuses before any draw
    when it would not fit the sampler budget.
    """
    if a == 0.0:
        raise ValueError("a must be nonzero")
    if dims < 1000:
        raise ValueError("dims must be at least 1000")
    if samples < 10:
        raise ValueError("need at least 10 repetitions")
    check_sampler_budget(0, samples * dims)
    started = time.perf_counter()
    normals = standard_complex(rng.generator(), (samples * dims,)).view(np.float64)
    x, y = normals.reshape(2, samples, dims)

    combined = np.sqrt(np.mean((a * x + b * y) ** 2, axis=1))
    inverse = np.sqrt(np.mean(((x - b * y) / a) ** 2, axis=1))
    combined_expected = math.hypot(a, b)
    inverse_expected = math.hypot(1.0, b) / abs(a)

    observed = {
        "combined_mean": float(combined.mean()),
        "combined_expected": combined_expected,
        "combined_dev": float(abs(combined.mean() - combined_expected)),
        "inverse_mean": float(inverse.mean()),
        "inverse_expected": inverse_expected,
        "inverse_dev": float(abs(inverse.mean() - inverse_expected)),
        "inverse_spread": float(inverse.std()),
        "criterion_gap": float(abs(a * a - b * b - 1.0)),
    }
    thresholds = {
        "combined_dev": {"max": 5.0 / math.sqrt(dims)},
        "inverse_dev": {"max": 0.01},
    }
    parameters = {"a": a, "b": b, "dims": dims, "samples": samples}
    return _finish("sharpness", parameters, observed, thresholds, rng.master_seed, started)
