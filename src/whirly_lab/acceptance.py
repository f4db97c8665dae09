"""Acceptance battery: ten criteria that gate a release of this package.

Each criterion packages one guarantee into a callable returning an
:class:`~whirly_lab.experiments.ExperimentReport`.  The battery is
deterministic for a fixed ``(seed, scale)``: statistical criteria compare
sigma-normalized deviations against fixed limits, so a run either passes or
fails reproducibly, and ``scale`` shrinks sample counts for smoke runs
without touching any threshold.  A statistic adopted from an experiment is
held to the limit that experiment sets, and a control's to its negation.

Criteria derive their randomness from ``RngStream(seed).child(i)`` where
``i`` is the criterion index, so reordering or re-running single criteria
never changes another criterion's draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .experiments import (
    EXACT_TOL,
    ExperimentReport,
    SIGMA_LIMIT,
    _finish,
    positivity_scan,
    sharpness_check,
    verify_action_identity,
    verify_conditional_independence,
    verify_continuity,
    verify_convolution,
    verify_marginals,
    whirly_search,
)
from .group import identity, make_gsk, random_element
from .montecarlo import MIN_SAMPLES, estimate_measure, tally_blocks, wilson_interval
from .rng import RngStream
from .sets import acted_set, disk_mass, disk_product
from .tree import (
    LevelVector,
    phi_roundtrip,
    project_vectors,
    sample_levels,
    sample_tree,
    standard_complex,
    u_stat_arrays,
)

ACCEPTANCE_SEED = 31415926

_DISK_ANCHOR = 0.3934693  # 1 - exp(-1/2), mass of the unit disk at level 0

_SEARCH_BUDGET_MS = 300_000  # wall-clock bound on the whirly criterion's search


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: a stable key, a headline, and a runner."""

    key: str
    title: str
    runner: Callable[[int, int, float], ExperimentReport]

    def run(self, seed: int = ACCEPTANCE_SEED, workers: int = 1, scale: float = 1.0) -> ExperimentReport:
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        return self.runner(seed, workers, scale)


def _scaled(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


_NEGATED = {"max": "gt", "gt": "max", "min": "lt", "lt": "min"}


def _adopt(
    observed: dict, thresholds: dict, report: ExperimentReport, keys: tuple[str, ...],
    prefix: str = "", *, negate: bool = False,
) -> None:
    """Copy the observations ``keys`` of ``report`` into ``observed`` under
    ``prefix``, with the limits ``report`` sets on them into ``thresholds``.
    ``negate`` swaps each one-rule limit for its negation (``max`` with
    ``gt``, ``min`` with ``lt``), for a control that must fail."""
    for key in keys:
        observed[prefix + key] = report.observed[key]
        rules = report.thresholds.get(key)
        if rules is not None and negate:
            ((op, bound),) = rules.items()
            rules = {_NEGATED[op]: bound}
        if rules is not None:
            thresholds[prefix + key] = rules


# --- 1: exact structural identities -----------------------------------------


def _run_identities(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(0)
    trials = _scaled(1000, scale, 50)
    s_values = (0.0, 0.5, -0.5, 1.0, -1.0, 3.0)

    max_push = 0.0
    max_recursion = 0.0
    max_action = 0.0
    combo = 0
    for n in (0, 1, 2):
        for k in range(n, n + 4):
            levels = sample_levels(k + 1, trials, stream.block(combo))
            combo += 1
            for j in range(k + 1):
                push = project_vectors(levels[j + 1], j + 1, j) - levels[j]
                max_push = max(max_push, float(np.max(np.abs(push))))
            u_n = u_stat_arrays(levels, n, k)
            if n + 1 <= k:
                u_child = u_stat_arrays(levels, n + 1, k)
                folded = (u_child[:, 0::2] + u_child[:, 1::2]) / math.sqrt(2.0)
                max_recursion = max(max_recursion, float(np.max(np.abs(folded - u_n))))
            for s in s_values:
                g = make_gsk(s, k)
                lhs = project_vectors(levels[k + 1] * g.phases, k + 1, n)
                rhs = (levels[n] + 1j * s * u_n) / math.sqrt(1.0 + s * s)
                max_action = max(max_action, float(np.max(np.abs(lhs - rhs))))

    gen = stream.child(0).generator()
    max_roundtrip = 0.0
    for _ in range(min(trials, 100)):
        max_roundtrip = max(max_roundtrip, phi_roundtrip(sample_tree(5, gen)))

    single = verify_action_identity(1, 3, 1.0, min(trials, 100), stream.child(1))

    observed = {
        "max_pushforward_residual": max_push,
        "max_recursion_residual": max_recursion,
        "max_action_residual": max_action,
        "max_roundtrip_residual": max_roundtrip,
        "max_single_tree_residual": single.observed["max_residual"],
    }
    thresholds = {key: {"max": EXACT_TOL} for key in observed}
    parameters = {
        "levels_n": [0, 1, 2],
        "k_offsets": [0, 1, 2, 3],
        "s_values": list(s_values),
        "trials": trials,
    }
    return _finish("acceptance-identities", parameters, observed, thresholds, seed, started)


# --- 2: marginal laws at every level ----------------------------------------


def _run_marginals(seed: int, workers: int, scale: float) -> ExperimentReport:
    stream = RngStream(seed).child(1)
    return verify_marginals(3, _scaled(100_000, scale, MIN_SAMPLES), stream)


# --- 3: measure estimator against closed forms -------------------------------


def _run_estimator(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(2)
    samples = _scaled(100_000, scale, MIN_SAMPLES)
    gen = stream.child(0).generator()

    max_sigma = 0.0
    for i in range(10):
        level = i % 3
        width = 1 << level
        radii = gen.uniform(0.6, 1.8, size=width)
        centers = 0.7 * (gen.standard_normal(width) + 1j * gen.standard_normal(width))
        target = disk_product(level, centers, radii)
        g = random_element(level, gen)
        exact = float(np.prod([disk_mass(r, c) for r, c in zip(radii, centers)]))
        est = estimate_measure(
            acted_set(g, target), level + 1, samples, stream.child(1 + i), workers=workers
        )
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / samples)
        max_sigma = max(max_sigma, abs(est.estimate - exact) / se)

    observed = {"max_sigma": float(max_sigma)}
    thresholds = {"max_sigma": {"max": SIGMA_LIMIT}}
    parameters = {"pairs": 10, "samples": samples}
    return _finish("acceptance-estimator", parameters, observed, thresholds, seed, started)


# --- 4: convolution identity --------------------------------------------------


def _run_convolution(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(3)
    samples = _scaled(1_000_000, scale, MIN_SAMPLES)
    target = disk_product(0, 0.0, 1.0)

    a_values = (0.0, 1.0, -1.0, 2.0, -2.0)
    reports = [
        verify_convolution(target, a, samples, stream.child(i), workers=workers)
        for i, a in enumerate(a_values)
    ]
    worst = max(reports, key=lambda r: r.observed["sigma_difference"])
    max_anchor_dev = max(abs(r.observed["direct_estimate"] - _DISK_ANCHOR) for r in reports)

    anchor_tol = max(
        0.0025, SIGMA_LIMIT * math.sqrt(_DISK_ANCHOR * (1.0 - _DISK_ANCHOR) / samples)
    )
    observed = {
        "max_sigma": worst.observed["sigma_difference"],
        "max_anchor_deviation": float(max_anchor_dev),
        "anchor": _DISK_ANCHOR,
    }
    thresholds = {
        "max_sigma": worst.thresholds["sigma_difference"],
        "max_anchor_deviation": {"max": anchor_tol},
    }
    parameters = {"a_values": list(a_values), "samples": samples}
    return _finish("acceptance-convolution", parameters, observed, thresholds, seed, started)


# --- 5: conditional independence with a broken-control -----------------------


def _run_independence(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(4)
    samples = _scaled(100_000, scale, MIN_SAMPLES)
    target = disk_product(0, 0.0, 1.0)
    pinned = LevelVector(0, np.zeros(1, dtype=np.complex128))

    main = verify_conditional_independence(
        target, 1.0, 3, samples, stream.child(0), given=pinned, workers=workers
    )
    control = verify_conditional_independence(
        target,
        1.0,
        3,
        samples,
        stream.child(1),
        given=pinned,
        workers=workers,
        element_factory=lambda s, k: make_gsk(s, target.level),
    )

    observed, thresholds = {}, {}
    _adopt(observed, thresholds, main, ("max_marginal_sigma", "max_cell_sigma"))
    _adopt(observed, thresholds, control, ("max_cell_sigma",), "control_", negate=True)
    parameters = {"s": 1.0, "m": 3, "samples": samples, "given": "zero"}
    return _finish("acceptance-independence", parameters, observed, thresholds, seed, started)


# --- 6: uniform continuity ----------------------------------------------------


def _run_continuity(seed: int, workers: int, scale: float) -> ExperimentReport:
    stream = RngStream(seed).child(5)
    return verify_continuity(
        1.0,
        0.0 + 0.0j,
        0.1,
        6,
        _scaled(100_000, scale, MIN_SAMPLES),
        stream,
        pairs=20,
        workers=workers,
    )


# --- 7: whirly search within a runtime budget ---------------------------------


def _run_whirly(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(6)
    samples = _scaled(200_000, scale, MIN_SAMPLES)
    target = disk_product(0, 0.0, 1.0)

    main = whirly_search(
        target,
        0.5,
        samples,
        12,
        stream.child(0),
        z_samples=_scaled(200, scale, 20),
        inner_samples=_scaled(10_000, scale, MIN_SAMPLES),
        workers=workers,
    )
    control = whirly_search(
        target,
        0.5,
        max(MIN_SAMPLES, samples // 10),
        4,
        stream.child(1),
        z_samples=20,
        inner_samples=_scaled(2_000, scale, MIN_SAMPLES),
        workers=workers,
        element_factory=lambda s, k: identity(k + 1),
    )

    observed, thresholds = {}, {}
    _adopt(observed, thresholds, main, ("found", "union_margin", "found_n", "found_m"))
    # A flag rather than the time itself keeps the report deterministic.
    observed["search_within_budget"] = 1.0 if main.runtime_ms <= _SEARCH_BUDGET_MS else 0.0
    thresholds["search_within_budget"] = {"min": 1.0}
    _adopt(observed, thresholds, control, ("union_margin",), "control_", negate=True)
    parameters = {"epsilon": 0.5, "samples": samples, "max_depth": 12}
    return _finish("acceptance-whirly", parameters, observed, thresholds, seed, started)


# --- 8: positivity of translated measures -------------------------------------


def _run_positivity(seed: int, workers: int, scale: float) -> ExperimentReport:
    stream = RngStream(seed).child(7)
    return positivity_scan(
        disk_product(0, 0.0, 1.0),
        -2.0,
        _scaled(200, scale, 20),
        _scaled(10_000, scale, MIN_SAMPLES),
        stream,
    )


# --- 9: sharpness of the scaling criterion ------------------------------------


def _run_sharpness(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(8)
    reps = _scaled(200, scale, 10)
    dims = 10_000

    wide = sharpness_check(2.0, 1.0, dims, reps, stream.child(0))
    tight = sharpness_check(math.sqrt(2.0), 1.0, dims, reps, stream.child(1))

    observed, thresholds = {}, {}
    keys = ("inverse_mean", "inverse_dev", "combined_dev", "criterion_gap")
    for prefix, report in (("wide_", wide), ("tight_", tight)):
        _adopt(observed, thresholds, report, keys, prefix)
    thresholds["tight_criterion_gap"] = {"max": 1e-12}
    parameters = {"dims": dims, "reps": reps, "pairs": [[2.0, 1.0], ["sqrt2", 1.0]]}
    return _finish("acceptance-sharpness", parameters, observed, thresholds, seed, started)


# --- 10: engineering guarantees ------------------------------------------------


def _run_engineering(seed: int, workers: int, scale: float) -> ExperimentReport:
    started = time.perf_counter()
    stream = RngStream(seed).child(9)
    target = disk_product(0, 0.0, 1.0)
    samples = _scaled(20_000, scale, MIN_SAMPLES)

    serial = estimate_measure(target, 2, samples, stream.child(0), workers=1)
    threaded = estimate_measure(target, 2, samples, stream.child(0), workers=4)
    json_identical = serial.to_json() == threaded.to_json()

    conv_serial = verify_convolution(target, 1.0, samples, stream.child(1), workers=1)
    conv_threaded = verify_convolution(target, 1.0, samples, stream.child(1), workers=4)
    report_identical = conv_serial.to_json() == conv_threaded.to_json()

    truth = disk_mass(1.0)
    runs = _scaled(200, scale, 50)

    def coverage_block(gen: np.random.Generator, count: int) -> np.ndarray:
        hits = int(np.count_nonzero(target.indicator_at(standard_complex(gen, (count, 1)))))
        lo, hi = wilson_interval(hits, count)
        return np.array([lo <= truth <= hi], dtype=np.int64)

    covered = int(tally_blocks(coverage_block, runs * 2000, stream.child(2), block_size=2000)[0])

    observed = {
        "json_identical": 1.0 if json_identical else 0.0,
        "report_identical": 1.0 if report_identical else 0.0,
        "coverage_fraction": covered / runs,
    }
    thresholds = {
        "json_identical": {"min": 1.0},
        "report_identical": {"min": 1.0},
        "coverage_fraction": {"min": 0.90},
    }
    parameters = {"samples": samples, "coverage_runs": runs, "coverage_samples": 2000}
    return _finish("acceptance-engineering", parameters, observed, thresholds, seed, started)


CRITERIA: tuple[Criterion, ...] = (
    Criterion("identities", "exact tree, innovation, and action identities", _run_identities),
    Criterion("marginals", "level and innovation marginals are standard", _run_marginals),
    Criterion("estimator", "measure estimator matches closed-form disk masses", _run_estimator),
    Criterion("convolution", "translated-set average returns the base measure", _run_convolution),
    Criterion("independence", "whirled events are conditionally independent", _run_independence),
    Criterion("continuity", "nearby elements move cylinder measures little", _run_continuity),
    Criterion("whirly", "whirling elements drive a small set near full measure", _run_whirly),
    Criterion("positivity", "translated measures stay positive across the fiber", _run_positivity),
    Criterion("sharpness", "scaling statistic separates matched from mismatched", _run_sharpness),
    Criterion("engineering", "worker-count invariance and interval coverage", _run_engineering),
)


def run_all(
    seed: int = ACCEPTANCE_SEED, workers: int = 1, scale: float = 1.0
) -> list[tuple[Criterion, ExperimentReport]]:
    """Run every criterion in order and pair it with its report."""
    return [(c, c.run(seed=seed, workers=workers, scale=scale)) for c in CRITERIA]
