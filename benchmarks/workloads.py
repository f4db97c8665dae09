"""The benchmark's workloads, their correctness checks and the determinism probe.

Each workload is a closed loop with one client: a pass issues the workload's
experiment calls one after another, each waiting for the previous verdict, the
way a researcher waits on ``whirly-lab suite`` or a ``verify-*`` command.
Calls reach the package through module attributes at call time
(``experiments.whirly_search``), so a tracer that rebinds them sees every call.

A call's check lists the ways its output breaks a property that every correct
implementation has at any seed: estimates near a closed form, probabilities in
[0, 1], a monotone union curve.  The experiments' own pinned 3-sigma verdicts
are reported separately; a verdict that does not pass is not a failure.  No
check compares against stored hit counts, because changes that alter the
random draws on purpose must still pass.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, stats

import whirly_lab.experiments as experiments
import whirly_lab.group as group
import whirly_lab.montecarlo as montecarlo
from whirly_lab.experiments import ExperimentReport
from whirly_lab.montecarlo import JointTable
from whirly_lab.rng import RngStream
from whirly_lab.sets import acted_set, disk_product

# Deviation from a closed form, in standard errors, beyond which an estimate
# counts as wrong.  At 6 sigma a correct program trips one check with
# probability about 2e-9, so the thousands of checks in a series of runs stay
# clear of false alarms while a broken sampler or set is still caught.
CHECK_SIGMA = 6.0

# Keys whose values are wall-clock times and so differ between identical runs.
RUNTIME_KEYS = ("runtime_ms", "search_runtime_ms")


def nproc() -> int:
    """CPUs this process may run on, as the ``nproc`` command reports."""
    return len(os.sched_getaffinity(0))


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index`` of a run seeded with ``seed``."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def disk_mass(radius: float, offset: float = 0.0) -> float:
    """Closed-form mass of a disk under a standard complex Gaussian."""
    if offset == 0.0:
        return -math.expm1(-0.5 * radius * radius)
    return float(stats.ncx2.cdf(radius * radius, 2, offset * offset))


def whirled_union_mass(m: int, s: float) -> float:
    """Measure of the union of ``g(s, k) . D`` for ``k = 0 .. m-1``, ``D`` the
    unit disk at level 0.

    By the action identity, tree ``x`` lies in ``g(s, k) . D`` when
    ``|x_0 - i*s*U_k| < sqrt(1+s^2)``, with ``U_k`` i.i.d. standard and
    independent of the root ``x_0``.  Given ``|x_0| = r``, each event has
    probability ``q(r) = P(|U + i*x_0/s| < sqrt(1+s^2)/s)``, so the union has
    ``E[1 - (1 - q(|x_0|))^m]``, a one-dimensional integral over the root.
    """
    reach = math.sqrt(1.0 + s * s) / s

    def integrand(r: float) -> float:
        q = disk_mass(reach, r / s)
        return r * math.exp(-0.5 * r * r) * (1.0 - (1.0 - q) ** m)

    return integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12)[0]


def canonical(obj) -> str:
    """JSON of a report or estimate with the wall-clock fields removed."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in RUNTIME_KEYS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(obj.json_dict()), sort_keys=True)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _near(problems: list[str], label: str, estimate: float, exact: float, samples: int) -> None:
    se = math.sqrt(exact * (1.0 - exact) / samples)
    if not abs(estimate - exact) <= CHECK_SIGMA * se:
        problems.append(f"{label}={estimate:.6g} is over {CHECK_SIGMA:g} sigma from {exact:.6g}")


def _unit(problems: list[str], label: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        problems.append(f"{label}={value!r} is not a probability")


def _report_problems(report: ExperimentReport) -> list[str]:
    problems = []
    if report.passed != ExperimentReport.evaluate(report.observed, report.thresholds):
        problems.append("pass flag disagrees with the report's own thresholds")
    for key, value in report.observed.items():
        if not math.isfinite(value):
            problems.append(f"{key}={value!r} is not finite")
    return problems


def _union_curves(observed: dict) -> dict[int, list[float]]:
    curves: dict[int, dict[int, float]] = {}
    for key, value in observed.items():
        if key.startswith("union_n"):
            n, m = key[len("union_n"):].split("_m")
            curves.setdefault(int(n), {})[int(m)] = value
    return {n: [c[m] for m in sorted(c)] for n, c in sorted(curves.items())}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One experiment call of a workload."""

    name: str
    run: Callable[[int], ExperimentReport | JointTable]
    samples: int
    check: Callable[[ExperimentReport | JointTable], list[str]]
    verdict: Callable[[ExperimentReport | JointTable], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    calls: tuple[Call, ...]
    # Per-layer metrics that must be non-zero in a traced run.
    expected: tuple[str, ...]

    @property
    def samples(self) -> int:
        """Monte Carlo realizations one pass states it judges."""
        return sum(c.samples for c in self.calls)


def _sized(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def _passed(report: ExperimentReport) -> bool:
    return report.passed


_COMMON = (
    "tree.sample_levels.busy_s",
    "tree.standard_complex.busy_s",
    "tree.normals_per_sample",
    "tree.values_per_sample",
    "tree.read_share",
    "sets.rows",
    "montecarlo.tally.busy_s",
    "montecarlo.blocks",
    "montecarlo.wilson.calls",
    "montecarlo.estimate_measure.busy_s",
    "rng.generators",
    "rng.busy_s",
)


def whirl_deep(scale: float = 1.0) -> Workload:
    """The ``whirly`` criterion's search and identity control, and a joint
    table of the whirled disks at every bit of depth-12 trees; one worker."""
    eps = 0.5
    samples = _sized(2048, scale, 100)
    control_samples = max(100, samples // 10)
    # 200 scanned z keep the constants phase's union length m_theory far above
    # the depth cap at every seed (20 z let it fall to 7 at some seeds), so
    # every pass samples depth-12 trees and does the same work.
    z_samples = 200
    inner = _sized(1000, scale, 100)
    control_inner = _sized(200, scale, 100)
    deep_samples = _sized(2048, scale, 100)
    target = disk_product(0, 0.0, 1.0)
    mass = disk_mass(1.0)
    # The search stops its union curve at the first m that clears 1 - eps, so
    # its report reads only the shallow bits.  Event k of this family reads the
    # root and the level-k innovations, so the table covers every level.
    whirls = [acted_set(group.make_gsk(eps, k), target) for k in range(12)]

    def search(seed: int) -> ExperimentReport:
        return experiments.whirly_search(
            target, eps, samples, 12, RngStream(seed).child(6).child(0),
            z_samples=z_samples, inner_samples=inner, workers=1,
        )

    def control(seed: int) -> ExperimentReport:
        return experiments.whirly_search(
            target, eps, control_samples, 4, RngStream(seed).child(6).child(1),
            z_samples=z_samples, inner_samples=control_inner, workers=1,
            element_factory=lambda s, k: group.identity(k + 1),
        )

    def deep_levels(seed: int) -> JointTable:
        return montecarlo.estimate_joint_events(
            whirls, 12, deep_samples, RngStream(seed).child(6).child(2), workers=1
        )

    def check_deep(t: JointTable) -> list[str]:
        # Every event has the mass of K, and every three events have the
        # whirled union mass, whichever bits they read.
        p = []
        counts = np.asarray(t.counts)
        if counts.sum() != t.samples:
            p.append(f"joint table counts sum to {counts.sum()}, not {t.samples}")
        codes = np.arange(counts.size)
        three = whirled_union_mass(3, eps)
        for k in range(12):
            _near(p, f"event k={k}", counts[(codes >> k) & 1 == 1].sum() / t.samples, mass, t.samples)
        for k in range(10):
            union = counts[codes & (0b111 << k) != 0].sum() / t.samples
            _near(p, f"union of events k={k}..{k + 2}", union, three, t.samples)
        return p

    def check_search(r: ExperimentReport) -> list[str]:
        p = _report_problems(r)
        _near(p, "base_measure", r.observed["base_measure"], mass, max(inner, samples // 10))
        _unit(p, "delta", r.observed["delta"])
        curves = _union_curves(r.observed)
        for n, curve in curves.items():
            for v in curve:
                _unit(p, f"union_n{n}", v)
            if any(b < a for a, b in zip(curve, curve[1:])):
                p.append(f"union curve at n={n} is not monotone")
        if 0 not in curves:
            p.append("union curve at n=0 is missing")
        for m, v in enumerate(curves.get(0, ()), 1):
            _near(p, f"union_n0_m{m}", v, whirled_union_mass(m, eps), samples)
        return p

    def check_control(r: ExperimentReport) -> list[str]:
        p = _report_problems(r)
        _near(p, "base_measure", r.observed["base_measure"], mass, max(control_inner, control_samples // 10))
        # Identity elements leave K unchanged, so every union is K itself.
        for n, curve in _union_curves(r.observed).items():
            for m, v in enumerate(curve, 1):
                _near(p, f"union_n{n}_m{m}", v, mass, control_samples)
        return p

    return Workload(
        name="whirl-deep",
        workers=1,
        calls=(
            Call("whirly_search", search, samples, check_search, _passed),
            Call("whirly_search", control, control_samples, check_control,
                 lambda r: r.observed["union_margin"] <= 1.0 - eps),
            Call("estimate_joint_events", deep_levels, deep_samples, check_deep, lambda t: True),
        ),
        expected=_COMMON + (
            "tree.project_vectors.busy_s",
            "sets.acted.busy_s",
            "montecarlo.block_p50_ms",
            "montecarlo.parallel_efficiency",
            "montecarlo.estimate_joint_events.busy_s",
            "group.calls",
            "experiments.whirly_search.busy_s",
            "experiments.self_s",
        ),
    )


def cylinder_mix(scale: float = 1.0) -> Workload:
    """Continuity and conditional independence on shallow trees, ``nproc`` workers."""
    workers = nproc()
    eps = 0.1
    pairs = 1
    samples = _sized(100_000, scale, 100)
    indep_samples = _sized(100_000, scale, 100)
    radius, s, m = 1.5, 1.0, 4
    target = disk_product(2, 0.0, radius)

    def continuity(seed: int) -> ExperimentReport:
        return experiments.verify_continuity(
            1.0, 0.0 + 0.0j, eps, 6, samples, RngStream(seed).child(5), pairs=pairs, workers=workers
        )

    def independence(seed: int) -> ExperimentReport:
        return experiments.verify_conditional_independence(
            target, s, m, indep_samples, RngStream(seed).child(4), workers=workers
        )

    def check_continuity(r: ExperimentReport) -> list[str]:
        p = _report_problems(r)
        o = r.observed
        if not o["annulus_mass"] <= eps / 3.0:
            p.append(f"annulus_mass={o['annulus_mass']!r} exceeds eps/3")
        if not math.isclose(o["delta"], o["band_half_width"] * math.sqrt(eps / 6.0), rel_tol=1e-12):
            p.append("delta does not follow from the band half-width")
        if not o["max_pair_distance"] <= o["delta"]:
            p.append("a pair is farther apart than delta")
        _unit(p, "max_symdiff_estimate", o["max_symdiff_estimate"])
        if not o["max_symdiff_clearance"] >= o["max_symdiff_estimate"]:
            p.append("clearance is below the estimate")
        # Annulus plus crossing mass bounds the symmetric difference by 2*eps/3.
        bound = 2.0 * eps / 3.0
        limit = bound + CHECK_SIGMA * math.sqrt(bound * (1.0 - bound) / samples)
        if not o["max_symdiff_estimate"] <= limit:
            p.append(f"max_symdiff_estimate={o['max_symdiff_estimate']!r} is above {limit:.6g}")
        return p

    def check_independence(r: ExperimentReport) -> list[str]:
        p = _report_problems(r)
        o = r.observed
        # Given the level vector z, each whirled event and the reference set have
        # measure prod_i P(|U + i z_i/s| < radius*sqrt(1+s^2)/s) for standard U.
        given = [complex(re, im) for re, im in r.parameters["given"]]
        reach = radius * math.sqrt(1.0 + s * s) / s
        exact = math.prod(disk_mass(reach, abs(z) / s) for z in given)
        for key in ("reference_marginal", "min_marginal", "max_marginal"):
            _near(p, key, o[key], exact, indep_samples)
        if not o["min_marginal"] <= o["max_marginal"]:
            p.append("min_marginal exceeds max_marginal")
        return p

    return Workload(
        name="cylinder-mix",
        workers=workers,
        calls=(
            Call("verify_continuity", continuity, pairs * samples, check_continuity, _passed),
            Call("verify_conditional_independence", independence, indep_samples, check_independence, _passed),
        ),
        expected=_COMMON + (
            "tree.conditional_levels.busy_s",
            "tree.project_vectors.busy_s",
            "sets.acted.busy_s",
            "sets.union.busy_s",
            "sets.affine.busy_s",
            "sets.leaf_evals_per_row",
            "sets.union.leaf_evals_per_row",
            "montecarlo.block_p50_ms",
            "montecarlo.parallel_efficiency",
            "montecarlo.estimate_joint_events.busy_s",
            "group.calls",
            "experiments.verify_continuity.busy_s",
            "experiments.verify_conditional_independence.busy_s",
            "experiments.self_s",
        ),
    )


def fiber_scan(scale: float = 1.0) -> Workload:
    """Translated-measure scan and convolution identity on direct level draws, one worker."""
    z_samples = _sized(500, scale, 10)
    inner = _sized(10_000, scale, 100)
    samples = _sized(500_000, scale, 100)
    a_values = (1.0, -2.0)
    a_scan = -2.0
    scan_target = disk_product(0, 0.0, 1.0)
    conv_target = disk_product(1, 0.0, 1.0)
    mass = disk_mass(1.0)
    reach = math.sqrt(1.0 + a_scan * a_scan)

    def translated_quantile(q: float) -> float:
        """Population ``q``-quantile of the translated measure over ``z``.

        At ``z`` the measure is ``disk_mass(reach, |a z|)``, which falls as
        ``|z|`` grows, and ``P(|z| >= t) = exp(-t^2/2)``; so the ``q``-quantile
        is the measure at ``|z| = sqrt(-2 ln q)``.
        """
        if q >= 1.0:
            return disk_mass(reach)
        if q <= 0.0:
            return 0.0
        return disk_mass(reach, abs(a_scan) * math.sqrt(-2.0 * math.log(q)))

    def scan(seed: int) -> ExperimentReport:
        return experiments.positivity_scan(scan_target, a_scan, z_samples, inner, RngStream(seed).child(7))

    def convolution(i: int, a: float) -> Callable[[int], ExperimentReport]:
        def run(seed: int) -> ExperimentReport:
            return experiments.verify_convolution(conv_target, a, samples, RngStream(seed).child(3).child(i), workers=1)

        return run

    def check_scan(r: ExperimentReport) -> list[str]:
        p = _report_problems(r)
        o = r.observed
        _near(p, "base_measure", o["base_measure"], mass, inner)
        _unit(p, "fraction_positive", o["fraction_positive"])
        ladder = [o["min_translated"], o["delta_at_95"], o["delta_at_87"], o["delta_at_75"], o["delta_at_50"]]
        for v in ladder:
            _unit(p, "translated measure", v)
        if any(b < a for a, b in zip(ladder, ladder[1:])):
            p.append("translated-measure quantiles are out of order")
        if o["median_translated"] != o["delta_at_50"]:
            p.append("median_translated differs from delta_at_50")
        # A sample quantile at level q of z_samples values has its level within
        # q +- 6 sigma of the order-statistic law, and each measure is within
        # 6 binomial sigma of the exact one.
        inner_slack = CHECK_SIGMA * 0.5 / math.sqrt(inner)
        for key, frac in (("delta_at_50", 0.5), ("delta_at_87", math.sqrt(0.75))):
            q = 1.0 - frac
            half = CHECK_SIGMA * math.sqrt(q * (1.0 - q) / z_samples)
            low = translated_quantile(q - half) - inner_slack
            high = translated_quantile(q + half) + inner_slack
            if not low <= o[key] <= high:
                p.append(f"{key}={o[key]:.6g} is outside [{low:.6g}, {high:.6g}]")
        return p

    def check_convolution(r: ExperimentReport) -> list[str]:
        p = _report_problems(r)
        o = r.observed
        # Both sides estimate the measure of K, a product of two unit disks.
        for key in ("fubini_estimate", "direct_estimate"):
            _near(p, key, o[key], mass * mass, samples)
        if not math.isclose(o["difference"], abs(o["fubini_estimate"] - o["direct_estimate"]), abs_tol=1e-15):
            p.append("difference does not match the two estimates")
        if not o["combined_se"] > 0.0:
            p.append("combined_se is not positive")
        return p

    calls = [Call("positivity_scan", scan, z_samples * inner, check_scan, _passed)]
    for i, a in enumerate(a_values):
        calls.append(Call("verify_convolution", convolution(i, a), samples, check_convolution, _passed))
    return Workload(
        name="fiber-scan",
        workers=1,
        calls=tuple(calls),
        expected=_COMMON + (
            "sets.disk.busy_s",
            "montecarlo.wilson.busy_s",
            "experiments.positivity_scan.busy_s",
            "experiments.verify_convolution.busy_s",
            "experiments.self_s",
        ),
    )


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "whirl-deep": whirl_deep,
    "cylinder-mix": cylinder_mix,
    "fiber-scan": fiber_scan,
}


def build(name: str, scale: float = 1.0) -> Workload:
    """Build a workload's sets and calls; ``scale`` shrinks sample counts."""
    return WORKLOADS[name](scale)


# ---------------------------------------------------------------------------
# determinism probe
# ---------------------------------------------------------------------------


def determinism_probe(seed: int, workers: int) -> list[str]:
    """Run a small estimate, a small joint table and a small report with one
    worker and with ``workers``; list every difference in their JSON.

    Sizes give each call four blocks of at most a few MB, so the probe adds
    little to a workload's peak memory.
    """
    disk = disk_product(1, 0.0, 1.0)
    events = [acted_set(group.make_gsk(0.5, k), disk_product(0, 0.0, 1.0)) for k in (0, 1)]
    stream = RngStream(seed).child(9)

    def outputs(w: int) -> dict:
        return {
            "estimate": montecarlo.estimate_measure(disk, 1, 200_000, stream.child(0), workers=w),
            "joint": montecarlo.estimate_joint_events(events, 2, 200_000, stream.child(1), workers=w),
            "report": experiments.whirly_search(
                disk_product(0, 0.0, 1.0), 0.5, 200_000, 2, stream.child(2),
                z_samples=10, inner_samples=100, workers=w,
            ),
        }

    try:
        serial, sharded = outputs(1), outputs(workers)
    except Exception as exc:  # a raising call is a failed probe, reported by the caller
        return [f"{type(exc).__name__}: {exc}"]
    problems = [
        f"{key} differs between 1 and {workers} workers"
        for key in serial
        if canonical(serial[key]) != canonical(sharded[key])
    ]
    table = serial["joint"]
    if sum(table.counts) != table.samples:
        problems.append(f"joint table counts sum to {sum(table.counts)}, not {table.samples}")
    return problems
