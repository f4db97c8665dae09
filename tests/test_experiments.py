"""Verifier experiments: happy paths at reduced samples, negative controls
that must fail, and report mechanics."""

import json
import math

import numpy as np
import pytest

import whirly_lab.experiments as experiments_module
import whirly_lab.montecarlo as montecarlo_module
import whirly_lab.tree as tree_module
from whirly_lab import (
    ExperimentReport,
    LevelVector,
    RngStream,
    acted_set,
    affine_image,
    boolean_combine,
    default_block_size,
    disk_mass,
    disk_product,
    estimate_joint_events,
    identity,
    make_gsk,
    positivity_scan,
    random_element,
    sharpness_check,
    standard_complex,
    verify_action_identity,
    verify_conditional_independence,
    verify_continuity,
    verify_convolution,
    verify_marginals,
    whirly_search,
)

UNIT_DISK = disk_product(0, 0j, 1.0)


def bad_sampler(depth, count, gen):
    """Innovation recursion with the sqrt(2) renormalization dropped."""
    levels = [standard_complex(gen, (count, 1))]
    for n in range(depth):
        parent = levels[n]
        innovation = standard_complex(gen, parent.shape)
        nxt = np.empty((count, parent.shape[1] * 2), dtype=np.complex128)
        nxt[:, 0::2] = parent + innovation
        nxt[:, 1::2] = parent - innovation
        levels.append(nxt)
    return levels


class TestReportMechanics:
    def test_evaluate_ops(self):
        observed = {"x": 2.0}
        assert ExperimentReport.evaluate(observed, {"x": {"max": 2.0}})
        assert not ExperimentReport.evaluate(observed, {"x": {"lt": 2.0}})
        assert ExperimentReport.evaluate(observed, {"x": {"min": 2.0}})
        assert not ExperimentReport.evaluate(observed, {"x": {"gt": 2.0}})
        with pytest.raises(ValueError):
            ExperimentReport.evaluate(observed, {"x": {"near": 2.0}})

    def test_pass_flag_is_recomputable(self):
        report = verify_action_identity(0, 1, 0.5, 10, RngStream(101))
        assert report.passed == ExperimentReport.evaluate(report.observed, report.thresholds)

    def test_json_isolates_runtime(self):
        report = verify_action_identity(0, 1, 0.5, 10, RngStream(102))
        payload = report.json_dict()
        assert report.runtime_ms >= 0
        assert "runtime_ms" not in payload
        assert payload["pass"] is True
        assert payload["seed"] == 102
        assert json.loads(report.to_json()) == payload

    def test_reports_are_deterministic(self):
        a = verify_marginals(1, 4000, RngStream(103))
        b = verify_marginals(1, 4000, RngStream(103))
        assert a.to_json() == b.to_json()


class TestMarginals:
    def test_passes_on_the_real_sampler(self):
        report = verify_marginals(1, 20_000, RngStream(104))
        assert report.passed

    def test_catches_missing_renormalization(self, monkeypatch):
        monkeypatch.setattr(experiments_module, "sample_levels", bad_sampler)
        report = verify_marginals(1, 5000, RngStream(105))
        assert not report.passed
        assert report.observed["max_second_moment_sigma"] > 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_marginals(9, 5000, RngStream(106))
        with pytest.raises(ValueError):
            verify_marginals(1, 50, RngStream(106))


class TestActionIdentity:
    def test_exact_for_various_strengths(self):
        for s in (0.0, -1.5, 2.0):
            report = verify_action_identity(1, 2, s, 25, RngStream(107))
            assert report.passed
            assert report.observed["max_residual"] < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_action_identity(3, 2, 1.0, 10, RngStream(108))
        with pytest.raises(ValueError):
            verify_action_identity(0, 0, 1.0, 0, RngStream(108))


class TestContinuity:
    def test_nearby_pairs_move_little(self):
        report = verify_continuity(1.0, 0j, 0.2, 3, 4000, RngStream(109), pairs=4)
        assert report.passed
        assert report.observed["max_pair_distance"] < report.observed["delta"]

    def test_far_pairs_break_the_bound(self):
        report = verify_continuity(
            1.0, 1.5 + 0j, 0.1, 4, 10_000, RngStream(110), pairs=6, pair_distance_factor=300.0
        )
        assert not report.passed
        assert report.observed["max_symdiff_clearance"] > 0.1

    def test_relaxed_delta_is_larger(self):
        tight = verify_continuity(1.0, 0j, 0.2, 2, 2000, RngStream(111), pairs=2)
        loose = verify_continuity(1.0, 0j, 0.2, 2, 2000, RngStream(111), pairs=2, relaxed_delta=True)
        ratio = loose.observed["delta"] / tight.observed["delta"]
        assert ratio == pytest.approx(math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_continuity(-1.0, 0j, 0.1, 2, 2000, RngStream(112))
        with pytest.raises(ValueError):
            verify_continuity(1.0, 0j, 1.5, 2, 2000, RngStream(112))


class TestConvolution:
    def test_identity_holds(self):
        for a in (0.0, -1.0):
            report = verify_convolution(UNIT_DISK, a, 30_000, RngStream(113))
            assert report.passed

    def test_both_routes_are_near_the_disk_mass(self):
        report = verify_convolution(UNIT_DISK, 2.0, 50_000, RngStream(114))
        assert report.observed["fubini_estimate"] == pytest.approx(0.3935, abs=0.01)
        assert report.observed["direct_estimate"] == pytest.approx(0.3935, abs=0.01)

    def test_oversized_level_is_refused_before_any_draw(self, monkeypatch):
        # 64 level-20 vectors, the smallest block, exceed the sampler budget.
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the budget")

        monkeypatch.setattr(RngStream, "generator", refuse)
        monkeypatch.setattr(RngStream, "block", refuse)
        with pytest.raises(ValueError, match="budget"):
            verify_convolution(disk_product(20, 0j, 1.5), 1.0, 1000, RngStream(116))


class TestConditionalIndependence:
    def test_whirled_events_factorize(self):
        report = verify_conditional_independence(
            UNIT_DISK, 1.0, 2, 30_000, RngStream(115), given=LevelVector(0, [0j])
        )
        assert report.passed
        assert report.observed["reference_marginal"] == pytest.approx(0.632, abs=0.02)

    def test_identical_events_fail_the_product_test(self):
        report = verify_conditional_independence(
            UNIT_DISK,
            1.0,
            3,
            30_000,
            RngStream(116),
            given=LevelVector(0, [0j]),
            element_factory=lambda s, k: make_gsk(s, 0),
        )
        assert not report.passed
        assert report.observed["max_cell_sigma"] > 10.0

    def test_oversized_level_is_refused_before_any_element(self):
        # The whirled family's blocks are sized for level 21, and 64 level-21
        # vectors, the smallest block, exceed the sampler budget.
        def no_element(s, k):
            raise AssertionError("built an element before checking the budget")

        with pytest.raises(ValueError, match="budget"):
            verify_conditional_independence(
                disk_product(20, 0j, 1.5), 1.0, 6, 1000, RngStream(117), element_factory=no_element
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_conditional_independence(UNIT_DISK, -1.0, 2, 1000, RngStream(117))
        with pytest.raises(ValueError):
            verify_conditional_independence(UNIT_DISK, 1.0, 7, 1000, RngStream(117))
        with pytest.raises(ValueError):
            verify_conditional_independence(
                UNIT_DISK, 1.0, 2, 1000, RngStream(117), given=LevelVector(1, [0j, 0j])
            )


class TestPositivity:
    def test_small_displacement_keeps_everything_positive(self):
        report = positivity_scan(UNIT_DISK, -0.5, 40, 2000, RngStream(118))
        assert report.passed
        assert report.observed["fraction_positive"] == 1.0

    def test_quantiles_are_monotone(self):
        report = positivity_scan(UNIT_DISK, -1.0, 40, 2000, RngStream(119))
        obs = report.observed
        assert obs["delta_at_50"] >= obs["delta_at_75"] >= obs["delta_at_87"] >= obs["delta_at_95"]

    def test_null_set_is_an_error(self):
        point = disk_product(0, 10.0 + 0j, 0.01)
        with pytest.raises(ValueError):
            positivity_scan(point, -2.0, 20, 2000, RngStream(120))

    @pytest.mark.parametrize(
        "target, scans",
        [
            (disk_product(1, [0.3 - 0.2j, -0.4j], 1.4), False),
            (affine_image(disk_product(1, [0.3 - 0.2j, -0.4j], 1.4), 1.5, 0.2), True),
        ],
    )
    def test_only_non_disk_targets_draw_inner_samples(self, monkeypatch, target, scans):
        # A disk product's hit counts come from one binomial draw: the only
        # level vectors drawn are the z and the base estimate's blocks.
        shapes, scanned, scan = [], [], []
        draw = tree_module.standard_complex

        def recording(gen, shape, out=None):
            shapes.append(tuple(shape))
            return draw(gen, shape, out)

        def spy(*args):
            # Move the scan's draws from shapes to scan.
            start = len(shapes)
            hits = scanned_hits(*args)
            scanned.append(args[0])
            scan.extend(shapes[start:])
            del shapes[start:]
            return hits

        scanned_hits = experiments_module._scanned_hits
        for module in (tree_module, montecarlo_module, experiments_module):
            monkeypatch.setattr(module, "standard_complex", recording)
        monkeypatch.setattr(experiments_module, "_scanned_hits", spy)
        z_samples, inner, width = 40, 2000, 1 << target.level
        report = positivity_scan(target, -1.0, z_samples, inner, RngStream(143))
        assert (shapes + scan).count((z_samples, width)) == 1
        assert scanned == ([target] if scans else [])
        blocks = scan[1:]
        assert bool(blocks) == scans
        if scans:
            assert scan[0] == (z_samples, width)
            assert all(s[1:] == (width,) for s in blocks)
            assert sum(s[0] for s in blocks) == inner
        base = [s for s in shapes if s != (z_samples, width)]
        assert all(len(s) == 2 for s in base)
        assert sum(s[0] for s in base) == inner
        assert 0.0 < report.observed["median_translated"] < 1.0


class TestTranslatedScan:
    """The fiber scan ``_scanned_hits``, and the exact measures of
    ``_fiber_scan`` and the binomial hit counts that replace it for disk
    products.

    The scan scores all 40 z on one tally of 2000 inner samples, a single
    block at levels 0 and 1; each count is binomial given its z, and the
    counts of different z share their draws.
    """

    Z_SAMPLES = 40
    INNER = 2000
    # Six sets of 40 z: 240 comparisons.  A two-sided 4.5-sigma limit on each
    # keeps the family-wise false-alarm rate under 240 * 6.8e-6 = 1.7e-3.
    SIGMA = 4.5

    @staticmethod
    def _disk(centers, radius):
        return disk_product((len(centers) - 1).bit_length(), np.asarray(centers), radius)

    @staticmethod
    def _disk_mass_product(target, a, zs):
        """Per-row ``prod disk_mass(s*r, |a*z + s*c|)``, ``s = sqrt(1 + a**2)``:
        the translated measures of a disk product, one entry at a time."""
        s = math.sqrt(1.0 + a * a)
        return np.array(
            [
                math.prod(disk_mass(s * r, abs(a * zi + s * c)) for zi, c, r in zip(z, target.centers, target.radii))
                for z in zs
            ]
        )

    def _sigmas(self, centers, radius, a, seed, *, exact=False):
        """Per-z deviation of the hit fraction from the closed form, in
        binomial standard errors.  The closed form is the disk-mass product,
        or with ``exact`` the measures of ``_fiber_scan`` on the same z."""
        target = self._disk(centers, radius)
        rng = RngStream(seed)
        hits = experiments_module._scanned_hits(target, a, self.Z_SAMPLES, self.INNER, rng)
        if exact:
            _, p, _ = experiments_module._fiber_scan(target, a, self.Z_SAMPLES, self.INNER, self.INNER, rng)
        else:
            zs = standard_complex(rng.child(1).generator(), (self.Z_SAMPLES, len(centers)))
            p = self._disk_mass_product(target, a, zs)
        return (hits / self.INNER - p) / np.sqrt(p * (1.0 - p) / self.INNER)

    def test_level_0_hits_follow_the_closed_form(self):
        # An off-center disk, so a flipped translation sign changes the law.
        sigmas = self._sigmas([0.6 - 0.4j], 1.5, -1.0, 130)
        assert np.max(np.abs(sigmas)) < self.SIGMA

    def test_level_1_hits_follow_the_closed_form(self):
        sigmas = self._sigmas([0.7 + 0.2j, -0.5 - 0.6j], 1.8, -0.8, 131)
        assert np.max(np.abs(sigmas)) < self.SIGMA

    def test_hits_follow_the_exact_measures_on_the_same_z(self):
        # Off-center disks and both signs of a: a flipped sign or a dropped
        # center term in the exact measures moves them by many sigma.
        for centers, radius, a, seed in (([0.6 - 0.4j], 1.5, 1.0, 133), ([0.7 + 0.2j, -0.5 - 0.6j], 1.8, -0.8, 134)):
            sigmas = self._sigmas(centers, radius, a, seed, exact=True)
            assert np.max(np.abs(sigmas)) < self.SIGMA

    @pytest.mark.parametrize("a", [-1.3, 0.7])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_exact_measures_are_the_disk_mass_product(self, level, a):
        gen = np.random.default_rng(135 + level)
        width = 1 << level
        target = disk_product(level, 0.6 * standard_complex(gen, (width,)), 0.8 + gen.random(width))
        rng = RngStream(135)
        _, exact, hits = experiments_module._fiber_scan(target, a, self.Z_SAMPLES, self.INNER, self.INNER, rng)
        assert hits is None
        zs = standard_complex(rng.child(1).generator(), (self.Z_SAMPLES, width))
        np.testing.assert_allclose(exact, self._disk_mass_product(target, a, zs), rtol=1e-12, atol=0.0)

    def test_binomial_hits_follow_the_scan_on_the_same_z(self):
        # Same z (rng.child(1)), independent inner draws: the scan's blocks of
        # rng.child(2) against the binomial draw on its generator, as
        # positivity_scan makes it.  Off-center disks and both signs of a, so
        # a wrong sign or center moves the law.
        for centers, radius, a, seed in (([0.6 - 0.4j], 1.5, 1.0, 141), ([0.7 + 0.2j, -0.5 - 0.6j], 1.8, -0.8, 142)):
            target = self._disk(centers, radius)
            rng = RngStream(seed)
            _, exact, _ = experiments_module._fiber_scan(target, a, self.Z_SAMPLES, self.INNER, self.INNER, rng)
            binomial = rng.child(2).generator().binomial(self.INNER, exact)
            scanned = experiments_module._scanned_hits(target, a, self.Z_SAMPLES, self.INNER, rng)
            p1, p2 = binomial / self.INNER, scanned / self.INNER
            se = np.sqrt(self.INNER * (p1 * (1.0 - p1) + p2 * (1.0 - p2)))
            sigmas = [experiments_module._sigma(float(d), float(e)) for d, e in zip(binomial - scanned, se)]
            assert np.max(np.abs(sigmas)) < self.SIGMA

    def test_every_z_is_counted_on_the_same_blocks(self, monkeypatch):
        # After the z, the scan draws blocks of default_block_size(level) level
        # vectors from rng.child(2), and every z is counted on all of them.
        shapes = []

        def recording(gen, shape, out=None):
            shapes.append(tuple(shape))
            return standard_complex(gen, shape, out)

        monkeypatch.setattr(experiments_module, "standard_complex", recording)
        z_samples, inner, a = 10, 70_000, -1.0
        scale = math.sqrt(1.0 + a * a)
        cases = [([0.6 - 0.4j], [65536, 4464]), ([0.7 + 0.2j, -0.5 - 0.6j], [32768, 32768, 4464])]
        for centers, counts in cases:
            shapes.clear()
            target = self._disk(centers, 1.5)
            width = 1 << target.level
            rng = RngStream(132)
            hits = experiments_module._scanned_hits(target, a, z_samples, inner, rng)
            plan = montecarlo_module.block_plan(inner, default_block_size(target.level))
            assert [count for _, count in plan] == counts
            assert shapes == [(z_samples, width)] + [(count, width) for count in counts]
            zs = standard_complex(rng.child(1).generator(), (z_samples, width))
            recount = np.zeros(z_samples, dtype=np.int64)
            for i, count in enumerate(counts):
                w = standard_complex(rng.child(2).block(i), (count, width))
                for j, z in enumerate(zs):
                    recount[j] += np.count_nonzero(target.indicator_at(tree_module._div_real(w - a * z, scale)))
            np.testing.assert_array_equal(hits, recount)

    def test_scan_blocks_are_budgeted_before_any_draw(self, monkeypatch):
        # 64 level-20 vectors, the smallest block, exceed the sampler budget.
        # The acted disk's base estimate draws one read per sample, so only
        # the fiber's own check refuses it.
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the budget")

        acted = acted_set(random_element(20, np.random.default_rng(145)), disk_product(0, 0j, 1.5))
        monkeypatch.setattr(RngStream, "generator", refuse)
        monkeypatch.setattr(RngStream, "block", refuse)
        for target in (boolean_combine("union", [disk_product(20, 0j, 1.5)]), acted):
            with pytest.raises(ValueError, match="budget"):
                experiments_module._fiber_scan(target, -1.0, 10, self.INNER, self.INNER, RngStream(145))


class TestWhirlySearch:
    def test_finds_inflating_elements(self):
        report = whirly_search(UNIT_DISK, 0.5, 10_000, 8, RngStream(121), z_samples=50, inner_samples=2000)
        assert report.passed
        assert report.observed["found"] == 1.0
        assert report.observed["union_margin"] > 0.5

    def test_union_curve_is_monotone_in_m(self):
        report = whirly_search(UNIT_DISK, 0.6, 8_000, 6, RngStream(122), z_samples=40, inner_samples=1500)
        n0 = int(report.observed["found_n"]) if report.observed["found"] else 0
        curve = [v for k, v in sorted(report.observed.items()) if k.startswith(f"union_n{n0}_m")]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_identity_elements_never_inflate(self):
        report = whirly_search(
            UNIT_DISK,
            0.5,
            5_000,
            4,
            RngStream(123),
            z_samples=20,
            inner_samples=1000,
            element_factory=lambda s, k: identity(k + 1),
        )
        assert not report.passed
        assert report.observed["union_margin"] < 0.45

    def test_later_base_levels_draw_the_same_union_law(self):
        # Each copy reads x_n0 and its own aggregated innovation, so the union
        # prefix of copies from bit n0 + 3 has the law of the one from bit n0.
        target = disk_product(1, [0.3 - 0.2j, -0.4j], 1.4)
        samples, m = 40_000, 5

        def prefixes(start: int, seed: int) -> np.ndarray:
            events = [acted_set(make_gsk(0.5, k), target) for k in range(start, start + m)]
            counts = np.asarray(estimate_joint_events(events, start + m, samples, RngStream(seed)).counts)
            codes = np.arange(counts.size)
            return np.array([counts[codes & ((1 << j) - 1) != 0].sum() for j in range(1, m + 1)]) / samples

        first, later = prefixes(1, 140), prefixes(4, 141)
        se = np.sqrt((first * (1.0 - first) + later * (1.0 - later)) / samples)
        assert np.all(np.abs(first - later) < 4.0 * se), (first, later)

    def test_union_curve_does_not_depend_on_the_constants(self):
        # Recorded while the constants phase still estimated disk targets by
        # Monte Carlo (delta 0.0 then, 4.4e-5 exact): the union search draws
        # innovations bit by bit from its own streams, so its curve is the same.
        report = whirly_search(UNIT_DISK, 0.3, 4000, 8, RngStream(136), z_samples=20, inner_samples=200)
        curve = {k: v for k, v in report.observed.items() if k.startswith("union_n0_m")}
        pinned = [0.3835, 0.47275, 0.528, 0.55625, 0.583, 0.6, 0.61425, 0.6255]
        assert curve == {f"union_n0_m{m}": v for m, v in enumerate(pinned, 1)}

    @pytest.mark.parametrize(
        "target, scans",
        [
            (disk_product(1, [0.3 - 0.2j, -0.4j], 1.4), False),
            (affine_image(UNIT_DISK, 1.5, 0.2), True),
            (boolean_combine("union", [UNIT_DISK, disk_product(0, 1.0, 0.8)]), True),
        ],
    )
    def test_only_non_disk_targets_scan_inner_samples(self, monkeypatch, target, scans):
        shapes, scanned, scan = [], [], []

        def recording(gen, shape, out=None):
            shapes.append(tuple(shape))
            return standard_complex(gen, shape, out)

        def spy(*args):
            start = len(shapes)
            hits = scanned_hits(*args)
            scanned.append(args[0])
            scan.extend(shapes[start:])
            return hits

        scanned_hits = experiments_module._scanned_hits
        monkeypatch.setattr(experiments_module, "standard_complex", recording)
        monkeypatch.setattr(experiments_module, "_scanned_hits", spy)
        report = whirly_search(target, 0.5, 2000, target.level + 3, RngStream(138), z_samples=20, inner_samples=300)
        width = 1 << target.level
        assert (20, width) in shapes
        blocks = scan[1:]
        assert scanned == ([target] if scans else [])
        assert bool(blocks) == scans
        assert sum(s[0] for s in blocks) == (300 if scans else 0)
        assert 0.0 < report.observed["delta"] < 1.0

    def test_tiny_exact_delta_gives_a_finite_union_length(self):
        # At epsilon 0.15 the translate of the unit disk sits about 6.7*|z|
        # away: exact delta 1.8e-25, far below 2**-53, where log(1 - delta) is 0.
        report = whirly_search(UNIT_DISK, 0.15, 200, 2, RngStream(137), z_samples=20, inner_samples=200)
        assert 0.0 < report.observed["delta"] < 1e-16
        assert 1.0 <= report.observed["m_theory"] < math.inf

    def test_subnormal_delta_leaves_the_union_length_open(self, monkeypatch):
        # A product of tail masses can be subnormal; the length then overflows
        # a float and the search runs every feasible length, as for delta 0.
        fiber_scan = experiments_module._fiber_scan

        def subnormal(*args):
            base, measures, hits = fiber_scan(*args)
            return base, np.full_like(measures, 1e-320), hits

        monkeypatch.setattr(experiments_module, "_fiber_scan", subnormal)
        report = whirly_search(UNIT_DISK, 0.5, 200, 2, RngStream(139), z_samples=20, inner_samples=200)
        assert report.observed["delta"] == 1e-320
        assert report.observed["m_theory"] == -1.0
        assert "union_n0_m2" in report.observed

    @pytest.mark.parametrize("target", [UNIT_DISK, affine_image(UNIT_DISK, 1.5, 0.2)])
    def test_delta_is_a_rank_of_the_fiber_measures(self, target):
        # The constants phase reads delta off _fiber_scan's measures at
        # a = -1/epsilon, on the same stream: rank min(int(sqrt(1-e/2)*z)+1, z).
        epsilon, z_samples, inner = 0.5, 30, 400
        report = whirly_search(target, epsilon, 2000, 3, RngStream(144), z_samples=z_samples, inner_samples=inner)
        _, measures, _ = experiments_module._fiber_scan(
            target, -1.0 / epsilon, z_samples, inner, inner, RngStream(144)
        )
        rank = min(int(math.sqrt(1.0 - epsilon / 2.0) * z_samples) + 1, z_samples)
        assert report.observed["delta"] == np.sort(measures)[::-1][rank - 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            whirly_search(UNIT_DISK, 1.5, 5000, 6, RngStream(124))
        with pytest.raises(ValueError):
            whirly_search(UNIT_DISK, 0.5, 5000, 0, RngStream(124))

        def no_element(s, k):
            raise AssertionError("built an element before checking the budget")

        for max_depth in (26, 30, 45):
            with pytest.raises(ValueError, match="budget"):
                whirly_search(UNIT_DISK, 0.5, 5000, max_depth, RngStream(124), element_factory=no_element)


class TestSharpness:
    def test_matched_coefficients_concentrate_at_one(self):
        report = sharpness_check(math.sqrt(2.0), 1.0, 4000, 50, RngStream(125))
        assert report.passed
        assert report.observed["inverse_mean"] == pytest.approx(1.0, abs=0.01)
        assert report.observed["criterion_gap"] < 1e-12

    def test_mismatched_coefficients_report_their_gap(self):
        report = sharpness_check(2.0, 1.0, 4000, 50, RngStream(126))
        assert report.passed
        assert report.observed["inverse_mean"] == pytest.approx(math.sqrt(2.0) / 2.0, abs=0.01)
        assert report.observed["criterion_gap"] == pytest.approx(2.0)

    def test_mis_scaled_normals_fail(self, monkeypatch):
        # The check reads the lab's own normal source, so a sampler whose
        # normals are 10% too wide moves both RMS statistics past their limits.
        def wide(gen, shape, out=None):
            return 1.1 * standard_complex(gen, shape, out)

        monkeypatch.setattr(experiments_module, "standard_complex", wide)
        report = sharpness_check(2.0, 1.0, 10_000, 20, RngStream(128))
        assert not report.passed
        assert report.observed["inverse_dev"] > 0.01

    def test_draws_are_two_standard_normal_blocks(self):
        # 11 * 1001 is odd, so y starts at the imaginary part of a complex
        # value; the halves still equal two standard_normal calls.
        a, b, samples, dims = 2.0, 1.0, 11, 1001
        report = sharpness_check(a, b, dims, samples, RngStream(129))
        gen = RngStream(129).generator()
        x = gen.standard_normal((samples, dims))
        y = gen.standard_normal((samples, dims))
        combined = np.sqrt(np.mean((a * x + b * y) ** 2, axis=1))
        inverse = np.sqrt(np.mean(((x - b * y) / a) ** 2, axis=1))
        assert report.observed["combined_mean"] == float(combined.mean())
        assert report.observed["inverse_mean"] == float(inverse.mean())
        assert report.observed["inverse_spread"] == float(inverse.std())

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpness_check(0.0, 1.0, 4000, 50, RngStream(127))
        with pytest.raises(ValueError):
            sharpness_check(1.0, 1.0, 100, 50, RngStream(127))
