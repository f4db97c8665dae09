"""Tree construction, projections, innovations, and their exact identities."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whirly_lab.tree as tree_module
from whirly_lab import (
    ComplexGaussianConvention,
    DepthMismatchError,
    DyadicPath,
    LevelMismatchError,
    LevelVector,
    RngStream,
    TreeSample,
    as_path,
    conditional_levels,
    disk_mass,
    innovations,
    phi_roundtrip,
    project,
    project_vectors,
    sample_conditional,
    sample_levels,
    sample_tree,
    standard_complex,
    tree_from_innovations,
    u_stat,
    u_stat_arrays,
    u_stat_vector,
)

SQRT2 = math.sqrt(2.0)


class TestDyadicPath:
    def test_index_orders_paths_lexicographically(self):
        assert DyadicPath((0, 0)).index == 0
        assert DyadicPath((0, 1)).index == 1
        assert DyadicPath((1, 0)).index == 2
        assert DyadicPath((1, 1)).index == 3

    def test_children_sit_at_doubled_indices(self):
        parent = DyadicPath.from_index(3, 5)
        assert parent.child(0).index == 10
        assert parent.child(1).index == 11

    @given(st.integers(min_value=0, max_value=12), st.data())
    @settings(deadline=None, derandomize=True, max_examples=40)
    def test_from_index_roundtrip(self, length, data):
        index = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        path = DyadicPath.from_index(length, index)
        assert path.length == length
        assert path.index == index

    def test_prefix_truncates(self):
        path = as_path("1011")
        assert path.prefix(2) == as_path("10")
        assert str(path.prefix(0)) == "<root>"

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            DyadicPath((0, 2))
        with pytest.raises(ValueError):
            as_path("01x")

    def test_from_index_range_checked(self):
        with pytest.raises(ValueError):
            DyadicPath.from_index(2, 4)


class TestSampling:
    def test_levels_have_dyadic_widths(self):
        levels = sample_levels(4, 7, RngStream(3))
        assert [a.shape for a in levels] == [(7, 1 << n) for n in range(5)]

    def test_same_stream_reproduces_draws(self):
        a = sample_levels(3, 5, RngStream(9, 2))
        b = sample_levels(3, 5, RngStream(9, 2))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_standard_complex_pairs_consecutive_normals(self):
        draws = standard_complex(RngStream(8).generator(), (3, 2))
        parts = RngStream(8).generator().standard_normal((3, 2, 2))
        np.testing.assert_array_equal(draws.real, parts[..., 0])
        np.testing.assert_array_equal(draws.imag, parts[..., 1])

    @pytest.mark.parametrize("shape", [(7,), (5, 4), (3, 6, 2)], ids=["n", "count-w", "count-inner-w"])
    def test_standard_complex_into_out_is_the_fresh_draw(self, shape):
        gen = RngStream(12).generator()
        fresh = standard_complex(gen, shape)
        after_fresh = gen.standard_normal()
        out = np.full(shape, np.nan, dtype=np.complex128)
        gen = RngStream(12).generator()
        assert standard_complex(gen, shape, out) is out
        assert out.tobytes() == fresh.tobytes()
        # The generator is left where the fresh draw leaves it.
        assert gen.standard_normal() == after_fresh

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((4, 6), dtype=np.complex128)[:, ::2],
            np.empty((4, 3), dtype=np.complex64),
            np.empty((4, 6), dtype=np.float64),
            np.empty((3, 4), dtype=np.complex128),
            np.empty((12,), dtype=np.complex128),
        ],
        ids=["strided", "complex64", "float64", "transposed-shape", "flat"],
    )
    def test_standard_complex_refuses_a_wrong_out(self, out):
        with pytest.raises(ValueError, match="out must be"):
            standard_complex(RngStream(12).generator(), (4, 3), out)

    def test_sample_levels_draws_its_leaves_into_out(self):
        out = np.empty((5, 8), dtype=np.complex128)
        levels = sample_levels(3, 5, RngStream(35), out)
        assert levels[3] is out
        for x, y in zip(levels, sample_levels(3, 5, RngStream(35))):
            np.testing.assert_array_equal(x, y)

    def test_oversized_requests_are_refused_before_any_draw(self, monkeypatch):
        def no_draw(gen, shape, out=None):
            raise AssertionError("drew before checking the budget")

        monkeypatch.setattr(tree_module, "standard_complex", no_draw)
        with pytest.raises(ValueError, match="budget"):
            sample_levels(30, 64, RngStream(1))
        with pytest.raises(ValueError, match="budget"):
            conditional_levels(np.zeros(1), 0, 30, 64, RngStream(1))
        with pytest.raises(ValueError, match="budget"):
            sample_tree(26, RngStream(1))

    def test_distinct_streams_decorrelate(self):
        a = sample_levels(0, 100, RngStream(9, 0))[0]
        b = sample_levels(0, 100, RngStream(9, 1))[0]
        assert np.max(np.abs(a - b)) > 1e-3

    def test_averaging_constraint_holds_by_construction(self):
        tree = sample_tree(6, RngStream(4))
        for n in range(6):
            parent = tree.level(n)
            child = tree.level(n + 1)
            recon = (child[0::2] + child[1::2]) / SQRT2
            np.testing.assert_allclose(recon, parent, atol=1e-12)

    def test_perturbed_leaf_is_rejected(self):
        tree = sample_tree(3, RngStream(5))
        levels = [lvl.copy() for lvl in tree.levels]
        levels[3][5] += 0.01
        with pytest.raises(ValueError, match="averaging"):
            TreeSample(levels)

    def test_from_leaves_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreeSample.from_leaves(np.ones(3, dtype=complex))

    def test_from_leaves_rebuilds_upper_levels(self):
        tree = sample_tree(4, RngStream(6))
        rebuilt = TreeSample.from_leaves(tree.level(4))
        for n in range(5):
            np.testing.assert_allclose(rebuilt.level(n), tree.level(n), atol=1e-12)


class TestProjection:
    def test_constant_leaves_scale_by_sqrt2_per_level(self):
        c = 0.3 - 0.7j
        tree = TreeSample.from_leaves(np.full(8, c))
        assert project(tree, 2).entries == pytest.approx(np.full(4, SQRT2 * c))
        assert project(tree, 0).entries[0] == pytest.approx(2.0 * SQRT2 * c)

    def test_projection_composes(self):
        x = standard_complex(RngStream(7).generator(), (10, 16))
        via = project_vectors(project_vectors(x, 4, 2), 2, 1)
        direct = project_vectors(x, 4, 1)
        np.testing.assert_allclose(via, direct, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_fold_matches_reshape_sum(self, k):
        x = standard_complex(RngStream(12).generator(), (500, 4 << k))
        scale = 2.0 ** (-0.5 * k)
        reference = x.reshape(500, 4, 1 << k).sum(axis=2) * scale
        folded = project_vectors(x, k + 2, 2)
        if k == 1:
            np.testing.assert_array_equal(folded, reference)
        else:
            # Summation order differs: bound the gap by the size of the terms.
            terms = np.abs(x).reshape(500, 4, 1 << k).sum(axis=2) * scale
            assert np.all(np.abs(folded - reference) <= 1e-15 * terms)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "draw-view"])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_flat_fold_is_the_sibling_fold_bit_for_bit(self, k, layout):
        draws = standard_complex(RngStream(16).generator(), (600, 4 << k))
        assert not draws.flags.owndata
        x = {"contiguous": draws.copy(), "strided": draws[::2], "draw-view": draws}[layout]
        expected = x
        for _ in range(k):
            expected = expected[:, 0::2] + expected[:, 1::2]
        expected = expected * 2.0 ** (-0.5 * k)
        folded = project_vectors(x, k + 2, 2)
        assert folded.shape == expected.shape
        np.testing.assert_array_equal(folded.view(np.uint64), expected.view(np.uint64))

    def test_refine_is_the_closed_form(self):
        gen = RngStream(13).generator()
        parent = standard_complex(gen, (300, 8))
        innovation = standard_complex(gen, (300, 8))
        child = tree_module.refine(parent, innovation)
        np.testing.assert_array_equal(child[:, 0::2], (parent + innovation) / SQRT2)
        np.testing.assert_array_equal(child[:, 1::2], (parent - innovation) / SQRT2)

    def test_real_divisor_scaling_matches_complex_division(self):
        # Magnitudes from subnormal to 1e300: refine and _coarsen must give the
        # bits of NumPy's complex / real, which a true division of the float64
        # view does not (checked below, so the test keeps its teeth).
        gen = RngStream(15).generator()

        def wide(shape):
            return standard_complex(gen, shape) * 10.0 ** gen.uniform(-312.0, 300.0, shape)

        parent = wide((300, 8))
        innovation = wide((300, 8))
        pairs = np.empty((300, 16), dtype=np.complex128)
        pairs[:, 0::2] = parent + innovation
        pairs[:, 1::2] = parent - innovation
        expected = pairs / SQRT2
        assert not np.array_equal((pairs.view(np.float64) / SQRT2).view(np.complex128), expected)

        assert np.array_equal(tree_module.refine(parent, innovation), expected)
        assert np.array_equal(tree_module._coarsen(pairs), (pairs[:, 0::2] + pairs[:, 1::2]) / SQRT2)
        assert np.array_equal(tree_module._coarsen(pairs[0]), (pairs[0, 0::2] + pairs[0, 1::2]) / SQRT2)

    def test_projecting_finer_is_an_error(self):
        x = np.ones((2, 2), dtype=complex)
        with pytest.raises(LevelMismatchError):
            project_vectors(x, 1, 2)
        with pytest.raises(LevelMismatchError):
            project_vectors(np.ones((2, 6), dtype=complex), 3, 1)
        tree = sample_tree(2, RngStream(8))
        with pytest.raises(DepthMismatchError):
            project(tree, 3)

    def test_level_vector_value_by_path(self):
        vec = LevelVector(2, [1, 2j, -1, -2j])
        assert vec.value("10") == -1
        with pytest.raises(LevelMismatchError):
            vec.value("0")


class TestInnovations:
    def test_u_stat_matches_hand_fold(self):
        tree = sample_tree(3, RngStream(10))
        child = tree.level(3)
        base = (child[0::2] - child[1::2]) / SQRT2
        np.testing.assert_allclose(u_stat_vector(tree, 2, 2), base, atol=1e-12)
        folded = (base[0::2] + base[1::2]) / SQRT2
        np.testing.assert_allclose(u_stat_vector(tree, 1, 2), folded, atol=1e-12)

    def test_u_stat_recursion_over_subtrees(self):
        tree = sample_tree(4, RngStream(11))
        for k in (1, 2, 3):
            for n in range(k):
                parent = u_stat_vector(tree, n, k)
                child = u_stat_vector(tree, n + 1, k)
                recon = (child[0::2] + child[1::2]) / SQRT2
                np.testing.assert_allclose(recon, parent, atol=1e-12)

    def test_u_stat_by_path(self):
        tree = sample_tree(3, RngStream(12))
        assert u_stat(tree, "01", 2) == pytest.approx(u_stat_vector(tree, 2, 2)[1])
        with pytest.raises(ValueError):
            u_stat(tree, "011", 2)

    def test_u_stat_needs_one_level_below_k(self):
        tree = sample_tree(2, RngStream(13))
        with pytest.raises(DepthMismatchError):
            u_stat_vector(tree, 0, 2)

    def test_innovation_bijection_roundtrips(self):
        tree = sample_tree(5, RngStream(14))
        root, innov = innovations(tree)
        rebuilt = tree_from_innovations(root, innov)
        for n in range(6):
            np.testing.assert_allclose(rebuilt.level(n), tree.level(n), atol=1e-12)
        assert phi_roundtrip(tree) < 1e-10

    def test_innovations_are_the_sibling_differences(self):
        tree = sample_tree(2, RngStream(15))
        _, innov = innovations(tree)
        child = tree.level(1)
        assert innov[0][0] == pytest.approx((child[0] - child[1]) / SQRT2)


class TestConditional:
    def test_conditioning_level_is_pinned_exactly(self):
        z = LevelVector(2, standard_complex(RngStream(16).generator(), (4,)))
        levels = conditional_levels(z.entries, 2, 4, 50, RngStream(17))
        np.testing.assert_array_equal(levels[2], np.tile(z.entries, (50, 1)))

    def test_upper_levels_follow_by_averaging(self):
        z = LevelVector(2, standard_complex(RngStream(18).generator(), (4,)))
        tree = sample_conditional(z, 3, RngStream(19))
        np.testing.assert_allclose(
            tree.level(1), project_vectors(z.entries[None, :], 2, 1)[0], atol=1e-12
        )

    def test_fresh_innovations_below_are_standard(self):
        z = LevelVector(1, np.array([5.0 + 0j, -5.0 + 0j]))
        levels = conditional_levels(z.entries, 1, 2, 40_000, RngStream(20))
        innov = (levels[2][:, 0::2] - levels[2][:, 1::2]) / SQRT2
        assert np.abs(innov.mean(axis=0)).max() < 4.0 * math.sqrt(2.0 / 40_000)
        second = (np.abs(innov) ** 2).mean(axis=0)
        assert np.abs(second - 2.0).max() < 4.0 * 2.0 / math.sqrt(40_000)


class TestMarginals:
    def test_level_values_are_standard_complex(self):
        count = 60_000
        levels = sample_levels(4, count, RngStream(21))
        x = levels[4]
        assert np.abs(x.mean(axis=0)).max() < 4.0 * math.sqrt(2.0 / count)
        second = (np.abs(x) ** 2).mean(axis=0)
        assert np.abs(second - ComplexGaussianConvention.SECOND_MOMENT).max() < 4.0 * 2.0 / math.sqrt(count)

    def test_aggregated_innovations_are_standard(self):
        count = 60_000
        levels = sample_levels(4, count, RngStream(22))
        u = u_stat_arrays(levels, 1, 3)
        assert np.abs(u.mean(axis=0)).max() < 4.0 * math.sqrt(2.0 / count)
        second = (np.abs(u) ** 2).mean(axis=0)
        assert np.abs(second - 2.0).max() < 4.0 * 2.0 / math.sqrt(count)


def _root_first_levels(depth: int, count: int, seed: int) -> list[np.ndarray]:
    """Reference sampler: ``count`` trees built root-first by the innovation
    recursion, one :func:`tree_from_innovations` call per tree."""
    gen = RngStream(seed).generator()
    trees = [
        tree_from_innovations(
            complex(standard_complex(gen, (1,))[0]),
            [standard_complex(gen, (1 << n,)) for n in range(depth)],
        )
        for _ in range(count)
    ]
    return [np.stack([t.level(n) for t in trees]) for n in range(depth + 1)]


def _law_statistics(levels: list[np.ndarray], depth: int) -> dict[str, np.ndarray]:
    """Per-node sample moments to compare between samplers: the second moment
    of every level value and of every aggregated innovation, and the
    cross-moment of each level value with the innovations below it."""
    out = {}
    for n in range(depth + 1):
        x = levels[n]
        out[f"x{n}"] = (np.abs(x) ** 2).mean(axis=0)
        for k in range(n, depth):
            u = u_stat_arrays(levels, n, k)
            out[f"u{n},{k}"] = (np.abs(u) ** 2).mean(axis=0)
            out[f"xu{n},{k}"] = (x * u.conj()).mean(axis=0)
    return out


class TestLeafFirstSampler:
    """``sample_levels`` draws the leaves and averages upward; the root-first
    innovation recursion is the reference it must agree with in law."""

    DEPTH = 4
    COUNT = 8000

    def test_agrees_in_law_with_the_root_first_recursion(self):
        leaf_first = _law_statistics(sample_levels(self.DEPTH, self.COUNT, RngStream(31)), self.DEPTH)
        root_first = _law_statistics(_root_first_levels(self.DEPTH, self.COUNT, 32), self.DEPTH)
        # Every statistic is a mean of count terms of variance 4 (a squared
        # modulus, or the product of two independent standard values).
        se = math.sqrt(2.0 * 4.0 / self.COUNT)
        worst = max(float(np.max(np.abs(leaf_first[key] - root_first[key]))) / se for key in leaf_first)
        assert worst < 4.5
        # Both also sit at the closed forms: second moment 2, cross-moment 0.
        for stats in (leaf_first, root_first):
            for key, value in stats.items():
                expected = 0.0 if key.startswith("xu") else ComplexGaussianConvention.SECOND_MOMENT
                assert np.max(np.abs(value - expected)) < 4.5 * math.sqrt(4.0 / self.COUNT), key

    def test_averaging_constraint_holds_exactly(self):
        levels = sample_levels(5, 300, RngStream(33))
        for n in range(5):
            child = levels[n + 1]
            np.testing.assert_array_equal(levels[n], (child[:, 0::2] + child[:, 1::2]) / SQRT2)

    def test_draws_only_the_deepest_level(self):
        levels = sample_levels(3, 5, RngStream(34))
        np.testing.assert_array_equal(levels[3], standard_complex(RngStream(34).generator(), (5, 8)))


class TestDiskMass:
    def test_centered_matches_exponential_form(self):
        for r in (0.5, 1.0, 2.0):
            assert disk_mass(r) == pytest.approx(-math.expm1(-r * r / 2.0))

    def test_off_center_matches_direct_sampling(self):
        count = 200_000
        draws = standard_complex(RngStream(23).generator(), (count,))
        center, radius = 1.0 + 0.5j, 1.25
        empirical = np.count_nonzero(np.abs(draws - center) < radius) / count
        exact = disk_mass(radius, center)
        assert abs(empirical - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / count)

    def test_edge_radii(self):
        assert disk_mass(0.0) == 0.0
        assert disk_mass(-1.0) == 0.0
        assert disk_mass(math.inf) == 1.0
        with pytest.raises(ValueError):
            disk_mass(math.nan)

    def test_off_center_is_the_noncentral_chi_square_cdf_bit_for_bit(self):
        from scipy import stats

        radii = np.repeat(np.linspace(0.05, 6.0, 40), 40)
        centers = [complex(c) for c in np.tile(np.linspace(0.05, 6.0, 40), 40) * np.exp(1j * radii)]
        offsets = np.array([abs(c) for c in centers])
        expected = stats.ncx2.cdf(radii * radii, 2, offsets * offsets)
        got = [disk_mass(float(r), c) for r, c in zip(radii, centers)]
        np.testing.assert_array_equal(got, expected)

    def test_package_import_leaves_scipy_stats_out(self):
        # The closed forms come from scipy.special; scipy.stats is slow to import.
        src = Path(tree_module.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        check = "import sys, whirly_lab.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"
