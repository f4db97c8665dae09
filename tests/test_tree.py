"""Tree construction, projections, innovations, and their exact identities."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whirly_lab.tree as tree_module
from whirly_lab import (
    DepthMismatchError,
    LevelMismatchError,
    LevelVector,
    RngStream,
    TreeSample,
    conditional_levels,
    disk_mass,
    innovations,
    phi_roundtrip,
    project,
    project_vectors,
    sample_levels,
    sample_tree,
    standard_complex,
    tree_from_innovations,
    u_stat_arrays,
    u_stat_vector,
)

SQRT2 = math.sqrt(2.0)


def _walk(root: complex, innov: list[np.ndarray], bits: str) -> complex:
    """The value at the path ``bits``, reached from the root by the
    innovation recursion one bit at a time, each step reading the innovation
    of the node that the bits so far spell."""
    z = root
    for j, bit in enumerate(bits):
        u = innov[j][int("0" + bits[:j], 2)]
        z = (z + u) / SQRT2 if bit == "0" else (z - u) / SQRT2
    return z


def _innovation_tree(depth: int, seed: int) -> tuple[complex, list[np.ndarray], TreeSample]:
    gen = RngStream(seed).generator()
    root = complex(standard_complex(gen, (1,))[0])
    innov = [standard_complex(gen, (1 << n,)) for n in range(depth)]
    return root, innov, tree_from_innovations(root, innov)


class TestDyadicPath:
    """A level holds its paths in path order: the node of a path sits at the
    index its bits spell in binary, root end first."""

    def test_index_orders_paths_lexicographically(self):
        root, innov, tree = _innovation_tree(2, 1)
        walked = [_walk(root, innov, bits) for bits in ("00", "01", "10", "11")]
        np.testing.assert_allclose(tree.level(2), walked, rtol=0, atol=1e-12)

    def test_children_sit_at_doubled_indices(self):
        root, innov, tree = _innovation_tree(4, 2)
        parent = int("101", 2)
        for bit in (0, 1):
            child = _walk(root, innov, "101" + str(bit))
            assert tree.level(4)[2 * parent + bit] == pytest.approx(child, abs=1e-12)

    @given(st.integers(min_value=0, max_value=12), st.data())
    @settings(deadline=None, derandomize=True, max_examples=40)
    def test_index_reads_the_bits_in_binary(self, length, data):
        index = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
        bits = "".join(str((index >> j) & 1) for j in reversed(range(length)))
        root, innov, tree = _innovation_tree(length, index)
        assert tree.level(length)[index] == pytest.approx(_walk(root, innov, bits), abs=1e-12)

    def test_prefix_truncates(self):
        # Projecting a level-4 row that is nonzero only at 1011 leaves weight
        # only at its prefix: 10 at level 2, the root at level 0.
        x = np.zeros((1, 16), dtype=complex)
        x[0, int("1011", 2)] = 1.0
        for length, prefix in ((2, "10"), (0, "")):
            coarse = project_vectors(x, 4, length)[0]
            assert np.flatnonzero(coarse).tolist() == [int("0" + prefix, 2)]


class TestSampling:
    def test_levels_have_dyadic_widths(self):
        levels = sample_levels(4, 7, RngStream(3).generator())
        assert [a.shape for a in levels] == [(7, 1 << n) for n in range(5)]

    def test_same_stream_reproduces_draws(self):
        a = sample_levels(3, 5, RngStream(9, 2).generator())
        b = sample_levels(3, 5, RngStream(9, 2).generator())
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
        levels = sample_levels(3, 5, RngStream(35).generator(), out)
        assert levels[3] is out
        for x, y in zip(levels, sample_levels(3, 5, RngStream(35).generator())):
            np.testing.assert_array_equal(x, y)

    def test_oversized_requests_are_refused_before_any_draw(self, monkeypatch):
        def no_draw(gen, shape, out=None):
            raise AssertionError("drew before checking the budget")

        monkeypatch.setattr(tree_module, "standard_complex", no_draw)
        with pytest.raises(ValueError, match="budget"):
            sample_levels(30, 64, RngStream(1).generator())
        with pytest.raises(ValueError, match="budget"):
            conditional_levels(np.zeros(1), 0, 30, 64, RngStream(1).generator())
        with pytest.raises(ValueError, match="budget"):
            sample_tree(26, RngStream(1).generator())

    def test_distinct_streams_decorrelate(self):
        a = sample_levels(0, 100, RngStream(9, 0).generator())[0]
        b = sample_levels(0, 100, RngStream(9, 1).generator())[0]
        assert np.max(np.abs(a - b)) > 1e-3

    def test_averaging_constraint_holds_by_construction(self):
        tree = sample_tree(6, RngStream(4).generator())
        for n in range(6):
            parent = tree.level(n)
            child = tree.level(n + 1)
            recon = (child[0::2] + child[1::2]) / SQRT2
            np.testing.assert_allclose(recon, parent, atol=1e-12)

    def test_perturbed_leaf_is_rejected(self):
        tree = sample_tree(3, RngStream(5).generator())
        levels = [lvl.copy() for lvl in tree.levels]
        levels[3][5] += 0.01
        with pytest.raises(ValueError, match="averaging"):
            TreeSample(levels)

    def test_from_leaves_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreeSample.from_leaves(np.ones(3, dtype=complex))

    def test_from_leaves_rebuilds_upper_levels(self):
        tree = sample_tree(4, RngStream(6).generator())
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
        # The same values as a complex view into a float64 draw, which owns no data.
        view = RngStream(16).generator().standard_normal((600, 4 << k, 2)).view(np.complex128)[..., 0]
        assert not view.flags.owndata
        x = {"contiguous": draws, "strided": draws[::2], "draw-view": view}[layout]
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
        tree = sample_tree(2, RngStream(8).generator())
        with pytest.raises(DepthMismatchError):
            project(tree, 3)


class TestInnovations:
    def test_u_stat_matches_hand_fold(self):
        tree = sample_tree(3, RngStream(10).generator())
        child = tree.level(3)
        base = (child[0::2] - child[1::2]) / SQRT2
        np.testing.assert_allclose(u_stat_vector(tree, 2, 2), base, atol=1e-12)
        folded = (base[0::2] + base[1::2]) / SQRT2
        np.testing.assert_allclose(u_stat_vector(tree, 1, 2), folded, atol=1e-12)

    def test_u_stat_recursion_over_subtrees(self):
        tree = sample_tree(4, RngStream(11).generator())
        for k in (1, 2, 3):
            for n in range(k):
                parent = u_stat_vector(tree, n, k)
                child = u_stat_vector(tree, n + 1, k)
                recon = (child[0::2] + child[1::2]) / SQRT2
                np.testing.assert_allclose(recon, parent, atol=1e-12)

    def test_u_stat_by_path(self):
        tree = sample_tree(3, RngStream(12).generator())
        child = tree.level(3)
        sigma = int("01", 2)
        assert u_stat_vector(tree, 2, 2)[sigma] == pytest.approx((child[2] - child[3]) / SQRT2)
        with pytest.raises(ValueError):
            u_stat_vector(tree, 3, 2)

    def test_u_stat_needs_one_level_below_k(self):
        tree = sample_tree(2, RngStream(13).generator())
        with pytest.raises(DepthMismatchError):
            u_stat_vector(tree, 0, 2)

    def test_innovation_bijection_roundtrips(self):
        tree = sample_tree(5, RngStream(14).generator())
        root, innov = innovations(tree)
        rebuilt = tree_from_innovations(root, innov)
        for n in range(6):
            np.testing.assert_allclose(rebuilt.level(n), tree.level(n), atol=1e-12)
        assert phi_roundtrip(tree) < 1e-10

    def test_nan_innovations_fail_the_roundtrip(self, monkeypatch):
        # The root round-trips exactly, so only the NaN levels below it show
        # the fault: the rebuilt tree fails its averaging check.
        exact = tree_module.innovations

        def nan_innovations(tree):
            root, innov = exact(tree)
            return root, [u * math.nan for u in innov]

        monkeypatch.setattr(tree_module, "innovations", nan_innovations)
        with pytest.raises(ValueError, match="averaging constraint violated"):
            phi_roundtrip(sample_tree(3, RngStream(14).generator()))

    def test_innovations_are_the_sibling_differences(self):
        tree = sample_tree(2, RngStream(15).generator())
        _, innov = innovations(tree)
        child = tree.level(1)
        assert innov[0][0] == pytest.approx((child[0] - child[1]) / SQRT2)


class TestConditional:
    def test_conditioning_level_is_pinned_exactly(self):
        z = LevelVector(2, standard_complex(RngStream(16).generator(), (4,)))
        levels = conditional_levels(z.entries, 2, 4, 50, RngStream(17).generator())
        np.testing.assert_array_equal(levels[2], np.tile(z.entries, (50, 1)))

    def test_upper_levels_follow_by_averaging(self):
        z = LevelVector(2, standard_complex(RngStream(18).generator(), (4,)))
        tree = TreeSample([a[0] for a in conditional_levels(z.entries, z.level, 3, 1, RngStream(19).generator())])
        np.testing.assert_allclose(
            tree.level(1), project_vectors(z.entries[None, :], 2, 1)[0], atol=1e-12
        )

    def test_fresh_innovations_below_are_standard(self):
        z = LevelVector(1, np.array([5.0 + 0j, -5.0 + 0j]))
        levels = conditional_levels(z.entries, 1, 2, 40_000, RngStream(20).generator())
        innov = (levels[2][:, 0::2] - levels[2][:, 1::2]) / SQRT2
        assert np.abs(innov.mean(axis=0)).max() < 4.0 * math.sqrt(2.0 / 40_000)
        second = (np.abs(innov) ** 2).mean(axis=0)
        assert np.abs(second - 2.0).max() < 4.0 * 2.0 / math.sqrt(40_000)


class TestMarginals:
    def test_level_values_are_standard_complex(self):
        count = 60_000
        levels = sample_levels(4, count, RngStream(21).generator())
        x = levels[4]
        assert np.abs(x.mean(axis=0)).max() < 4.0 * math.sqrt(2.0 / count)
        second = (np.abs(x) ** 2).mean(axis=0)
        assert np.abs(second - tree_module.SECOND_MOMENT).max() < 4.0 * 2.0 / math.sqrt(count)

    def test_aggregated_innovations_are_standard(self):
        count = 60_000
        levels = sample_levels(4, count, RngStream(22).generator())
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
        leaf_first = _law_statistics(sample_levels(self.DEPTH, self.COUNT, RngStream(31).generator()), self.DEPTH)
        root_first = _law_statistics(_root_first_levels(self.DEPTH, self.COUNT, 32), self.DEPTH)
        # Every statistic is a mean of count terms of variance 4 (a squared
        # modulus, or the product of two independent standard values).
        se = math.sqrt(2.0 * 4.0 / self.COUNT)
        worst = max(float(np.max(np.abs(leaf_first[key] - root_first[key]))) / se for key in leaf_first)
        assert worst < 4.5
        # Both also sit at the closed forms: second moment 2, cross-moment 0.
        for stats in (leaf_first, root_first):
            for key, value in stats.items():
                expected = 0.0 if key.startswith("xu") else tree_module.SECOND_MOMENT
                assert np.max(np.abs(value - expected)) < 4.5 * math.sqrt(4.0 / self.COUNT), key

    def test_averaging_constraint_holds_exactly(self):
        levels = sample_levels(5, 300, RngStream(33).generator())
        for n in range(5):
            child = levels[n + 1]
            np.testing.assert_array_equal(levels[n], (child[:, 0::2] + child[:, 1::2]) / SQRT2)

    def test_draws_only_the_deepest_level(self):
        levels = sample_levels(3, 5, RngStream(34).generator())
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

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_disk_product_mass_is_the_product_of_disk_masses(self, level):
        # Off-center disks, as the estimator criterion draws them.  NumPy's
        # vectorized complex abs may round |c| one ulp away from the scalar
        # abs of disk_mass (8 ulps of the product at most over 6000 draws),
        # so the two agree to rounding, not bit for bit.
        gen = np.random.default_rng(40 + level)
        width = 1 << level
        for _ in range(200):
            radii = gen.uniform(0.6, 1.8, size=width)
            centers = 0.7 * (gen.standard_normal(width) + 1j * gen.standard_normal(width))
            product = np.prod([disk_mass(r, c) for r, c in zip(radii, centers)])
            expected = pytest.approx(product, rel=64 * np.finfo(float).eps, abs=0.0)
            assert tree_module.disk_product_mass(radii, centers) == expected

    def test_disk_product_mass_refuses_a_nan_from_chndtr(self):
        # chndtr(1e12 + 1, 2, 1e12) is NaN: the dilated disk's edge passes
        # through its own shift.
        with pytest.raises(ValueError, match="chndtr's range"):
            tree_module.disk_product_mass(np.array([1.0]), np.array([0j]), math.hypot(1.0, 1e6), np.array([1e6 + 0j]))

    def test_disk_mass_refuses_a_nan_from_chndtr(self):
        # chndtr(1e12, 2, 1e12) is NaN: the disk's edge passes through the origin.
        with pytest.raises(ValueError, match="chndtr's range"):
            tree_module.disk_mass(1e6, 1e6)

    def test_gaussian_closed_forms_have_one_home(self):
        # Every other module takes its exact disk laws from tree.py.
        package = Path(tree_module.__file__).parent
        naming = [
            path.name
            for path in sorted(package.glob("*.py"))
            if path.name != "tree.py" and re.search(r"\b(chndtr|expm1)\b", path.read_text())
        ]
        assert naming == []

    def test_package_import_leaves_scipy_stats_out(self):
        # The closed forms come from scipy.special; scipy.stats and
        # scipy.optimize are slow to import.
        src = Path(tree_module.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        check = "import sys, whirly_lab.cli; print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False False"
