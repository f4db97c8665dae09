"""Borel set nodes: membership, algebra, acted images, and JSON round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from whirly_lab import (
    DepthMismatchError,
    LevelMismatchError,
    LevelVector,
    RngStream,
    act,
    acted_set,
    affine_image,
    boolean_combine,
    conjugate,
    disk_mass,
    disk_product,
    halfspace,
    linear_reads,
    make_gsk,
    project,
    random_element,
    sample_levels,
    sample_tree,
    set_from_json,
    standard_complex,
    symmetric_difference,
)


def _draws(seed: int, count: int, level: int) -> np.ndarray:
    return standard_complex(RngStream(seed).generator(), (count, 1 << level))


class TestDiskProduct:
    def test_single_disk_mass(self):
        count = 150_000
        x = _draws(51, count, 0)
        d = disk_product(0, 0j, 1.0)
        hit = d.indicator_at(x).mean()
        exact = disk_mass(1.0)
        assert abs(hit - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / count)

    def test_product_mass_factorizes(self):
        count = 150_000
        x = _draws(52, count, 1)
        d = disk_product(1, [0j, 1.0 + 0j], [1.0, 1.5])
        hit = d.indicator_at(x).mean()
        exact = disk_mass(1.0) * disk_mass(1.5, 1.0 + 0j)
        assert abs(hit - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / count)

    def test_infinite_radius_is_full_axis(self):
        d = disk_product(1, 0j, [math.inf, 0.5])
        x = np.array([[100.0 + 0j, 0.1 + 0j]])
        assert d.indicator_at(x)[0]

    def test_scalar_center_broadcasts(self):
        d = disk_product(2, 0.5j, 1.0)
        np.testing.assert_array_equal(d.centers, np.full(4, 0.5j))

    @pytest.mark.parametrize("level", range(8))
    def test_membership_equals_row_reduction(self, level):
        width = 1 << level
        gen = RngStream(61).generator()
        # Dyadic centers and radii make the points placed on a circle exact.
        centers = (gen.integers(-8, 9, width) + 1j * gen.integers(-8, 9, width)) / 8
        # Each factor holds 0.5**(1/width) of the mass, so about half the rows are in.
        radius = math.ceil(8.0 * math.sqrt(-2.0 * math.log1p(-(0.5 ** (1.0 / width))))) / 8.0
        radii = np.full(width, radius)
        radii[1::3] = math.inf
        finite = np.where(np.isinf(radii), 0.0, radii)
        # The [..., 0] view standard_complex returns, as the samplers pass it.
        x = _draws(62 + level, 3000, level)
        assert not x.flags.owndata
        x += centers
        x[0] = centers + finite
        x[1] = centers + 1j * finite
        x[2] = centers
        x[2, 0] += radii[0]
        x[3] = centers
        x[4] = centers
        x[4, -1] = complex(math.nan, 0.0)
        x[5] = math.nan
        expected = np.all(np.abs(x - centers) < radii, axis=1)
        disk = disk_product(level, centers, radii)
        np.testing.assert_array_equal(disk.indicator_at(x), expected)
        np.testing.assert_array_equal(disk.indicator_at(x[::2]), expected[::2])
        assert not expected[:3].any() and expected[3] and not expected[4:6].any()
        assert 0 < expected[6:].sum() < expected[6:].size

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            disk_product(0, 0j, -1.0)
        with pytest.raises(ValueError):
            disk_product(0, 0j, math.nan)


class TestHalfspace:
    def test_mass_matches_normal_cdf(self):
        count = 150_000
        x = _draws(53, count, 1)
        normal, offset = np.array([1.0 + 1j, -0.5j]), 0.7
        h = halfspace(1, normal, offset)
        hit = h.indicator_at(x).mean()
        exact = stats.norm.cdf(offset / np.linalg.norm(normal))
        assert abs(hit - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / count)

    def test_boundary_is_included(self):
        h = halfspace(0, 1.0 + 0j, 0.0)
        assert h.indicator_at(np.array([[0.0 + 5j]]))[0]

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            halfspace(1, [0j, 0j], 1.0)


class TestAffine:
    def test_membership_rescales(self):
        d = disk_product(0, 0j, 1.0)
        doubled = affine_image(d, 2.0, 0j)
        assert doubled.contains(LevelVector(0, [1.5 + 0j]))
        assert not d.contains(LevelVector(0, [1.5 + 0j]))

    def test_shift_moves_the_set(self):
        d = disk_product(0, 0j, 0.5)
        shifted = affine_image(d, 1.0, 3.0 + 0j)
        assert shifted.contains(LevelVector(0, [3.1 + 0j]))
        assert not shifted.contains(LevelVector(0, [0.1 + 0j]))

    @given(
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(deadline=None, derandomize=True, max_examples=25)
    def test_composition_collapses(self, a1, a2, b1, b2):
        base = disk_product(0, 0.3 + 0.1j, 1.0)
        nested = affine_image(affine_image(base, a1, b1 + 0j), a2, b2 + 0j)
        flat = affine_image(base, a1 * a2, a2 * b1 + b2 + 0j)
        x = _draws(54, 500, 0)
        np.testing.assert_array_equal(nested.indicator_at(x), flat.indicator_at(x))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            affine_image(disk_product(0, 0j, 1.0), 0.0, 0j)


class TestBooleanAlgebra:
    def test_double_complement_is_identity(self):
        d = disk_product(1, 0j, 1.0)
        cc = boolean_combine("complement", [boolean_combine("complement", [d])])
        x = _draws(55, 2000, 1)
        np.testing.assert_array_equal(cc.indicator_at(x), d.indicator_at(x))

    def test_de_morgan(self):
        a = disk_product(0, 0j, 1.0)
        b = disk_product(0, 1.0 + 0j, 0.8)
        lhs = boolean_combine("complement", [boolean_combine("union", [a, b])])
        rhs = boolean_combine(
            "intersection",
            [boolean_combine("complement", [a]), boolean_combine("complement", [b])],
        )
        x = _draws(56, 2000, 0)
        np.testing.assert_array_equal(lhs.indicator_at(x), rhs.indicator_at(x))

    def test_symmetric_difference_of_self_is_empty(self):
        d = disk_product(0, 0j, 1.0)
        s = symmetric_difference(d, d)
        x = _draws(57, 2000, 0)
        assert not s.indicator_at(x).any()

    def test_union_level_is_the_finest_operand(self):
        u = boolean_combine("union", [disk_product(0, 0j, 1.0), disk_product(2, 0j, 1.0)])
        assert u.level == 2

    def test_complement_arity_checked(self):
        d = disk_product(0, 0j, 1.0)
        with pytest.raises(ValueError):
            boolean_combine("complement", [d, d])
        with pytest.raises(ValueError):
            boolean_combine("union", [])
        with pytest.raises(ValueError):
            boolean_combine("xor", [d])


class TestActedSet:
    def test_membership_matches_inverse_action_on_trees(self):
        gen = RngStream(58).generator()
        d = disk_product(1, 0j, 1.2)
        g = random_element(2, gen)
        moved = acted_set(g, d)
        for _ in range(50):
            tree = sample_tree(3, gen)
            pulled = project(act(conjugate(g), tree), d.level)
            assert moved.indicator_at(tree.level(moved.level))[0] == d.contains(pulled)

    def test_inverse_action_roundtrips(self):
        gen = RngStream(59).generator()
        d = disk_product(0, 0.5 + 0j, 1.0)
        g = random_element(2, gen)
        back = acted_set(g, acted_set(conjugate(g), d))
        x = _draws(60, 2000, 2)
        np.testing.assert_array_equal(back.indicator_at(x), d.indicator_at(x, level=2))

    def test_rotation_preserves_mass(self):
        count = 150_000
        d = disk_product(0, 0j, 1.0)
        g = random_element(1, RngStream(61).generator())
        x = _draws(62, count, 1)
        hit = acted_set(g, d).indicator_at(x).mean()
        exact = disk_mass(1.0)
        assert abs(hit - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / count)

    def test_whirled_set_at_deeper_level(self):
        g = make_gsk(1.0, 0)
        d = disk_product(0, 0j, 1.0)
        w = acted_set(g, d)
        assert w.level == 1
        # pulling back along g multiplies by conjugate phases before projecting
        inside = np.array([[0.5 + 0j, 0.5 + 0j]])
        outside = np.array([[2.0 + 0j, 2.0 + 0j]])
        assert w.indicator_at(inside)[0]
        assert not w.indicator_at(outside)[0]


class TestIndicatorPlumbing:
    def test_deeper_input_is_projected_first(self):
        d = disk_product(0, 0j, 1.0)
        levels = sample_levels(3, 500, RngStream(63))
        from_leaves = d.indicator_at(levels[3], level=3)
        from_own = d.indicator_at(levels[0])
        np.testing.assert_array_equal(from_leaves, from_own)

    def test_indicator_uses_matching_level_from_list(self):
        d = disk_product(1, 0j, 1.0)
        levels = sample_levels(2, 100, RngStream(64))
        np.testing.assert_array_equal(d.indicator(levels), d.indicator_at(levels[1]))

    def test_column_count_is_checked(self):
        d = disk_product(1, 0j, 1.0)
        with pytest.raises(LevelMismatchError):
            d.indicator_at(np.ones((5, 3), dtype=complex), level=1)

    def test_coarser_input_is_an_error(self):
        d = disk_product(2, 0j, 1.0)
        with pytest.raises(DepthMismatchError):
            d.indicator_at(np.ones((5, 2), dtype=complex), level=1)

    def test_one_dimensional_input_is_one_vector(self):
        d = disk_product(1, 0j, 1.0)
        out = d.indicator_at(np.zeros(2, dtype=complex))
        assert out.shape == (1,)
        assert out[0]


class TestJson:
    def _roundtrip_and_compare(self, s, level, seed):
        clone = set_from_json(s.to_json())
        assert clone.level == s.level
        x = _draws(seed, 1500, level)
        np.testing.assert_array_equal(clone.indicator_at(x), s.indicator_at(x))

    def test_disk_roundtrip(self):
        self._roundtrip_and_compare(disk_product(1, [0.2j, 1.0 + 0j], [1.0, 2.0]), 1, 65)

    def test_halfspace_roundtrip(self):
        self._roundtrip_and_compare(halfspace(1, [1.0 + 0.5j, -1j], 0.3), 1, 66)

    def test_affine_roundtrip(self):
        base = disk_product(0, 0j, 1.0)
        self._roundtrip_and_compare(affine_image(base, 1.5, 0.2 - 0.1j), 0, 67)

    def test_boolean_roundtrip(self):
        a = disk_product(0, 0j, 1.0)
        b = halfspace(0, 1.0 + 0j, 0.0)
        self._roundtrip_and_compare(symmetric_difference(a, b), 0, 68)

    def test_acted_roundtrip(self):
        g = make_gsk(0.8, 1)
        self._roundtrip_and_compare(acted_set(g, disk_product(0, 0j, 1.0)), 2, 69)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            set_from_json({"kind": "banana", "level": 0})


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _leaf(kind: str, level: int, seed: int):
    gen = np.random.default_rng(seed)
    n = 1 << level

    def vec(scale: float) -> np.ndarray:
        return scale * (gen.standard_normal(n) + 1j * gen.standard_normal(n))

    if kind == "disk":
        radii = np.where(gen.random(n) < 0.25, math.inf, gen.uniform(0.6, 2.5, n))
        return disk_product(level, vec(0.6), radii)
    return halfspace(level, vec(1.0), float(gen.normal()))


def _wrap(kind: str, base, seed: int):
    gen = np.random.default_rng(seed)
    if kind == "acted":
        return acted_set(random_element(int(gen.integers(0, 5)), gen), base)
    n = 1 << base.level
    shift = 0.5 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    return affine_image(base, float(gen.uniform(0.5, 2.0)), shift)


def _combine(op: str):
    return lambda operands: boolean_combine(op, operands)


# Expressions over the whole grammar with levels up to 4.
_EXPRESSIONS = st.recursive(
    st.builds(_leaf, st.sampled_from(["disk", "halfspace"]), st.integers(0, 4), _SEEDS),
    lambda children: st.one_of(
        st.builds(_wrap, st.sampled_from(["acted", "affine"]), children, _SEEDS),
        st.builds(_combine("union"), st.lists(children, min_size=1, max_size=3)),
        st.builds(_combine("intersection"), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda c: boolean_combine("complement", [c]), children),
    ),
    max_leaves=6,
)


def _padded_reads(reads, x: np.ndarray) -> np.ndarray:
    y = x @ reads.matrix.T
    return np.pad(y, ((0, 0), (0, (1 << reads.reduced.level) - y.shape[1])))


def _kinds(node) -> set:
    kids = list(getattr(node, "children", ()))
    kids += [getattr(node, a) for a in ("child", "base") if hasattr(node, a)]
    return {node.kind}.union(*(_kinds(k) for k in kids))


class TestLinearReads:
    @given(_EXPRESSIONS, _SEEDS)
    @settings(deadline=None, derandomize=True, max_examples=150)
    def test_reduced_set_on_the_reads_is_the_set(self, target, seed):
        reads = linear_reads(target, 1 << 12)
        assert reads.matrix.shape[1] == 1 << target.level
        assert not _kinds(reads.reduced) & {"acted-image", "affine-image"}
        x = _draws(seed % 1000, 300, target.level)
        np.testing.assert_array_equal(
            reads.reduced.indicator_at(_padded_reads(reads, x)), target.indicator_at(x)
        )

    def test_each_distinct_read_appears_once(self):
        gen = RngStream(70).generator()
        disk = disk_product(0, 0j, 1.0)
        g, h = random_element(6, gen), random_element(6, gen)
        # Each acted disk appears twice in the symmetric difference.
        moved = symmetric_difference(acted_set(g, disk), acted_set(h, disk))
        reads = linear_reads(moved, 63)
        assert reads.matrix.shape == (2, 64)
        np.testing.assert_allclose(reads.matrix, np.stack([np.conj(g.phases), np.conj(h.phases)]) / 8.0)
        assert reads.reduced.kind == "union" and reads.reduced.level == 1
        # The same leaf through two maps is two reads; one map is one.
        assert linear_reads(symmetric_difference(acted_set(g, disk), acted_set(g, disk)), 63).matrix.shape == (1, 64)

    def test_stops_at_max_reads(self):
        disk = disk_product(3, 0j, 1.0)
        assert linear_reads(disk, 7) is None
        assert linear_reads(disk, 8).matrix.shape == (8, 8)
        wide = boolean_combine("union", [disk, acted_set(random_element(3, RngStream(71).generator()), disk)])
        assert linear_reads(wide, 15) is None
        assert linear_reads(wide, 16).matrix.shape == (16, 8)

    def test_shift_is_folded_into_centers_and_offsets(self):
        disk = affine_image(disk_product(0, 0.5 + 0j, 1.0), 2.0, 1.0 - 1j)
        plane = affine_image(halfspace(0, 1.0 + 1j, 0.25), 0.5, 2.0 + 0j)
        reduced = linear_reads(boolean_combine("intersection", [disk, plane]), 4).reduced
        # The disk reads x/2 and holds x when |x/2 - (1 - 1j)/2 - 0.5| < 1.
        first, second = reduced.children
        assert first.centers[0] == pytest.approx(0.5 + (1.0 - 1j) / 2.0)
        assert first.radii[1] == math.inf
        # The halfspace reads 2x and holds x when Re((2x - 4) * (1 - 1j)) <= 0.25.
        assert second.normal[0] == 0.0
        assert second.offset == pytest.approx(0.25 + 4.0)
