"""Borel set nodes: membership, algebra, acted images, and JSON round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from whirly_lab import (
    GroupElement,
    LevelMismatchError,
    RngStream,
    act,
    acted_set,
    affine_image,
    boolean_combine,
    conjugate,
    disk_mass,
    disk_product,
    halfspace,
    identity,
    linear_reads,
    make_gsk,
    project,
    project_vectors,
    random_element,
    sample_levels,
    sample_tree,
    set_from_json,
    standard_complex,
    symmetric_difference,
)
from whirly_lab.montecarlo import _innovation_plan
from whirly_lab.sets import _COLUMN_WIDTH, AffineImage, BorelSet


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
        # The C-contiguous array standard_complex returns, as the samplers pass it.
        x = _draws(62 + level, 3000, level)
        assert x.flags.c_contiguous
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

    def test_row_reduction_levels_span_the_column_crossover(self):
        # test_membership_equals_row_reduction runs levels 0 to 7, so it checks
        # both the column loop and the broadcast form of DiskProduct._member.
        assert 1 <= _COLUMN_WIDTH < 1 << 7

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            disk_product(0, 0j, -1.0)
        with pytest.raises(ValueError):
            disk_product(0, 0j, math.nan)

    def test_rejects_non_finite_centers_normals_and_shifts(self):
        for bad in (math.nan, complex(0.0, math.inf), -math.inf):
            with pytest.raises(ValueError, match="finite"):
                disk_product(1, [0j, bad], 1.0)
            with pytest.raises(ValueError, match="finite"):
                halfspace(0, bad, 0.0)
            with pytest.raises(ValueError, match="finite"):
                affine_image(disk_product(0, 0j, 1.0), 2.0, bad)

    def test_deep_level_is_refused_before_any_allocation(self):
        # Broadcasting the scalar center to level 30 would take 16 GiB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                disk_product(30, 0j, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestHalfspace:
    def test_mass_matches_normal_cdf(self):
        count = 150_000
        x = _draws(53, count, 1)
        normal, offset = np.array([1.0 + 1j, -0.5j]), 0.7
        h = halfspace(1, normal, offset)
        hit = h.indicator_at(x).mean()
        exact = stats.norm.cdf(offset / np.linalg.norm(normal))
        assert abs(hit - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / count)

    @pytest.mark.parametrize("level", range(8))
    def test_membership_equals_the_inner_product(self, level):
        width = 1 << level
        gen = RngStream(63).generator()
        normal = gen.normal(size=width) + 1j * gen.normal(size=width)
        x = _draws(70 + level, 3000, level)
        dot = (x @ np.conj(normal)).real
        offset = float(np.median(dot))
        h = halfspace(level, normal, offset)
        # Sibling-pair sums round differently from the matvec: rows within
        # that rounding of the boundary may fall on either side.
        clear = np.abs(dot - offset) > 1e-13 * (np.abs(x) @ np.abs(normal))
        assert clear.mean() > 0.99
        np.testing.assert_array_equal(h.indicator_at(x)[clear], (dot <= offset)[clear])
        np.testing.assert_array_equal(h.indicator_at(x[::2])[clear[::2]], (dot <= offset)[::2][clear[::2]])

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
        assert doubled.indicator_at([1.5 + 0j])[0]
        assert not d.indicator_at([1.5 + 0j])[0]

    def test_shift_moves_the_set(self):
        d = disk_product(0, 0j, 0.5)
        shifted = affine_image(d, 1.0, 3.0 + 0j)
        assert shifted.indicator_at([3.1 + 0j])[0]
        assert not shifted.indicator_at([0.1 + 0j])[0]

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

    def test_base_sees_numpy_complex_division(self):
        # The base must receive exactly (x - shift)/scale as NumPy's complex /
        # real computes it, at magnitudes from subnormal to 1e300; a true
        # division of the float64 view rounds differently (checked below).
        seen = []

        class Recorder(BorelSet):
            def _member(self, x):
                seen.append(x.copy())
                return np.ones(len(x), dtype=bool)

        gen = RngStream(56).generator()
        x = standard_complex(gen, (400, 4)) * 10.0 ** gen.uniform(-312.0, 300.0, (400, 4))
        shift = np.array([0.3 - 1j, 2.5e-310, -7.0e299 + 1j, 1.0])
        scale = math.sqrt(3.0)
        AffineImage(Recorder(2), scale, shift).indicator_at(x)
        expected = (x - shift) / scale
        assert not np.array_equal(((x - shift).view(np.float64) / scale).view(np.complex128), expected)
        assert np.array_equal(seen[0], expected)

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
            assert moved.indicator_at(tree.level(moved.level))[0] == d.indicator_at(pulled.entries)[0]

    def test_inverse_action_roundtrips(self):
        gen = RngStream(59).generator()
        d = disk_product(0, 0.5 + 0j, 1.0)
        g = random_element(2, gen)
        back = acted_set(g, acted_set(conjugate(g), d))
        x = _draws(60, 2000, 2)
        own = project_vectors(x, 2, d.level)
        np.testing.assert_array_equal(back.indicator_at(x), d.indicator_at(own))

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
        # A deeper row is the caller's to project: given as it is, it is refused.
        d = disk_product(0, 0j, 1.0)
        levels = sample_levels(3, 500, RngStream(63).generator())
        from_leaves = d.indicator_at(project_vectors(levels[3], 3, d.level))
        from_own = d.indicator_at(levels[0])
        np.testing.assert_array_equal(from_leaves, from_own)
        with pytest.raises(LevelMismatchError):
            d.indicator_at(levels[3])

    def test_indicator_uses_matching_level_from_list(self):
        d = disk_product(1, 0j, 1.0)
        levels = sample_levels(2, 100, RngStream(64).generator())
        np.testing.assert_array_equal(d.indicator(levels), d.indicator_at(levels[1]))

    def test_column_count_is_checked(self):
        d = disk_product(1, 0j, 1.0)
        with pytest.raises(LevelMismatchError):
            d.indicator_at(np.ones((5, 3), dtype=complex))

    def test_coarser_input_is_an_error(self):
        d = disk_product(2, 0j, 1.0)
        with pytest.raises(LevelMismatchError):
            d.indicator_at(np.ones((5, 2), dtype=complex))

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

    def test_compact_json_holds_the_pattern(self):
        # Set JSON holds the element's pattern, not its dense phases; an old
        # dense file of the same element loads and acts the same.
        base = disk_product(1, [0.2j, 0.5 + 0j], 1.3)
        for g in (make_gsk(0.5, 3), identity(4), make_gsk(2.0, 0)):
            compact = acted_set(g, base)
            written = compact.to_json()
            assert len(written["element"]["phases"]) == g.pattern.size
            clone = set_from_json(written)
            assert clone.to_json() == written
            dense = set_from_json(acted_set(GroupElement(g.level, g.phases), base).to_json())
            assert len(dense.to_json()["element"]["phases"]) == 1 << g.level
            x = _draws(71, 800, compact.level)
            np.testing.assert_array_equal(clone.indicator_at(x), compact.indicator_at(x))
            np.testing.assert_array_equal(dense.indicator_at(x), compact.indicator_at(x))
        # A dense alternating whirl read from JSON still gets its copy.
        w = np.exp(0.4j)
        stored = acted_set(GroupElement(3, np.tile([w, np.conj(w)], 4)), base).to_json()
        _, plan = _innovation_plan([set_from_json(stored)], None)
        (copies,) = plan.values()
        (copy,) = copies
        np.testing.assert_array_equal(copy.element.pattern, [w, np.conj(w)])

    def test_deep_whirl_json_holds_two_phases(self):
        whirl = acted_set(make_gsk(0.5, 39), disk_product(0, 0j, 1.0))
        written = whirl.to_json()
        assert len(written["element"]["phases"]) == 2
        clone = set_from_json(written)
        assert clone.to_json() == written
        # Two base objects, so two copies of bit 39, one per event.
        _, plan = _innovation_plan([clone, whirl], None)
        (copies,) = plan.values()
        (a, rows_a), (b, rows_b) = copies.items()
        assert (rows_a, rows_b) == ([0], [1])
        x = _draws(73, 800, 1)
        np.testing.assert_array_equal(a.indicator_at(x), b.indicator_at(x))

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
    """The reads of ``x``, one column per read index, padded with zero columns
    to the level of the reduced sets."""
    count, _, width = reads.groups.shape
    y = np.zeros((x.shape[0], 1 << reads.reduced[0].level), dtype=np.complex128)
    y[:, reads.rows] = np.einsum("sgw,grw->sgr", x.reshape(-1, count, width), reads.groups)
    return y


def _check_grouping(reads, top: int) -> None:
    """Groups tile the level-``top`` paths, and ``rows`` numbers the reads
    once each, ascending within a group."""
    count, size, width = reads.groups.shape
    assert count * width == 1 << top
    assert reads.rows.shape == (count, size)
    assert sorted(reads.rows.ravel().tolist()) == list(range(count * size))
    assert np.all(np.diff(reads.rows, axis=1) > 0)


def _kinds(node) -> set:
    kids = list(getattr(node, "children", ()))
    kids += [getattr(node, a) for a in ("child", "base") if hasattr(node, a)]
    return {node.kind}.union(*(_kinds(k) for k in kids))


class TestLinearReads:
    @given(_EXPRESSIONS, _SEEDS)
    @settings(deadline=None, derandomize=True, max_examples=150)
    def test_reduced_set_on_the_reads_is_the_set(self, target, seed):
        reads = linear_reads([target], 1 << 12)
        _check_grouping(reads, target.level)
        (reduced,) = reads.reduced
        assert not _kinds(reduced) & {"acted-image", "affine-image"}
        x = _draws(seed % 1000, 300, target.level)
        np.testing.assert_array_equal(reduced.indicator_at(_padded_reads(reads, x)), target.indicator_at(x))

    @given(st.lists(_EXPRESSIONS, min_size=2, max_size=3), _SEEDS)
    @settings(deadline=None, derandomize=True, max_examples=60)
    def test_family_shares_one_read_table(self, events, seed):
        top = max(e.level for e in events)
        reads = linear_reads(events, 1 << 12)
        _check_grouping(reads, top)
        assert reads.rows.size <= sum(linear_reads([e], 1 << 12).rows.size for e in events)
        assert len(reads.reduced) == len(events)
        assert len({r.level for r in reads.reduced}) == 1
        x = _draws(seed % 1000, 300, top)
        y = _padded_reads(reads, x)
        for event, reduced in zip(events, reads.reduced):
            own = project_vectors(x, top, event.level)
            np.testing.assert_array_equal(reduced.indicator_at(y), event.indicator_at(own))

    def test_one_read_serves_every_set_that_makes_it(self):
        gen = RngStream(72).generator()
        disk = disk_product(0, 0j, 1.0)
        g, h = random_element(3, gen), random_element(2, gen)
        # The level-2 set reads its disk through a projection of the level-3
        # vector; the union reads g's read again.
        family = [acted_set(g, disk), acted_set(h, disk), boolean_combine("union", [acted_set(g, disk)])]
        reads = linear_reads(family, 7)
        assert reads.groups.shape == (1, 2, 8) and reads.rows.tolist() == [[0, 1]]
        np.testing.assert_allclose(reads.groups[0, 1], np.repeat(np.conj(h.phases), 2) / math.sqrt(8.0))
        assert [r.level for r in reads.reduced] == [1, 1, 1]
        assert linear_reads(family, 1) is None

    def test_each_distinct_read_appears_once(self):
        gen = RngStream(70).generator()
        disk = disk_product(0, 0j, 1.0)
        g, h = random_element(6, gen), random_element(6, gen)
        # Each acted disk appears twice in the symmetric difference.
        moved = symmetric_difference(acted_set(g, disk), acted_set(h, disk))
        reads = linear_reads([moved], 63)
        assert reads.groups.shape == (1, 2, 64) and reads.rows.tolist() == [[0, 1]]
        np.testing.assert_allclose(reads.groups[0], np.stack([np.conj(g.phases), np.conj(h.phases)]) / 8.0)
        assert reads.reduced[0].kind == "union" and reads.reduced[0].level == 1
        # The same leaf through two maps is two reads; one map is one.
        same = symmetric_difference(acted_set(g, disk), acted_set(g, disk))
        assert linear_reads([same], 63).groups.shape == (1, 1, 64)

    def test_stops_at_max_reads(self):
        disk = disk_product(3, 0j, 1.0)
        assert linear_reads([disk], 7) is None
        assert linear_reads([disk], 8).groups.shape == (8, 1, 1)
        wide = boolean_combine("union", [disk, acted_set(random_element(3, RngStream(71).generator()), disk)])
        assert linear_reads([wide], 15) is None
        reads = linear_reads([wide], 16)
        assert reads.groups.shape == (8, 2, 1)
        assert reads.rows.tolist() == [[g, 8 + g] for g in range(8)]

    def test_shift_is_folded_into_centers_and_offsets(self):
        disk = affine_image(disk_product(0, 0.5 + 0j, 1.0), 2.0, 1.0 - 1j)
        plane = affine_image(halfspace(0, 1.0 + 1j, 0.25), 0.5, 2.0 + 0j)
        (reduced,) = linear_reads([boolean_combine("intersection", [disk, plane])], 4).reduced
        # The disk reads x/2 and holds x when |x/2 - (1 - 1j)/2 - 0.5| < 1.
        first, second = reduced.children
        assert first.centers[0] == pytest.approx(0.5 + (1.0 - 1j) / 2.0)
        assert first.radii[1] == math.inf
        # The halfspace reads 2x and holds x when Re((2x - 4) * (1 - 1j)) <= 0.25.
        assert second.normal[0] == 0.0
        assert second.offset == pytest.approx(0.25 + 4.0)
