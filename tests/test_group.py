"""Group elements, composition, embedding, and the action on trees."""

import math

import numpy as np
import pytest

from whirly_lab import (
    DepthMismatchError,
    GroupElement,
    LevelMismatchError,
    RngStream,
    TreeSample,
    act,
    compose,
    conjugate,
    embed,
    identity,
    make_gsk,
    project,
    random_element,
    sample_tree,
    u_stat_vector,
    uniform_distance,
)


class TestConstruction:
    def test_identity_is_all_ones(self):
        g = identity(2)
        np.testing.assert_array_equal(g.phases, np.ones(4, dtype=complex))

    def test_make_gsk_alternates_conjugate_phases(self):
        g = make_gsk(1.0, 0)
        w = (1.0 + 1.0j) / math.sqrt(2.0)
        assert g.level == 1
        assert g.phases[0] == pytest.approx(w)
        assert g.phases[1] == pytest.approx(w.conjugate())

    def test_make_gsk_depends_on_last_bit_only(self):
        g = make_gsk(0.5, 2)
        np.testing.assert_allclose(g.phases[0::2], g.phases[0])
        np.testing.assert_allclose(g.phases[1::2], g.phases[1])

    def test_make_gsk_of_a_huge_strength_has_unit_phases(self):
        # sqrt(1 + s*s) overflows above |s| ~ 1.34e154; the phases tend to
        # +-i, and the element is built rather than refused.
        g = make_gsk(1e200, 0)
        np.testing.assert_allclose(np.abs(g.phases), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g.phases, [1j, -1j], rtol=0, atol=1e-15)

    def test_phases_must_be_unimodular(self):
        with pytest.raises(ValueError):
            GroupElement(1, np.array([1.0 + 0j, 0.5 + 0j]))

    def test_phase_count_must_match_level(self):
        for count in (3, 8):
            with pytest.raises(ValueError):
                GroupElement(2, np.ones(count, dtype=complex))


def _dense(g: GroupElement) -> GroupElement:
    """``g`` rebuilt from all of its phases."""
    return GroupElement(g.level, g.phases)


def _same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestCompactForm:
    """Whirling and identity elements hold a short pattern of phases; every
    dense read and every operation gives the bits of the dense element."""

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.0])
    def test_make_gsk_holds_two_phases_with_the_dense_bits(self, s):
        for k in range(9):
            g = make_gsk(s, k)
            assert g.level == k + 1
            assert g.pattern.size == 2
            signs = 1 - 2 * (np.arange(1 << (k + 1)) & 1)
            _same_bits(g.phases, (1.0 + 1j * s * signs) / math.hypot(1.0, s))

    def test_identity_holds_one_phase(self):
        for level in (0, 1, 5):
            g = identity(level)
            assert g.pattern.size == 1
            _same_bits(g.phases, np.ones(1 << level, dtype=np.complex128))

    def test_phases_are_read_only(self):
        g = make_gsk(0.5, 6)
        assert not g.phases.flags.writeable
        assert not g.pattern.flags.writeable

    def test_a_dense_element_is_its_own_pattern(self):
        g = random_element(3, RngStream(42).generator())
        assert g.pattern is g.phases

    def test_constructor_validates_its_pattern(self):
        with pytest.raises(ValueError):
            GroupElement(2, np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            GroupElement(1, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            GroupElement(1, np.ones(0, dtype=complex))
        with pytest.raises(ValueError):
            GroupElement(3, np.array([1.0 + 0j, 0.5 + 0j]))
        with pytest.raises(ValueError):
            GroupElement(-1, np.ones(1, dtype=complex))

    def test_constructor_tiles_the_pattern(self):
        g = GroupElement(3, np.array([1j, -1j, 1.0, -1.0]))
        assert g.pattern.size == 4
        _same_bits(g.phases, np.tile(np.array([1j, -1j, 1.0, -1.0]), 2))
        assert GroupElement(2, np.ones(2, dtype=complex)).pattern.size == 2

    def _operands(self):
        gen = RngStream(43).generator()
        compact = [make_gsk(0.3, 2), make_gsk(2.0, 0), identity(3), identity(1)]
        compact.append(GroupElement(3, random_element(2, gen).phases))
        return compact + [random_element(3, gen), random_element(1, gen)]

    def test_embed_matches_the_dense_element(self):
        for g in self._operands():
            for level in range(g.level, 6):
                _same_bits(embed(g, level).phases, embed(_dense(g), level).phases)

    def test_compose_and_conjugate_match_the_dense_elements(self):
        ops = self._operands()
        for g in ops:
            _same_bits(conjugate(g).phases, conjugate(_dense(g)).phases)
            for h in ops:
                if g.level != h.level:
                    continue
                dense = compose(_dense(g), _dense(h)).phases
                _same_bits(compose(g, h).phases, dense)
                _same_bits(compose(_dense(g), h).phases, dense)
                _same_bits(compose(g, _dense(h)).phases, dense)

    def test_uniform_distance_matches_the_dense_elements(self):
        ops = self._operands()
        for g in ops:
            for h in ops:
                dense = uniform_distance(_dense(g), _dense(h))
                assert uniform_distance(g, h) == dense
                assert uniform_distance(_dense(g), h) == dense
                assert uniform_distance(g, _dense(h)) == dense


class TestGroupLaws:
    def test_inverse_cancels(self):
        g = random_element(3, RngStream(31).generator())
        gg = compose(g, conjugate(g))
        np.testing.assert_allclose(gg.phases, np.ones(8), atol=1e-12)

    def test_composition_associates(self):
        gen = RngStream(32).generator()
        g, h, k = (random_element(2, gen) for _ in range(3))
        left = compose(compose(g, h), k)
        right = compose(g, compose(h, k))
        np.testing.assert_allclose(left.phases, right.phases, atol=1e-12)

    def test_compose_requires_equal_levels(self):
        with pytest.raises(LevelMismatchError):
            compose(identity(1), identity(2))

    def test_embed_repeats_prefix_phases(self):
        g = GroupElement(1, np.array([1j, -1j]))
        e = embed(g, 3)
        np.testing.assert_array_equal(e.phases[:4], np.full(4, 1j))
        np.testing.assert_array_equal(e.phases[4:], np.full(4, -1j))

    def test_embed_to_coarser_level_is_an_error(self):
        with pytest.raises(LevelMismatchError):
            embed(identity(3), 2)


class TestAction:
    def test_hand_example_two_leaves(self):
        tree = TreeSample.from_leaves(np.array([1.0 + 0j, 1j]))
        moved = act(make_gsk(1.0, 0), tree)
        assert moved.level(0)[0] == pytest.approx(1.0 + 1.0j)

    def test_action_respects_composition(self):
        gen = RngStream(33).generator()
        tree = sample_tree(3, gen)
        g, h = random_element(3, gen), random_element(3, gen)
        once = act(compose(g, h), tree)
        twice = act(g, act(h, tree))
        for n in range(4):
            np.testing.assert_allclose(once.level(n), twice.level(n), atol=1e-12)

    def test_action_by_inverse_roundtrips(self):
        gen = RngStream(34).generator()
        tree = sample_tree(4, gen)
        g = random_element(2, gen)
        back = act(conjugate(g), act(g, tree))
        for n in range(5):
            np.testing.assert_allclose(back.level(n), tree.level(n), atol=1e-12)

    def test_embedded_element_acts_identically(self):
        gen = RngStream(35).generator()
        tree = sample_tree(4, gen)
        g = random_element(2, gen)
        a = act(g, tree)
        b = act(embed(g, 4), tree)
        for n in range(5):
            np.testing.assert_allclose(a.level(n), b.level(n), atol=1e-12)

    def test_action_needs_enough_depth(self):
        tree = sample_tree(1, RngStream(36).generator())
        with pytest.raises(DepthMismatchError):
            act(random_element(3, RngStream(36).generator()), tree)

    def test_whirl_identity_at_every_level_at_or_below_k(self):
        gen = RngStream(37).generator()
        s, k = 0.75, 3
        g = make_gsk(s, k)
        scale = math.sqrt(1.0 + s * s)
        for _ in range(25):
            tree = sample_tree(k + 1, gen)
            moved = act(g, tree)
            for n in range(k + 1):
                lhs = project(moved, n).entries
                rhs = (project(tree, n).entries + 1j * s * u_stat_vector(tree, n, k)) / scale
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestDistance:
    def test_distance_from_identity_has_closed_form(self):
        for s in (0.25, 1.0, 3.0):
            expected = math.sqrt(2.0 - 2.0 / math.sqrt(1.0 + s * s))
            for k in (0, 2, 4):
                g = make_gsk(s, k)
                assert uniform_distance(g, identity(k + 1)) == pytest.approx(expected)

    def test_unit_strength_value(self):
        d = uniform_distance(make_gsk(1.0, 5), identity(6))
        assert d == pytest.approx(0.7653668647301796, abs=1e-12)

    def test_distance_embeds_consistently(self):
        g = random_element(1, RngStream(38).generator())
        h = random_element(3, RngStream(39).generator())
        d = uniform_distance(g, h)
        assert d == pytest.approx(uniform_distance(embed(g, 3), h))

    def test_distance_is_symmetric_and_zero_on_self(self):
        g = random_element(2, RngStream(40).generator())
        assert uniform_distance(g, g) == 0.0
        h = random_element(2, RngStream(41).generator())
        assert uniform_distance(g, h) == pytest.approx(uniform_distance(h, g))
