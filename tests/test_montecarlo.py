"""Random streams, sharded tallies, Wilson intervals, and the estimators."""

import ast
import inspect
import math
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whirly_lab.montecarlo as montecarlo_module
from whirly_lab import (
    DepthMismatchError,
    GroupElement,
    JointTable,
    LevelVector,
    RngStream,
    acted_set,
    as_generator,
    affine_image,
    boolean_combine,
    compose,
    conditional_levels,
    default_block_size,
    disk_mass,
    disk_product,
    estimate_joint_events,
    estimate_measure,
    event_indicators,
    halfspace,
    identity,
    linear_reads,
    make_gsk,
    random_element,
    sample_levels,
    standard_complex,
    symmetric_difference,
    tally_blocks,
    whirly_search,
    wilson_interval,
)
from whirly_lab.montecarlo import ReadFactor, block_buffer


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(1 << 64)
        with pytest.raises(ValueError):
            RngStream(0, -2)

    def test_generator_is_repeatable(self):
        a = RngStream(5, 3).generator().standard_normal(8)
        b = RngStream(5, 3).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_blocks_are_distinct_and_stable(self):
        s = RngStream(5)
        a0 = s.block(0).standard_normal(8)
        a1 = s.block(1).standard_normal(8)
        assert np.max(np.abs(a0 - a1)) > 1e-3
        np.testing.assert_array_equal(a0, RngStream(5).block(0).standard_normal(8))

    def test_child_ids_nest_without_collision(self):
        root = RngStream(1, 0)
        first = {root.child(i).stream_id for i in range(63)}
        assert len(first) == 63
        grand = {root.child(0).child(i).stream_id for i in range(63)}
        assert not (first & grand)

    def test_child_index_bounds(self):
        with pytest.raises(ValueError):
            RngStream(1).child(63)
        with pytest.raises(ValueError):
            RngStream(1).child(-1)

    def test_as_generator_accepts_both(self):
        assert isinstance(as_generator(RngStream(2)), np.random.Generator)
        gen = RngStream(2).generator()
        assert as_generator(gen) is gen
        with pytest.raises(TypeError):
            as_generator(42)


class TestTallyBlocks:
    @staticmethod
    def _counting_fn(gen: np.random.Generator, count: int) -> np.ndarray:
        draws = gen.standard_normal(count)
        return np.array([count, int(np.count_nonzero(draws > 0))], dtype=np.int64)

    def test_counts_every_sample_once(self):
        out = tally_blocks(self._counting_fn, 10_001, RngStream(71), block_size=1000)
        assert out[0] == 10_001

    def test_worker_count_does_not_change_sums(self):
        serial = tally_blocks(self._counting_fn, 50_000, RngStream(72), block_size=4096, workers=1)
        threaded = tally_blocks(self._counting_fn, 50_000, RngStream(72), block_size=4096, workers=4)
        np.testing.assert_array_equal(serial, threaded)

    def test_complex_totals_are_worker_invariant(self):
        def complex_fn(gen, count):
            z = standard_complex(gen, (count, 3))
            return np.concatenate([z.sum(axis=0), (z * z).sum(axis=0)])

        serial = tally_blocks(complex_fn, 50_000, RngStream(73), block_size=4096, workers=1)
        threaded = tally_blocks(complex_fn, 50_000, RngStream(73), block_size=4096, workers=4)
        assert serial.dtype == np.complex128
        assert serial.tobytes() == threaded.tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_block_results_are_not_kept_per_block(self, workers):
        # A tally of 200 blocks holds its running total and the blocks in
        # flight, never one result per block.
        live: list[weakref.ref] = []
        most = []
        lock = threading.Lock()

        def large_fn(gen, count):
            part = np.full(4096, float(count))
            with lock:
                most.append(sum(ref() is not None for ref in live))
                live.append(weakref.ref(part))
            return part

        total = tally_blocks(large_fn, 200 * 64, RngStream(74), block_size=64, workers=workers)
        assert np.all(total == 200 * 64)
        assert max(most) <= 2 * workers + 2, max(most)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_are_refused_before_any_draw(self, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the worker count")

        monkeypatch.setattr(RngStream, "block", refuse)
        with pytest.raises(ValueError, match="workers must be positive"):
            tally_blocks(refuse, 10_000, RngStream(75), block_size=1000, workers=workers)

    def test_block_size_shrinks_with_depth(self):
        assert default_block_size(0) >= default_block_size(8)
        assert default_block_size(19) == 64
        # From depth 20 on, even the 64-sample floor exceeds the sampler
        # budget, so the size is refused rather than returned.
        for depth in range(20, 31):
            with pytest.raises(ValueError, match="budget"):
                default_block_size(depth)

    def test_blocks_hold_at_most_two_megabytes_above_the_floor(self):
        for depth in range(20):
            size = default_block_size(depth)
            values = size * ((2 << depth) - 1)
            # 2**17 complex values are 2 MB; only the 64-sample floor may exceed it.
            assert values <= 1 << 17 or size == 64, depth
        assert default_block_size(0) == 1 << 16


class TestBlockArena:
    """Each tally worker draws into buffers it reuses across its blocks, and
    no buffer outlives the tally or is shared by two workers."""

    def test_one_worker_reuses_its_leaf_array_across_blocks(self, monkeypatch):
        leaves = []

        def recording(depth, count, gen, out=None):
            levels = sample_levels(depth, count, gen, out)
            leaves.append(levels[-1])
            return levels

        monkeypatch.setattr(montecarlo_module, "sample_levels", recording)
        # The affine image reads its whole level 2: blocks of 16384, 16384 and 7232.
        target = affine_image(disk_product(2, 0j, 1.5), 2.0, 0.3 + 0j)
        estimate_measure(target, 2, 40_000, RngStream(140))
        assert [leaf.shape[0] for leaf in leaves] == [16384, 16384, 7232]
        assert all(np.shares_memory(leaves[0], leaf) for leaf in leaves[1:])

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_never_share_a_buffer(self, workers):
        seen: dict[int, set[int]] = {}
        lock = threading.Lock()

        def block(gen, count):
            buffer = block_buffer("x", (count, 8))
            mark = gen.standard_normal()
            buffer[:] = mark
            time.sleep(0.001)
            with lock:
                seen.setdefault(buffer.__array_interface__["data"][0], set()).add(threading.get_ident())
            # A buffer another worker wrote into meanwhile would have lost the mark.
            return np.array([count, int(np.all(buffer == mark))], dtype=np.int64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            total = tally_blocks(block, 40 * 64 - 5, RngStream(141), block_size=64, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert total.tolist() == [40 * 64 - 5, 40]
        assert all(len(threads) == 1 for threads in seen.values())
        assert len(seen) == len(set().union(*seen.values())) > 1

    def test_no_arena_is_held_after_the_tally(self):
        kept = []

        def block(gen, count):
            kept.append(block_buffer("x", (count, 4)))
            return np.array([count], dtype=np.int64)

        tally_blocks(block, 1000, RngStream(142), block_size=300)
        assert getattr(montecarlo_module._worker, "arena", None) is None
        assert all(np.shares_memory(kept[0], k) for k in kept[1:])
        assert not np.shares_memory(block_buffer("x", (300, 4)), kept[0])

    def test_no_arena_is_held_after_a_block_raises(self):
        def block(gen, count):
            block_buffer("x", (count, 4))
            raise RuntimeError("block failed")

        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="block failed"):
                tally_blocks(block, 1000, RngStream(143), block_size=300, workers=workers)
            assert getattr(montecarlo_module._worker, "arena", None) is None

    def test_outside_a_tally_every_buffer_is_fresh(self):
        a = block_buffer("x", (16, 4))
        b = block_buffer("x", (16, 4))
        assert a.shape == (16, 4) and a.dtype == np.complex128 and a.flags.c_contiguous
        assert not np.shares_memory(a, b)

    def test_a_sampler_called_outside_a_tally_draws_fresh_leaves(self, monkeypatch):
        leaves = []

        def recording(depth, count, gen, out=None):
            levels = sample_levels(depth, count, gen, out)
            leaves.append(levels[-1])
            return levels

        monkeypatch.setattr(montecarlo_module, "sample_levels", recording)
        _, block = event_indicators([affine_image(disk_product(2, 0j, 1.5), 2.0, 0.3 + 0j)])
        block(RngStream(144).block(0), 256)
        block(RngStream(144).block(1), 256)
        assert len(leaves) == 2 and not np.shares_memory(leaves[0], leaves[1])


class TestWilson:
    def test_frozen_anchor(self):
        low, high = wilson_interval(500, 1000)
        assert low == pytest.approx(0.46907, abs=5e-6)
        assert high == pytest.approx(0.53093, abs=5e-6)

    def test_boundary_cases(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and high < 0.1
        low, high = wilson_interval(100, 100)
        assert high == 1.0 and low > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, confidence=1.0)

    @pytest.mark.parametrize("samples", [20, 100, 1000, 10_000, 100_000])
    def test_lower_endpoint_clears_zero_exactly_with_a_hit(self, samples):
        # positivity_scan counts the nonzero hit counts as the z clear of zero.
        hits = range(samples + 1)
        assert [wilson_interval(h, samples)[0] > 0.0 for h in hits] == [h > 0 for h in hits]

    def test_normal_quantile_is_the_normal_ppf_bit_for_bit(self):
        from scipy import stats

        confidences = np.linspace(0.001, 0.999, 999)
        expected = stats.norm.ppf(0.5 * (1.0 + confidences))
        got = [montecarlo_module._normal_quantile(float(c)) for c in confidences]
        np.testing.assert_array_equal(got, expected)

    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=2000))
    @settings(deadline=None, derandomize=True, max_examples=60)
    def test_bracket_contains_point_estimate(self, hits, samples):
        hits = min(hits, samples)
        low, high = wilson_interval(hits, samples)
        assert 0.0 <= low <= hits / samples <= high <= 1.0


class TestEstimateMeasure:
    def test_matches_disk_mass(self):
        est = estimate_measure(disk_product(0, 0j, 1.0), 0, 100_000, RngStream(73))
        exact = disk_mass(1.0)
        assert abs(est.estimate - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / est.samples)
        assert est.ci_low < exact < est.ci_high

    def test_deeper_sampling_estimates_the_same_mass(self):
        est = estimate_measure(disk_product(0, 0j, 1.0), 3, 50_000, RngStream(74))
        exact = disk_mass(1.0)
        assert abs(est.estimate - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / est.samples)

    def test_validation(self):
        d = disk_product(2, 0j, 1.0)
        with pytest.raises(DepthMismatchError):
            estimate_measure(d, 1, 1000, RngStream(75))
        with pytest.raises(ValueError):
            estimate_measure(d, 2, 50, RngStream(75))

    @pytest.mark.parametrize("confidence", [1.5, 0.0])
    def test_bad_confidence_is_refused_before_any_draw(self, monkeypatch, confidence):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the confidence")

        monkeypatch.setattr(RngStream, "generator", refuse)
        monkeypatch.setattr(RngStream, "block", refuse)
        with pytest.raises(ValueError, match="confidence"):
            estimate_measure(disk_product(0, 0j, 1.0), 0, 3_000_000, RngStream(75), confidence=confidence)

    def test_worker_invariance_is_byte_exact(self):
        d = disk_product(1, 0j, 1.2)
        a = estimate_measure(d, 1, 30_000, RngStream(76), workers=1)
        b = estimate_measure(d, 1, 30_000, RngStream(76), workers=4)
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        est = estimate_measure(disk_product(0, 0j, 1.0), 0, 1000, RngStream(77))
        payload = est.json_dict()
        assert set(payload) == {"estimate", "ci", "samples", "hits", "seed", "confidence"}
        assert payload["ci"][0] == est.ci_low
        assert est.std_error == pytest.approx(
            math.sqrt(est.estimate * (1.0 - est.estimate) / est.samples)
        )


class TestConditionalMeasure:
    """One event and a ``given`` vector: a conditional measure."""

    def test_pinned_vector_in_set_gives_one(self):
        z = LevelVector(1, [0.1 + 0j, -0.1 + 0j])
        d = disk_product(1, z.entries, 0.5)
        table = estimate_joint_events([d], 1, 1000, RngStream(78), given=z)
        assert table.marginal(0) == 1.0

    def test_whirled_disk_given_zero_root(self):
        # conditioned on a zero root, the unit disk whirled at strength 1
        # has conditional mass equal to the mass of the sqrt(2)-dilated disk
        z = LevelVector(0, [0j])
        moved = acted_set(make_gsk(1.0, 0), disk_product(0, 0j, 1.0))
        table = estimate_joint_events([moved], 1, 100_000, RngStream(79), given=z)
        exact = disk_mass(math.sqrt(2.0))
        assert abs(table.marginal(0) - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / table.samples)

    def test_depth_must_reach_both_levels(self):
        z = LevelVector(2, np.zeros(4, dtype=complex))
        d = disk_product(0, 0j, 1.0)
        with pytest.raises(DepthMismatchError):
            estimate_joint_events([d], 1, 1000, RngStream(80), given=z)


class TestJointEvents:
    def test_single_event_marginal_matches_estimate(self):
        d = disk_product(0, 0j, 1.0)
        table = estimate_joint_events([d], 0, 80_000, RngStream(81))
        exact = disk_mass(1.0)
        assert abs(table.marginal(0) - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / table.samples)

    def test_exclusive_events_never_cooccur(self):
        d = disk_product(0, 0j, 1.0)
        table = estimate_joint_events([d, boolean_combine("complement", [d])], 0, 5000, RngStream(82))
        assert table.cell([1, 1]) == 0.0
        assert table.cell([0, 0]) == 0.0
        assert table.marginal(0) + table.marginal(1) == pytest.approx(1.0)

    def test_independent_coordinates_factorize(self):
        first = disk_product(1, 0j, [1.0, math.inf])
        second = disk_product(1, 0j, [math.inf, 1.0])
        table = estimate_joint_events([first, second], 1, 100_000, RngStream(83))
        p0, p1 = table.marginal(0), table.marginal(1)
        joint = table.cell([1, 1])
        se = 2.0 * math.sqrt(p0 * p1 * (1.0 - p0 * p1) / table.samples)
        assert abs(joint - p0 * p1) < 4.0 * se

    def test_counts_are_worker_invariant(self):
        d = disk_product(0, 0j, 1.0)
        a = estimate_joint_events([d, acted_set(make_gsk(1.0, 0), d)], 1, 30_000, RngStream(84), workers=1)
        b = estimate_joint_events([d, acted_set(make_gsk(1.0, 0), d)], 1, 30_000, RngStream(84), workers=4)
        assert a.counts == b.counts

    def test_event_count_bounds(self):
        d = disk_product(0, 0j, 1.0)
        with pytest.raises(ValueError):
            estimate_joint_events([], 0, 1000, RngStream(85))
        with pytest.raises(ValueError):
            estimate_joint_events([d] * 13, 0, 1000, RngStream(85))

    def test_depth_decides_nothing(self):
        disk = disk_product(0, 0j, 1.0)
        # The depths the benchmark passes: whirl-deep's table and the determinism probe.
        whirls = [acted_set(make_gsk(0.5, k), disk) for k in range(12)]
        assert sum(estimate_joint_events(whirls, 12, 1000, RngStream(87)).counts) == 1000
        probe = [acted_set(make_gsk(0.5, k), disk) for k in (0, 1)]
        assert sum(estimate_joint_events(probe, 2, 1000, RngStream(87)).counts) == 1000
        deep = estimate_joint_events([disk], 40, 1000, RngStream(87))
        assert deep.json_dict() == estimate_joint_events([disk], 0, 1000, RngStream(87)).json_dict()

    def test_over_budget_family_is_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the budget")

        # 64 realizations of level 20 hold over 2**26 values.
        z = LevelVector(20, np.zeros(1 << 20, dtype=complex))
        for name in ("standard_complex", "sample_levels", "conditional_levels"):
            monkeypatch.setattr(montecarlo_module, name, no_draw)
        with pytest.raises(ValueError, match="budget"):
            estimate_joint_events([disk_product(20, 0j, 1.5)], 20, 1000, RngStream(1), given=z)

    def test_json_shape(self):
        d = disk_product(0, 0j, 1.0)
        table = estimate_joint_events([d], 0, 1000, RngStream(86))
        payload = table.json_dict()
        assert set(payload) == {"events", "counts", "samples", "seed"}
        assert sum(payload["counts"]) == payload["samples"]


def _oracle_table(events, depth: int, samples: int, seed: int, given=None) -> JointTable:
    """Joint table of ``events`` on full trees to ``depth`` from
    ``sample_levels``, or from ``conditional_levels`` with ``given``: the
    reference every path of ``event_indicators`` is tested against."""

    def block(gen, count):
        if given is None:
            levels = sample_levels(depth, count, gen)
        else:
            levels = conditional_levels(given.entries, given.level, depth, count, gen)
        code = np.zeros(count, dtype=np.int64)
        for j, e in enumerate(events):
            code |= e.indicator(levels).astype(np.int64) << j
        return np.bincount(code, minlength=1 << len(events))

    counts = tally_blocks(block, samples, RngStream(seed), block_size=default_block_size(depth))
    return JointTable(len(events), tuple(int(c) for c in counts), samples, seed)


def _max_cell_sigma(a, b) -> float:
    """Largest gap between two independent tables' cells, in standard errors."""
    pa, pb = a.probs, b.probs
    se = np.sqrt(pa * (1.0 - pa) / a.samples + pb * (1.0 - pb) / b.samples)
    gap = np.abs(pa - pb)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(gap == 0.0, 0.0, gap / se)))


class TestInnovationPath:
    """Whirled families sampled in innovation coordinates agree in law with
    the same families evaluated on full trees."""

    SAMPLES = 40_000

    def _agree(self, events, depth, seed, given=None):
        fast = estimate_joint_events(events, depth, self.SAMPLES, RngStream(seed), given=given)
        slow = _oracle_table(events, depth, self.SAMPLES, seed + 1, given=given)
        assert _max_cell_sigma(fast, slow) < 4.0
        # The innovation path never reads levels below N + 1, so depth does not
        # change its draws.
        deeper = estimate_joint_events(events, depth + 2, self.SAMPLES, RngStream(seed), given=given)
        assert deeper.counts == fast.counts
        return fast, slow

    def test_unconditional_whirled_events(self):
        disk = disk_product(0, 0j, 1.0)
        self._agree([acted_set(make_gsk(0.5, k), disk) for k in range(4)], 4, 201)

    def test_events_given_a_level_2_vector(self):
        disk = disk_product(2, 0j, 1.5)
        given = LevelVector(2, [0.3, -0.5j, 1.0 + 0.2j, 0.1])
        self._agree([acted_set(make_gsk(1.0, k), disk) for k in range(2, 5)], 5, 203, given=given)

    def test_repeated_bit_gives_identical_events(self):
        disk = disk_product(1, 0.2 + 0j, 1.0)
        events = [acted_set(make_gsk(0.5, k), disk) for k in (1, 1, 2)]
        fast, slow = self._agree(events, 3, 205)
        for table in (fast, slow):
            assert table.cell([1, 0, 0]) == table.cell([0, 1, 0]) == 0.0
            assert table.cell([1, 0, 1]) == table.cell([0, 1, 1]) == 0.0
        assert fast.cell([1, 1, 0]) > 0.05

    def test_non_conjugate_two_phase_element(self):
        disk = disk_product(1, 0.5 + 0.2j, 1.2)
        skew = GroupElement(3, np.tile(np.exp([0.4j, 2.1j]), 4))
        self._agree([acted_set(skew, disk), acted_set(make_gsk(0.8, 1), disk)], 3, 207)

    def test_identity_element(self):
        disk = disk_product(0, 0j, 1.0)
        fast, _ = self._agree([acted_set(identity(2), disk), acted_set(make_gsk(0.5, 1), disk)], 2, 209)
        exact = disk_mass(1.0)
        assert abs(fast.marginal(0) - exact) < 4.0 * math.sqrt(exact * (1.0 - exact) / fast.samples)

    def test_innovation_path_is_worker_invariant(self):
        events = [acted_set(make_gsk(0.5, k), disk_product(0, 0j, 1.0)) for k in range(3)]
        a = estimate_joint_events(events, 3, 150_000, RngStream(211), workers=1)
        b = estimate_joint_events(events, 3, 150_000, RngStream(211), workers=4)
        assert a.counts == b.counts

    def test_blocks_are_sized_for_the_level_the_draws_reach(self):
        events = [acted_set(make_gsk(0.5, k), disk_product(6, 0j, 1.0)) for k in (6, 11)]
        assert event_indicators(events)[0] == default_block_size(7)
        # The same sets as one-operand unions make 128 reads of their level-12
        # vector, padded to level 7.
        unions = [boolean_combine("union", [e]) for e in events]
        assert event_indicators(unions)[0] == default_block_size(7)
        # A set that reads its whole level is drawn at that level.
        assert event_indicators([disk_product(3, 0j, 1.0)])[0] == default_block_size(3)


def _scrambled_family():
    """Two acted level-0 disks, one through a scrambling element, so the
    innovation path cannot take them; two reads of the level-2 vector."""
    d0 = disk_product(0, 0j, 1.0)
    scrambled = random_element(2, RngStream(90).generator())
    return [acted_set(scrambled, d0), acted_set(make_gsk(0.5, 1), d0)]


def _bit_above_base_family():
    """Bit 0 lies above the level-2 base, so the innovation path cannot take
    it; eight reads of the level-3 vector, so neither can the read path."""
    d2 = disk_product(2, 0j, 1.5)
    return [acted_set(make_gsk(0.5, 0), d2), acted_set(make_gsk(0.5, 2), d2)]


def _off_center_family():
    """Two reads of the level-3 vector with a strongly complex correlation and
    off-center disks of different mass, so a transposed, unconjugated or
    reordered read sampler changes the joint law."""
    gen = RngStream(102).generator()
    g = random_element(3, gen)
    h = compose(g, GroupElement(3, np.exp(1j * gen.uniform(0.8, 1.2, size=8))))
    return [
        acted_set(g, disk_product(0, 0.8 - 0.3j, 1.3)),
        acted_set(h, disk_product(0, -0.4 + 0.6j, 1.0)),
    ]


_GIVEN_1 = LevelVector(1, [0.4 - 0.2j, -0.6 + 0.1j])
_GIVEN_2 = LevelVector(2, [0.3, -0.5j, 1.0 + 0.2j, 0.1])


def _conditional_family():
    """Given a level-1 vector; bit 0 lies above the level-2 base."""
    d1 = disk_product(1, 0.3j, 1.2)
    d2 = disk_product(2, 0j, 1.5)
    return [acted_set(make_gsk(0.5, 0), d2), acted_set(random_element(2, RngStream(103).generator()), d1)]


class TestOtherFamilies:
    """Families the innovation path cannot take agree in law with full trees."""

    SAMPLES = 200_000

    @pytest.mark.parametrize(
        "make, given",
        [
            (_scrambled_family, None),
            (_bit_above_base_family, None),
            (_off_center_family, None),
            (_conditional_family, _GIVEN_1),
        ],
        ids=["scrambled-reads", "bit-above-base", "off-center-reads", "conditional"],
    )
    def test_agree_in_law_with_full_trees(self, make, given):
        events = make()
        depth = max(e.level for e in events) + 1
        fast = estimate_joint_events(events, depth, self.SAMPLES, RngStream(104), given=given)
        slow = _oracle_table(events, depth, self.SAMPLES, 105, given=given)
        assert np.all(fast.probs > 0.01)
        assert _max_cell_sigma(fast, slow) < 4.0


def _continuity_set():
    gen = RngStream(93).generator()
    g = random_element(6, gen)
    h = compose(g, GroupElement(6, np.exp(1j * gen.uniform(-0.6, 0.6, size=64))))
    disk = disk_product(0, 0j, 1.0)
    return symmetric_difference(acted_set(g, disk), acted_set(h, disk))


def _acted_halfspace():
    gen = RngStream(94).generator()
    return acted_set(random_element(3, gen), halfspace(1, [1.0 + 0.5j, -0.7j], 0.4))


def _affine_in_intersection():
    gen = RngStream(95).generator()
    g = random_element(3, gen)
    # h is g turned by about one radian, so the two reads are strongly
    # correlated with a complex correlation, which a wrongly conjugated or
    # transposed factor would change.
    h = compose(g, GroupElement(3, np.exp(1j * gen.uniform(0.8, 1.2, size=8))))
    moved = affine_image(acted_set(g, disk_product(0, 0.8 - 0.3j, 1.3)), 1.4, 0.5 + 0.6j)
    plane = acted_set(h, halfspace(0, 1.0 - 1.0j, 0.3))
    return boolean_combine("intersection", [moved, boolean_combine("complement", [plane])])


def _measure_of(make):
    """``run(extra_depth, workers)``: the JSON of a 30k-sample estimate of ``make()``."""

    def run(extra: int, workers: int) -> str:
        target = make()
        est = estimate_measure(target, target.level + extra, 30_000, RngStream(98), workers=workers)
        return est.to_json()

    return run


def _joint_table_of(make, given=None):
    """``run(extra_depth, workers)``: the counts of a 30k-sample joint table of ``make()``."""

    def run(extra: int, workers: int) -> tuple:
        events = make()
        depth = max(e.level for e in events) + extra
        return estimate_joint_events(events, depth, 30_000, RngStream(98), given=given, workers=workers).counts

    return run


def _search_of(make):
    """``run(extra_depth, workers)``: the report JSON, runtime excluded, of a
    whirly search on ``make()``; the search has no depth, so ``extra_depth``
    is ignored.  140k inner samples put the scanned fiber in three blocks."""

    def run(extra: int, workers: int) -> str:
        report = whirly_search(
            make(), 0.5, 2000, 3, RngStream(98), z_samples=20, inner_samples=140_000, workers=workers
        )
        return report.to_json()

    return run


class TestReadPath:
    """Sets that read fewer values than their level holds are sampled
    through the exact joint law of their reads."""

    SAMPLES = 200_000

    @pytest.mark.parametrize(
        "make",
        [_continuity_set, _acted_halfspace, _affine_in_intersection],
        ids=["continuity", "acted-halfspace", "affine-in-intersection"],
    )
    def test_agrees_in_law_with_level_draws(self, make):
        target = make()
        assert linear_reads([target], 1 << target.level).rows.size == 2
        fast = estimate_measure(target, target.level, self.SAMPLES, RngStream(96))
        p = _oracle_table([target], target.level, self.SAMPLES, 97).marginal(0)
        se = math.sqrt(p * (1.0 - p) / self.SAMPLES)
        assert 0.05 < p < 0.95
        assert abs(fast.estimate - p) < 4.0 * math.hypot(fast.std_error, se)

    @pytest.mark.parametrize(
        "run",
        [
            _measure_of(_continuity_set),
            _measure_of(lambda: disk_product(1, 0j, 1.2)),
            _joint_table_of(_scrambled_family),
            _joint_table_of(_conditional_family, _GIVEN_1),
            _search_of(lambda: boolean_combine("union", [disk_product(0, 0j, 1.0), disk_product(0, 1.0, 0.8)])),
        ],
        ids=["reads", "level", "joint-reads", "joint-given", "scanned-fiber"],
    )
    def test_depth_and_workers_do_not_change_the_draws(self, run):
        assert run(0, 1) == run(3, 1) == run(0, 4)

    def test_draws_only_the_reads(self, monkeypatch):
        shapes = []

        def recording(gen, shape, out=None):
            shapes.append(shape)
            return standard_complex(gen, shape, out)

        def refuse(*args, **kwargs):
            raise AssertionError("drew a level vector")

        monkeypatch.setattr(montecarlo_module, "standard_complex", recording)
        monkeypatch.setattr(montecarlo_module, "sample_levels", refuse)
        estimate_measure(_continuity_set(), 6, 70_000, RngStream(99))
        assert {shape[1] for shape in shapes} == {2}
        assert sum(shape[0] for shape in shapes) == 70_000

    def test_sets_that_read_their_whole_level_draw_only_that_level(self, monkeypatch):
        depths = []

        def recording(depth, count, gen, out=None):
            depths.append(depth)
            return sample_levels(depth, count, gen, out)

        monkeypatch.setattr(montecarlo_module, "sample_levels", recording)
        # The affine image reads all four level-2 values.
        target = affine_image(disk_product(2, 0j, 1.5), 2.0, 0.3 + 0j)
        estimate_measure(target, 5, 1000, RngStream(100))
        assert set(depths) == {2}

    def test_depth_decides_nothing(self):
        disk = disk_product(0, 0j, 1.0)
        deep = estimate_measure(disk, 40, 1000, RngStream(101))
        assert deep.to_json() == estimate_measure(disk, 0, 1000, RngStream(101)).to_json()

    def test_budget_is_checked_on_the_level_the_blocks_fill(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the budget")

        # 64 realizations of level 19 hold just under 2**26 values; of level 20, over.
        assert event_indicators([disk_product(19, 0j, 1.5)])[0] == 64
        for name in ("standard_complex", "sample_levels", "conditional_levels"):
            monkeypatch.setattr(montecarlo_module, name, no_draw)
        with pytest.raises(ValueError, match="budget"):
            estimate_measure(disk_product(20, 0j, 1.5), 20, 1000, RngStream(101))


def _disjoint_family():
    """One off-center level-4 disk acted on by a level-5 element: 16 reads of
    disjoint sibling pairs, so 16 support groups of one read each."""
    return [acted_set(random_element(5, RngStream(113).generator()), disk_product(4, 0.3 - 0.2j, 2.2))]


def _paired_family():
    """Two off-center level-1 disks acted on by correlated level-3 elements:
    four reads in two support groups of two, each with a complex correlation."""
    gen = RngStream(114).generator()
    g = random_element(3, gen)
    h = compose(g, GroupElement(3, np.exp(1j * gen.uniform(0.8, 1.2, size=8))))
    return [
        acted_set(g, disk_product(1, [0.8 - 0.3j, -0.2 + 0.5j], 1.3)),
        acted_set(h, disk_product(1, [-0.4 + 0.6j, 0.3 + 0.1j], 1.1)),
    ]


def _dense_group_family():
    """Three acted level-0 disks through level-2 scrambling elements: three
    reads (``3 < 4``) in one group whose factor has three off-diagonal entries."""
    gen = RngStream(115).generator()
    return [acted_set(random_element(2, gen), disk_product(0, 0j, 1.0)) for _ in range(3)]


def _mixed_family():
    """A level-0 and a level-1 disk in one union and a level-1 halfspace, all
    acted on by level-4 elements: five reads in one group, because the
    coarsest leaf is at level 0."""
    gen = RngStream(116).generator()
    g, h, k = (random_element(4, gen) for _ in range(3))
    return [
        boolean_combine("union", [
            acted_set(g, disk_product(0, 0.2 - 0.1j, 1.0)),
            acted_set(h, disk_product(1, [0.3 + 0j, -0.4j], 1.2)),
        ]),
        acted_set(k, halfspace(1, [1.0 + 0j, 0.5j], 0.1)),
    ]


class TestGroupedReads:
    """Reads are factored per support group and applied by column updates."""

    SAMPLES = 200_000

    @pytest.mark.parametrize("make", [_disjoint_family, _paired_family], ids=["disjoint", "paired"])
    def test_agree_in_law_with_full_trees(self, make):
        events = make()
        depth = max(e.level for e in events)
        fast = estimate_joint_events(events, depth, self.SAMPLES, RngStream(125))
        slow = _oracle_table(events, depth, self.SAMPLES, 126)
        assert np.all(fast.probs > 0.01)
        assert _max_cell_sigma(fast, slow) < 4.0

    def test_groups_of_the_grammar(self):
        for make, shape, sizes in [
            (_disjoint_family, (16, 1, 2), [1] * 16),
            (_paired_family, (2, 2, 4), [2, 2]),
            (_dense_group_family, (1, 3, 4), [3]),
        ]:
            reads = linear_reads(make(), 63)
            assert reads.groups.shape == shape
            assert reads.rows.shape == shape[:2]
            factor = ReadFactor.of(reads, 64)
            assert len(factor.updates) == sum(k * (k - 1) // 2 for k in sizes)
            assert ReadFactor.of(reads, reads.rows.size + len(factor.updates)) is None
            assert ReadFactor.of(reads, reads.rows.size + len(factor.updates) + 1) is not None

    # ``ReadFactor`` of each family, recorded when every support group was
    # factored by its own QR: the family, the bits of ``diagonal`` (real and
    # imaginary parts) and of each update ``(i, j, real, imag)``, sorted by
    # ``(i, j)``.
    PINNED = {
        "disjoint": (
            _disjoint_family,
            [0xBFF0000000000000, 0x8000000000000000, 0xBFF0000000000001, 0x8000000000000000,
             0x3FF0000000000001, 0x8000000000000000, 0xBFF0000000000001, 0x8000000000000000,
             0xBFF0000000000001, 0x8000000000000000, 0x3FF0000000000001, 0x8000000000000000,
             0x3FF0000000000001, 0x8000000000000000, 0x3FF0000000000001, 0x8000000000000000,
             0xBFF0000000000001, 0x8000000000000000, 0xBFF0000000000001, 0x8000000000000000,
             0xBFF0000000000001, 0x8000000000000000, 0x3FF0000000000001, 0x8000000000000000,
             0x3FF0000000000000, 0x8000000000000000, 0x3FF0000000000000, 0x8000000000000000,
             0x3FF0000000000001, 0x8000000000000000, 0xBFF0000000000001, 0x8000000000000000],
            [],
        ),
        "paired": (
            _paired_family,
            [0xBFF0000000000000, 0x8000000000000000, 0xBFF0000000000000, 0x8000000000000000,
             0xBFB763641E4FCBA7, 0x8000000000000000, 0xBFC140FE191E1BC1, 0x8000000000000000],
            [(0, 2, 0xBFDF6E6CCEC7B38C, 0x3FEBB8A73898A0B9), (1, 3, 0xBFE0E34AA2F8123C, 0x3FEAD6209BFCC93F)],
        ),
        "dense-group": (
            _dense_group_family,
            [0x3FF0000000000000, 0x8000000000000000, 0x3FEFB8175ED249FA, 0x8000000000000000,
             0x3FE6B0A20555B966, 0x8000000000000000],
            [(0, 1, 0x3F72A9808C4FC140, 0x3FC0E998ECDF2299), (0, 2, 0xBFE1537263E925F0, 0xBFCEF6C2F504FAB0),
             (1, 2, 0x3FBEEAAF9335D520, 0xBFD72971BA677EDD)],
        ),
        "continuity": (
            lambda: [_continuity_set()],
            [0x3FF0000000000001, 0x8000000000000000, 0xBFD4FBBBCB52F7D7, 0x8000000000000000],
            [(0, 1, 0x3FEE373E01DB7BB6, 0xBF9EE028FF011CB0)],
        ),
        "mixed": (
            _mixed_family,
            [0x3FEFFFFFFFFFFFFF, 0x8000000000000000, 0xBFEEFF357605AF6E, 0x8000000000000000,
             0x3FEF758F8353FB28, 0x8000000000000000, 0xBFE841385047656C, 0x8000000000000000,
             0x3FE8907DBACD28F4, 0x8000000000000000],
            [(0, 1, 0xBFB44F5A5BD38AA0, 0x3FCE21CF9826E864), (0, 2, 0x3FC698FDCF0A24A0, 0x3F910CB684BB090F),
             (0, 3, 0x3FCA05C20E7E0969, 0xBFD01CDBE2B40ED5), (0, 4, 0xBFB8B26A4A767645, 0xBF9315CDA954DBD9),
             (1, 2, 0xBF85537BB4DC89FC, 0xBFA6AA53FF7F6F7A), (1, 3, 0x3FE1EC67D92C4CB6, 0x3FB3BEA8D9866EDE),
             (1, 4, 0x3F6B9F76DDD6F9CC, 0x3F99922DA97B9487), (2, 3, 0xBF97630F752FE484, 0x3F98D4F4AF825420),
             (2, 4, 0xBFE18A13AFD2F4C4, 0xBFD43A34D347E315), (3, 4, 0xBF80E4A1E82C4B38, 0x3F80A48198F65AD0)],
        ),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_factor_bits_are_pinned(self, name):
        make, diagonal, updates = self.PINNED[name]
        factor = ReadFactor.of(linear_reads(make(), 63), 64)
        assert factor.diagonal.view(np.uint64).tolist() == diagonal
        bits = [(i, j, *np.array([v]).view(np.uint64).tolist()) for i, j, v in sorted(factor.updates)]
        assert bits == updates

    def test_continuity_product_matches_the_dense_factor(self):
        reads = linear_reads([_continuity_set()], 63)
        assert reads.groups.shape == (1, 2, 64) and reads.rows.tolist() == [[0, 1]]
        dense = np.conj(np.linalg.qr(reads.groups[0].conj().T, mode="r"))
        factor = ReadFactor.of(reads, 64)
        z = standard_complex(RngStream(121).generator(), (4096, 2))
        expected = z @ dense
        xi = factor.apply(z, 2)
        assert np.max(np.abs(xi - expected)) <= 1e-13 * np.max(np.abs(expected))
        padded = factor.apply(z, 4)
        np.testing.assert_array_equal(padded[:, :2], xi)
        assert not padded[:, 2:].any()


_BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}
_PACKAGE = Path(montecarlo_module.__file__).parent


def _blas_uses(code) -> list[str]:
    """Matrix products in the source of one function."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(code)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{code.co_name}: @")
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append(f"{code.co_name}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id in _BLAS_NAMES:
            found.append(f"{code.co_name}: {node.id}")
    return found


class TestNoBlasInBlocks:
    """No block sampler that event_indicators returns runs a matrix product:
    every function it enters, in this package or in NumPy, is checked."""

    @pytest.mark.parametrize(
        "events, given",
        [
            ([_continuity_set()], None),
            ([_acted_halfspace()], None),
            ([_affine_in_intersection()], None),
            (_disjoint_family(), None),
            (_paired_family(), None),
            (_dense_group_family(), None),
            ([halfspace(2, [1.0, -0.5j, 0.3 + 0.2j, 1j], 0.2)], None),
            ([acted_set(make_gsk(0.5, k), disk_product(0, 0j, 1.0)) for k in range(3)], None),
            ([acted_set(make_gsk(1.0, k), disk_product(2, 0j, 1.5)) for k in range(2, 4)], _GIVEN_2),
            (_conditional_family(), _GIVEN_1),
        ],
        ids=["continuity", "halfspace-reads", "affine-reads", "disjoint", "paired", "dense-group",
             "halfspace-level", "whirled", "whirled-given", "conditional"],
    )
    def test_blocks_make_no_matrix_product(self, events, given):
        _, block = event_indicators(events, given=given)
        codes, builtins = set(), set()

        def profile(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)
            elif event == "c_call":
                builtins.add(getattr(arg, "__name__", ""))

        sys.setprofile(profile)
        try:
            block(RngStream(122).block(0), 512)
        finally:
            sys.setprofile(None)
        ours = [c for c in codes if Path(c.co_filename).parent == _PACKAGE]
        assert any(c.co_name.endswith("_block") for c in ours)
        assert not [u for c in ours for u in _blas_uses(c)]
        assert not {c.co_name for c in codes} & {"einsum", "tensordot"}
        assert not builtins & _BLAS_NAMES


def _recorded_draws(monkeypatch, run) -> list[tuple[str, int]]:
    """Every draw ``run()`` makes through the estimators: ``("levels", depth)``,
    ``("conditional", depth)`` or ``("normals", width)``, in order."""
    calls = []

    def levels(depth, count, gen, out=None):
        calls.append(("levels", depth))
        return sample_levels(depth, count, gen, out)

    def conditional(entries, level, depth, count, gen):
        calls.append(("conditional", depth))
        return conditional_levels(entries, level, depth, count, gen)

    def normals(gen, shape, out=None):
        calls.append(("normals", shape[1]))
        return standard_complex(gen, shape, out)

    monkeypatch.setattr(montecarlo_module, "sample_levels", levels)
    monkeypatch.setattr(montecarlo_module, "conditional_levels", conditional)
    monkeypatch.setattr(montecarlo_module, "standard_complex", normals)
    run()
    return calls


class TestSelectionRule:
    """Which draws each family gets, on the families the benchmark traces:
    one block of 1000 samples each."""

    @pytest.mark.parametrize(
        "run, draws",
        [
            # whirl-deep's joint table: the root, then one U_k per bit.
            (
                lambda: estimate_joint_events(
                    [acted_set(make_gsk(0.5, k), disk_product(0, 0j, 1.0)) for k in range(12)],
                    12, 1000, RngStream(106),
                ),
                [("levels", 0)] + [("normals", 1)] * 12,
            ),
            # cylinder-mix's conditional table: pinned level 2, then one U_k per bit.
            (
                lambda: estimate_joint_events(
                    [acted_set(make_gsk(1.0, k), disk_product(2, 0j, 1.5)) for k in range(2, 6)],
                    6, 1000, RngStream(107), given=_GIVEN_2,
                ),
                [("conditional", 2)] + [("normals", 4)] * 4,
            ),
            # A single whirled set, as in the README's quick start.
            (
                lambda: estimate_measure(acted_set(make_gsk(1.0, 3), disk_product(2, 0j, 1.0)), 5, 1000, RngStream(108)),
                [("levels", 2), ("normals", 4)],
            ),
            # The continuity set: two reads.
            (lambda: estimate_measure(_continuity_set(), 6, 1000, RngStream(109)), [("normals", 2)]),
            # cylinder-mix's affine reference reads its whole level.
            (
                lambda: estimate_measure(
                    affine_image(disk_product(2, 0j, 1.5), math.sqrt(2.0), -_GIVEN_2.entries), 2, 1000, RngStream(110)
                ),
                [("levels", 2)],
            ),
            # A family the innovation path cannot take draws only its reads.
            (lambda: estimate_joint_events(_scrambled_family(), 5, 1000, RngStream(111)), [("normals", 2)]),
            # With given, the same kind of family draws its deepest level.
            (
                lambda: estimate_joint_events(_conditional_family(), 5, 1000, RngStream(112), given=_GIVEN_1),
                [("conditional", 2)],
            ),
            # Sixteen reads in groups of one: 16 + 0 < 32 draws of level 5.
            (lambda: estimate_joint_events(_disjoint_family(), 5, 1000, RngStream(123)), [("normals", 16)]),
            # Three reads in one group: 3 + 3 >= 4 draws of level 2.
            (lambda: estimate_joint_events(_dense_group_family(), 2, 1000, RngStream(124)), [("levels", 2)]),
        ],
        ids=[
            "whirled", "whirled-given", "single-whirled", "continuity", "affine-reference", "other-family",
            "other-given", "disjoint-reads", "dense-group",
        ],
    )
    def test_draws(self, monkeypatch, run, draws):
        assert _recorded_draws(monkeypatch, run) == draws
