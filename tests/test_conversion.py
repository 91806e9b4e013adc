"""Optimal probability, breakpoints, plans, multi-copy bounds.

The worked examples here were derived by hand from the tail-ratio
formula and are frozen as exact rationals; the plan construction is then
cross-checked against them entry by entry.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvert import (Breakpoints, ExactMonomial, InfeasibleConversionError,
                        InvalidStateError, MULTI_COPY_POSSIBLE,
                        SINGLE_COPY_OPTIMAL, SchmidtVector, breakpoints,
                        build_plan, intermediate_state, majorizes,
                        measurement_operators, multi_copy_bound,
                        optimal_probability, optimal_probability_detail,
                        tensor_conversion_probability, tensor_power)
from util import rand_float_schmidt, rand_majorized_below, rand_rational_schmidt

F = Fraction

ALPHA2 = SchmidtVector((F(4, 5), F(1, 5)))
BELL = SchmidtVector((F(1, 2), F(1, 2)))
ALPHA3 = SchmidtVector((F(1, 2), F(3, 10), F(1, 5)))
BETA3 = SchmidtVector((F(2, 5), F(2, 5), F(1, 5)))


class TestOptimalProbability:
    def test_skewed_pair_to_balanced(self):
        p, minimizer = optimal_probability_detail(ALPHA2, BELL)
        assert p == F(2, 5)
        assert minimizer == 2

    def test_float_mode(self):
        p = optimal_probability(SchmidtVector((0.8, 0.2)),
                                SchmidtVector((0.5, 0.5)))
        assert p == pytest.approx(0.4, abs=1e-12)

    def test_three_level_pair(self):
        p, minimizer = optimal_probability_detail(ALPHA3, BETA3)
        assert p == F(5, 6)
        assert minimizer == 2

    def test_certain_when_target_majorizes(self):
        assert optimal_probability(ALPHA3,
                                   SchmidtVector((F(1, 2), F(1, 3), F(1, 6)))) == 1
        assert optimal_probability(BELL, SchmidtVector((F(1), F(0)))) == 1

    def test_identity_conversion(self):
        p, minimizer = optimal_probability_detail(ALPHA3, ALPHA3)
        assert p == 1
        assert minimizer == 1  # ties resolve to the smallest tail index

    def test_zero_when_source_support_too_small(self):
        flat3 = SchmidtVector((F(1, 3),) * 3)
        assert optimal_probability(BELL, flat3) == 0

    def test_length_padding(self):
        padded = SchmidtVector((F(4, 5), F(1, 5), F(0)))
        assert optimal_probability(padded, BELL.padded(3)) == F(2, 5)
        assert optimal_probability(ALPHA2, BELL.padded(3)) == F(2, 5)

    def test_exact_in_exact_out(self):
        p = optimal_probability(ALPHA3, BETA3)
        assert isinstance(p, Fraction)

    @pytest.mark.parametrize("seed", range(10))
    def test_probability_one_iff_majorized(self, seed):
        rng = np.random.default_rng(500 + seed)
        a = rand_rational_schmidt(rng, 4)
        b = rand_rational_schmidt(rng, 4)
        assert (optimal_probability(a, b) == 1) == majorizes(a, b)

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=6),
           st.lists(st.integers(1, 40), min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_bounds_hypothesis(self, xs, ys):
        a = SchmidtVector.from_values([F(x, sum(xs)) for x in xs])
        b = SchmidtVector.from_values([F(y, sum(ys)) for y in ys])
        p = optimal_probability(a, b)
        assert 0 <= p <= 1


class TestBreakpoints:
    def test_two_level_example(self):
        bp = breakpoints(ALPHA2, BELL)
        assert bp.boundaries == (3, 2, 1)
        assert bp.ratios == (F(2, 5), F(8, 5))

    def test_three_level_example(self):
        bp = breakpoints(ALPHA3, BETA3)
        assert bp.boundaries == (4, 2, 1)
        assert bp.ratios == (F(5, 6), F(5, 4))

    def test_single_segment_when_equal(self):
        bp = breakpoints(ALPHA3, ALPHA3)
        assert bp.boundaries == (4, 1)
        assert bp.ratios == (F(1),)

    def test_infeasible_raises(self):
        flat3 = SchmidtVector((F(1, 3),) * 3)
        with pytest.raises(InfeasibleConversionError):
            breakpoints(BELL, flat3)

    def test_trailing_zero_pairs_dropped(self):
        bp = breakpoints(ALPHA2.padded(4), BELL.padded(4))
        assert bp.boundaries == (3, 2, 1)

    def test_segments_iteration(self):
        bp = breakpoints(ALPHA3, BETA3)
        assert list(bp.segments()) == [(1, 2, 3), (2, 1, 1)]

    def test_validation(self):
        with pytest.raises(InvalidStateError):
            Breakpoints((3, 2), (F(1, 2), F(1, 4)))  # length mismatch
        with pytest.raises(InvalidStateError):
            Breakpoints((3, 2, 1), (F(1, 2), F(1, 4)))  # ratios must increase
        with pytest.raises(InvalidStateError):
            Breakpoints((2, 3, 1), (F(1, 4), F(1, 2)))  # not descending
        with pytest.raises(InvalidStateError):
            Breakpoints((3, 1), (F(3, 2),))  # leading ratio above 1

    @pytest.mark.parametrize("seed", range(12))
    def test_ratios_strictly_increase_randomized(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 7))
        a = rand_rational_schmidt(rng, n)
        b = rand_rational_schmidt(rng, n)
        bp = breakpoints(a, b)
        assert all(x < y for x, y in zip(bp.ratios, bp.ratios[1:]))
        assert bp.ratios[0] == optimal_probability(a, b)


class TestIntermediateState:
    def test_two_level_gamma_equals_source(self):
        bp = breakpoints(ALPHA2, BELL)
        gamma = intermediate_state(bp, BELL)
        assert gamma.probs == ALPHA2.probs

    def test_three_level_gamma(self):
        bp = breakpoints(ALPHA3, BETA3)
        gamma = intermediate_state(bp, BETA3)
        assert gamma.probs == (F(1, 2), F(1, 3), F(1, 6))

    def test_dimension_mismatch(self):
        bp = breakpoints(ALPHA3, BETA3)
        with pytest.raises(ValueError):
            intermediate_state(bp, BELL)

    @pytest.mark.parametrize("seed", range(12))
    def test_gamma_majorizes_source(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 7))
        a = rand_rational_schmidt(rng, n)
        b = rand_rational_schmidt(rng, n)
        bp = breakpoints(a, b)
        gamma = intermediate_state(bp, b)
        assert majorizes(a, gamma)
        assert sum(gamma.probs) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_gamma_is_made_from_integers(self, seed):
        rng = np.random.default_rng(950 + seed)
        n = int(rng.integers(2, 9))
        b = rand_rational_schmidt(rng, n)
        bp = breakpoints(rand_rational_schmidt(rng, n), b)
        gamma = intermediate_state(bp, b)
        assert "probs" not in vars(gamma)
        want = [None] * n
        for j, lo, hi in bp.segments():
            want[lo - 1:hi] = [bp.ratios[j - 1] * x
                               for x in b.probs[lo - 1:hi]]
        assert gamma._scaled == SchmidtVector(tuple(want))._scaled
        assert gamma.probs == tuple(want)

    def test_ratios_that_do_not_sum_to_one_are_refused(self):
        # a hand-made segment ratio of 1/2 scales the target to half
        with pytest.raises(InvalidStateError,
                           match="exact entries sum to 1/2, not 1"):
            intermediate_state(Breakpoints((3, 1), (F(1, 2),)), BELL)


class TestMeasurementOperators:
    def test_two_level_filter(self):
        bp = breakpoints(ALPHA2, BELL)
        success, failure = measurement_operators(bp)
        assert success.squared == (F(1, 4), F(1))
        assert failure.squared == (F(3, 4), F(0))

    @pytest.mark.parametrize("seed", range(8))
    def test_filter_pair_is_made_from_integers(self, seed):
        # over the least common denominator, as the Fraction-built pair
        rng = np.random.default_rng(970 + seed)
        n = int(rng.integers(2, 9))
        bp = breakpoints(rand_rational_schmidt(rng, n),
                         rand_rational_schmidt(rng, n))
        success, failure = measurement_operators(bp)
        assert "squared" not in vars(success) | vars(failure)
        ratios = [bp.ratios[0] / bp.ratios[j - 1]
                  for j, lo, hi in reversed([*bp.segments()])
                  for _ in range(lo, hi + 1)]
        rows = tuple(range(n))
        for mono, squares in ((success, ratios),
                              (failure, [1 - s for s in ratios])):
            built = ExactMonomial(rows, tuple(squares))
            assert mono._scaled == built._scaled and mono == built

    def test_completeness_exact(self):
        bp = breakpoints(ALPHA3, BETA3)
        success, failure = measurement_operators(bp)
        assert all(s + f == 1 for s, f in zip(success.squared, failure.squared))

    def test_matrix_completeness_float(self):
        bp = breakpoints(ALPHA3, BETA3)
        success, failure = measurement_operators(bp)
        m, nmat = success.matrix, failure.matrix
        assert np.allclose(m.conj().T @ m + nmat.conj().T @ nmat,
                           np.eye(3), atol=1e-12)

    def test_success_branch_probability_is_r1(self):
        bp = breakpoints(ALPHA3, BETA3)
        gamma = intermediate_state(bp, BETA3)
        success, _ = measurement_operators(bp)
        prob = sum(g * s for g, s in zip(gamma.probs, success.squared))
        assert prob == bp.ratios[0] == F(5, 6)


class TestBuildPlan:
    def test_full_plan_two_level(self):
        plan = build_plan(ALPHA2, BELL)
        assert plan.probability == F(2, 5)
        assert plan.is_feasible and plan.is_exact
        assert plan.intermediate.probs == ALPHA2.probs
        assert plan.success_operator.squared == (F(1, 4), F(1))

    def test_degenerate_plan(self):
        flat3 = SchmidtVector((F(1, 3),) * 3)
        plan = build_plan(BELL, flat3)
        assert plan.probability == 0
        assert not plan.is_feasible
        assert plan.breakpoints is None
        assert plan.intermediate is None
        assert plan.success_operator is None

    def test_filter_maps_gamma_to_target(self):
        plan = build_plan(ALPHA3, BETA3)
        post = [g * s for g, s in zip(plan.intermediate.probs,
                                      plan.success_operator.squared)]
        total = sum(post)
        assert total == plan.probability
        assert tuple(p / total for p in post) == BETA3.probs

    @pytest.mark.parametrize("seed", range(15))
    def test_plan_probability_matches_closed_form(self, seed):
        # independent code paths: recursive segmentation vs direct minimum
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(2, 7))
        a = rand_rational_schmidt(rng, n)
        b = rand_rational_schmidt(rng, n)
        plan = build_plan(a, b)
        assert plan.probability == optimal_probability(a, b)

    @pytest.mark.parametrize("seed", range(8))
    def test_plan_float_mode(self, seed):
        rng = np.random.default_rng(1300 + seed)
        a = rand_float_schmidt(rng, 4)
        b = rand_float_schmidt(rng, 4)
        plan = build_plan(a, b)
        assert plan.probability == pytest.approx(
            float(optimal_probability(a, b)), abs=1e-12)

    @pytest.mark.parametrize("source, target", [
        ((0.5, 0.4999999988, 6e-10, 6e-10), (0.6, 0.4)),
        ((0.45, 0.35, 0.1999999985, 5e-10, 5e-10, 5e-10),
         (0.5, 0.3, 0.2)),
    ])
    def test_float_head_dropping_several_tiny_entries(self, source, target):
        # the dropped entries count as 0 but together exceed the 1e-9 sum
        # slack: the head is renormalized and planned on the given lift
        alpha, beta = SchmidtVector(source), SchmidtVector(target)
        plan = build_plan(alpha, beta)
        assert plan.source.n == beta.n
        assert abs(sum(plan.source.probs) - 1.0) <= 1e-9
        assert plan.source._scaled == (alpha._scaled[0][:beta.n],
                                       alpha._scaled[1])
        assert plan.probability == optimal_probability(alpha, beta)
        exact = build_plan(SchmidtVector(tuple(
            Fraction(x, alpha._scaled[1]) for x in alpha._scaled[0])), beta)
        assert plan.intermediate == exact.intermediate

    def test_failure_branch_shrinks_support(self):
        plan = build_plan(ALPHA3, BETA3)
        post = [g * f for g, f in zip(plan.intermediate.probs,
                                      plan.failure_operator.squared)]
        nonzero = sum(1 for p in post if p > 0)
        assert nonzero < BETA3.nonzero_count()


class TestMultiCopy:
    def test_two_level_pair_is_single_copy_optimal(self):
        bound = multi_copy_bound(ALPHA2, BELL)
        assert bound.m_max == F(2, 5)
        assert bound.regime == SINGLE_COPY_OPTIMAL

    def test_wide_source_allows_collective_strategies(self):
        flat9 = SchmidtVector((F(1, 9),) * 9)
        flat3 = SchmidtVector((F(1, 3),) * 3)
        assert multi_copy_bound(flat9, flat3).regime == MULTI_COPY_POSSIBLE

    def test_obstruction_blocks_joint_targets(self):
        # fewer source levels than the squared target count: no pair of
        # target copies can ever be cut from one source copy
        assert optimal_probability(ALPHA2, tensor_power(BELL, 2)) == 0

    def test_supermultiplicative_example(self):
        alpha = SchmidtVector((F(1, 2), F(1, 4), F(1, 4)))
        beta = SchmidtVector((F(2, 5), F(2, 5), F(1, 5)))
        p1 = optimal_probability(alpha, beta)
        p2 = tensor_conversion_probability(alpha, beta, 2)
        assert p1 == F(5, 6)
        assert p2 == F(25, 28)
        assert p2 > p1 * p1 == F(25, 36)

    def test_multiplicative_example(self):
        # the two-level pair gains nothing from joint processing
        p2 = tensor_conversion_probability(ALPHA2, BELL, 2)
        assert p2 == F(4, 25) == optimal_probability(ALPHA2, BELL) ** 2

    def test_copies_validation(self):
        with pytest.raises(ValueError):
            tensor_conversion_probability(ALPHA2, BELL, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_submultiplicative(self, seed):
        rng = np.random.default_rng(1500 + seed)
        a = rand_rational_schmidt(rng, 3)
        b = rand_rational_schmidt(rng, 3)
        p1 = optimal_probability(a, b)
        p2 = tensor_conversion_probability(a, b, 2)
        assert p2 >= p1 * p1


class TestDeterministicReachability:
    @pytest.mark.parametrize("seed", range(10))
    def test_mixing_reduces_below_parent(self, seed):
        rng = np.random.default_rng(1700 + seed)
        parent = rand_rational_schmidt(rng, 4)
        child = rand_majorized_below(rng, parent, steps=3)
        assert majorizes(child, parent)
        assert optimal_probability(child, parent) == 1
