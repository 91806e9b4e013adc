"""Tail monotones, the spectral functional, ensembles, entropy."""

from fractions import Fraction

import numpy as np
import pytest

from entconvert import (DensityOperator, Ensemble, InvalidStateError,
                        MonotoneVector, SchmidtVector, ensemble_average,
                        entanglement_monotone, entropy_of_entanglement,
                        monotone_profile, reduced_density,
                        schmidt_decompose, smallest_eigenvalue_sum)
from util import (haar_unitary, rand_density, rand_float_schmidt,
                  rand_rational_schmidt, rand_state)

F = Fraction


class TestEntanglementMonotone:
    def test_balanced_pair(self):
        sv = SchmidtVector((F(1, 2), F(1, 2)))
        assert entanglement_monotone(sv, 1) == 1
        assert entanglement_monotone(sv, 2) == F(1, 2)

    def test_three_level_profile(self):
        sv = SchmidtVector((F(1, 2), F(3, 10), F(1, 5)))
        assert monotone_profile(sv).values == (F(1), F(1, 2), F(1, 5))

    def test_float_profile(self):
        sv = SchmidtVector((0.5, 0.3, 0.2))
        prof = monotone_profile(sv)
        assert prof.values[0] == pytest.approx(1.0)
        assert prof.values[1] == pytest.approx(0.5)
        assert prof.values[2] == pytest.approx(0.2)

    def test_tail_is_zero_beyond_support(self):
        # E_k vanishes exactly when fewer than k coefficients are nonzero
        sv = SchmidtVector((F(1, 2), F(1, 2), F(0), F(0)))
        assert entanglement_monotone(sv, 3) == 0
        assert entanglement_monotone(sv, 4) == 0
        assert entanglement_monotone(sv, 2) == F(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 64, 97, 150, 211,
                                   256, 300])
    def test_profile_matches_per_k_tails_exact(self, n):
        sv = rand_rational_schmidt(np.random.default_rng(900 + n), n)
        values = monotone_profile(sv).values
        assert values == tuple(entanglement_monotone(sv, k)
                               for k in range(1, n + 1))
        assert all(type(v) is Fraction for v in values)

    @pytest.mark.parametrize("probs", [
        (F(1, 2), F(1, 4), F(1, 4), F(0), F(0)),   # tie, then zero tails
        (F(1, 3), F(1, 3), F(1, 3)),               # all tied
        (F(1), F(0), F(0)),                        # product state
        (F(1),),
    ])
    def test_profile_with_ties_and_zero_tails(self, probs):
        sv = SchmidtVector(probs)
        values = monotone_profile(sv).values
        assert values == tuple(entanglement_monotone(sv, k)
                               for k in range(1, sv.n + 1))
        assert values == tuple(sum(probs[k:], F(0)) for k in range(len(probs)))
        assert all(type(v) is Fraction for v in values)

    def test_exact_profile_adds_no_fractions(self):
        # integer suffix sums over D; Fractions are made only when read
        added = []

        class Counted(Fraction):
            def __add__(self, other):
                added.append(self)
                return Fraction.__add__(self, other)

            def __radd__(self, other):   # tried first: a Fraction subclass
                added.append(self)
                return Fraction.__radd__(self, other)

        sv = SchmidtVector(tuple(Counted(1, 100) for _ in range(100)))
        added.clear()
        profile = monotone_profile(sv)
        assert "values" not in vars(profile)
        assert profile._scaled == (tuple(range(100, 0, -1)), 100)
        assert profile.values == tuple(F(100 - i, 100) for i in range(100))
        assert added == []

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 256])
    def test_profile_matches_per_k_tails_float_bitwise(self, n):
        sv = rand_float_schmidt(np.random.default_rng(1900 + n), n)
        values = monotone_profile(sv).values
        assert [repr(v) for v in values] == [
            repr(entanglement_monotone(sv, k)) for k in range(1, n + 1)]

    def test_k_out_of_range(self):
        sv = SchmidtVector((F(1, 2), F(1, 2)))
        for k in (0, 3, -1, 1.5):
            with pytest.raises(ValueError):
                entanglement_monotone(sv, k)

    def test_monotone_vector_validation(self):
        with pytest.raises(InvalidStateError):
            MonotoneVector((F(1, 2), F(1, 4)))  # leading entry must be 1
        with pytest.raises(InvalidStateError):
            MonotoneVector((F(1), F(1, 4), F(1, 2)))  # must not increase
        MonotoneVector((F(1), F(1, 4), F(0)))

    @pytest.mark.parametrize("nums, den", [
        ((1, 0), 2), ((2, -1, 3), 4), ((3, 2, -1), 4)])
    def test_integer_profile_checks_as_the_fraction_one(self, nums, den):
        # vectors made unchecked from integers that no loader accepts
        sv = SchmidtVector._from_scaled(nums, den, _exact=True)
        with pytest.raises(InvalidStateError) as got:
            monotone_profile(sv)
        tails = [sum(nums[k:]) for k in range(len(nums))]
        with pytest.raises(InvalidStateError) as want:
            MonotoneVector(tuple(F(t, den) for t in tails))
        assert str(got.value) == str(want.value)


class TestSpectralFunctional:
    def test_identity_over_two(self):
        sigma = DensityOperator(np.eye(2) / 2)
        assert smallest_eigenvalue_sum(sigma, 2) == pytest.approx(0.5)

    def test_diagonal_example(self):
        sigma = DensityOperator(np.diag([0.8, 0.2]))
        assert smallest_eigenvalue_sum(sigma, 2) == pytest.approx(0.2)

    @pytest.mark.parametrize("seed", range(5))
    def test_k1_is_trace(self, seed):
        sigma = rand_density(np.random.default_rng(seed), 4)
        assert smallest_eigenvalue_sum(sigma, 1) == pytest.approx(1.0)

    def test_k_out_of_range(self):
        sigma = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValueError):
            smallest_eigenvalue_sum(sigma, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_tail_monotone_on_pure_states(self, seed):
        rng = np.random.default_rng(40 + seed)
        state = rand_state(rng, 4, 4)
        sv = schmidt_decompose(state)
        rho = reduced_density(state)
        for k in range(1, 5):
            assert smallest_eigenvalue_sum(rho, k) == pytest.approx(
                entanglement_monotone(sv, k), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(60 + seed)
        sigma = rand_density(rng, 4)
        u = haar_unitary(rng, 4)
        rotated = DensityOperator(u @ sigma.matrix @ u.conj().T)
        for k in range(1, 5):
            assert smallest_eigenvalue_sum(rotated, k) == pytest.approx(
                smallest_eigenvalue_sum(sigma, k), abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_concavity(self, seed):
        rng = np.random.default_rng(80 + seed)
        n = int(rng.integers(2, 6))
        s1 = rand_density(rng, n)
        s2 = rand_density(rng, n)
        lam = float(rng.random())
        mixed = DensityOperator(lam * s1.matrix + (1 - lam) * s2.matrix)
        for k in range(1, n + 1):
            lhs = smallest_eigenvalue_sum(mixed, k)
            rhs = (lam * smallest_eigenvalue_sum(s1, k)
                   + (1 - lam) * smallest_eigenvalue_sum(s2, k))
            assert lhs >= rhs - 1e-9


class TestEnsemble:
    def test_average_is_exact(self):
        ens = Ensemble(((F(2, 5), SchmidtVector((F(1, 2), F(1, 2)))),
                        (F(3, 5), SchmidtVector((F(1), F(0))))))
        assert ensemble_average(ens, 2) == F(1, 5)
        assert ensemble_average(ens, 1) == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidStateError):
            Ensemble(((F(1, 2), SchmidtVector((F(1),))),))

    def test_float_weights_must_sum_to_one(self):
        with pytest.raises(InvalidStateError,
                           match="^ensemble weights sum to 0.5$"):
            Ensemble(((0.5, SchmidtVector((1.0,))),))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidStateError):
            Ensemble(((F(-1, 2), SchmidtVector((F(1),))),
                      (F(3, 2), SchmidtVector((F(1),)))))

    def test_k_out_of_range_for_member(self):
        ens = Ensemble(((F(1), SchmidtVector((F(1, 2), F(1, 2)))),))
        with pytest.raises(ValueError):
            ensemble_average(ens, 3)


class TestEntropy:
    def test_bell_is_one_ebit(self):
        assert entropy_of_entanglement(
            SchmidtVector((F(1, 2), F(1, 2)))) == pytest.approx(1.0)

    def test_product_state_is_zero(self):
        assert entropy_of_entanglement(SchmidtVector((F(1), F(0)))) == 0.0

    def test_skewed_pair(self):
        # H(0.8) = -0.8 log2 0.8 - 0.2 log2 0.2
        sv = SchmidtVector((F(4, 5), F(1, 5)))
        assert entropy_of_entanglement(sv) == pytest.approx(
            0.7219280948873623, abs=1e-12)

    def test_flat_state_maximal(self):
        sv = SchmidtVector((F(1, 4),) * 4)
        assert entropy_of_entanglement(sv) == pytest.approx(2.0)
