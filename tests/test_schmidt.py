"""State representations: Schmidt vectors, decomposition, majorization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from entconvert import (BipartiteState, InvalidStateError, SchmidtVector,
                        majorizes, reduced_density, schmidt_decompose,
                        state_from_schmidt, tensor_power)
from entconvert.schmidt import MAX_TENSOR_COPIES, MAX_TENSOR_ENTRIES
from util import haar_unitary, rand_float_schmidt, rand_rational_schmidt, rand_state

F = Fraction


class TestSchmidtVector:
    def test_valid_exact(self):
        sv = SchmidtVector((F(4, 5), F(1, 5)))
        assert sv.n == 2
        assert sv.is_exact

    def test_valid_float(self):
        sv = SchmidtVector((0.8, 0.2))
        assert not sv.is_exact
        assert sv.probs == (0.8, 0.2)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidStateError):
            SchmidtVector((F(1, 5), F(4, 5)))

    def test_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            SchmidtVector((F(6, 5), F(-1, 5)))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidStateError):
            SchmidtVector((F(1, 2), F(1, 3)))
        with pytest.raises(InvalidStateError):
            SchmidtVector((0.6, 0.3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidStateError):
            SchmidtVector(())

    @pytest.mark.parametrize("probs", [
        (math.nan, 0.5, 0.5),
        (0.5, 0.5, math.nan),
        (math.inf, 0.5),
        (F(1, 2), F(1, 2), math.nan),   # exact entries, one NaN
    ])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(InvalidStateError, match="non-finite"):
            SchmidtVector(probs)
        with pytest.raises(InvalidStateError):
            SchmidtVector.from_values(list(probs))

    def test_is_exact_is_stored_outside_the_fields(self):
        exact = SchmidtVector((F(1, 2), F(1, 2)))
        mixed = SchmidtVector((F(1, 2), 0.5))
        assert exact.is_exact and not mixed.is_exact
        assert not SchmidtVector((0.5, 0.5)).is_exact
        # equality, hashing and repr still see probs alone
        twin = SchmidtVector((F(1, 2), F(1, 2)))
        assert twin == exact and hash(twin) == hash(exact)
        assert repr(exact) == ("SchmidtVector(probs=(Fraction(1, 2), "
                               "Fraction(1, 2)))")

    def test_tiny_float_negative_clamped(self):
        sv = SchmidtVector((1.0, -1e-15))
        assert sv.probs[1] == 0.0

    def test_from_values_sorts_and_parses_strings(self):
        sv = SchmidtVector.from_values(["12/144", "108/144", "12/144", "12/144"])
        assert sv.probs == (F(3, 4), F(1, 12), F(1, 12), F(1, 12))
        assert sv.is_exact

    def test_from_values_decimal_string_is_exact_in_rational_mode(self):
        sv = SchmidtVector.from_values(["0.8", "0.2"])
        assert sv.probs == (F(4, 5), F(1, 5))

    def test_from_values_float_mode(self):
        sv = SchmidtVector.from_values(["0.8", "0.2"], mode="float")
        assert not sv.is_exact
        assert sv.probs == (0.8, 0.2)

    def test_from_values_trim(self):
        sv = SchmidtVector.from_values(["0.5", "0.5", "0"], trim=True)
        assert sv.n == 2
        assert sv.probs == (F(1, 2), F(1, 2))

    def test_padded(self):
        sv = SchmidtVector((F(1, 2), F(1, 2)))
        padded = sv.padded(4)
        assert padded.probs == (F(1, 2), F(1, 2), F(0), F(0))
        assert sv.padded(2) is sv
        with pytest.raises(ValueError):
            sv.padded(1)

    def test_nonzero_count(self):
        sv = SchmidtVector((F(1, 2), F(1, 2), F(0)))
        assert sv.nonzero_count() == 2
        svf = SchmidtVector((0.5, 0.5, 1e-12))
        assert svf.nonzero_count() == 2


class TestBipartiteState:
    def test_norm_enforced(self):
        with pytest.raises(InvalidStateError):
            BipartiteState(np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(InvalidStateError):
            BipartiteState(np.array([[bad, 0.0], [0.0, 0.0]]))

    def test_amplitudes_read_only(self):
        st_ = BipartiteState(np.eye(2) / math.sqrt(2))
        with pytest.raises(ValueError):
            st_.amplitudes[0, 0] = 5.0

    def test_rejects_non_matrix(self):
        with pytest.raises(InvalidStateError):
            BipartiteState(np.ones(3) / math.sqrt(3))


class TestDecomposition:
    def test_diagonal_roundtrip_exactish(self):
        sv = SchmidtVector((F(4, 5), F(1, 5)))
        back = schmidt_decompose(state_from_schmidt(sv))
        assert np.allclose(back.as_floats(), [0.8, 0.2], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_state_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        state = rand_state(rng, 4, 5)
        sv = schmidt_decompose(state)
        assert sv.n == 4
        again = schmidt_decompose(state_from_schmidt(sv))
        assert np.allclose(sv.as_floats(), again.as_floats(), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_local_unitary_invariance(self, seed):
        # Schmidt coefficients cannot see local basis changes
        rng = np.random.default_rng(100 + seed)
        state = rand_state(rng, 3, 4)
        u = haar_unitary(rng, 3)
        v = haar_unitary(rng, 4)
        rotated = BipartiteState(u @ state.amplitudes @ v.T)
        assert np.allclose(schmidt_decompose(state).as_floats(),
                           schmidt_decompose(rotated).as_floats(), atol=1e-10)

    def test_trim_drops_zero_tail(self):
        amp = np.zeros((3, 3), dtype=complex)
        amp[0, 0] = amp[1, 1] = 1 / math.sqrt(2)
        sv = schmidt_decompose(BipartiteState(amp), trim=True)
        assert sv.n == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_reduced_density_spectrum(self, seed):
        rng = np.random.default_rng(200 + seed)
        state = rand_state(rng, 3, 3)
        rho = reduced_density(state)
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        assert np.allclose(eigs, schmidt_decompose(state).as_floats(),
                           atol=1e-10)

    def test_reduced_density_bell(self):
        sv = SchmidtVector((F(1, 2), F(1, 2)))
        rho = reduced_density(state_from_schmidt(sv))
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


class TestTensorPower:
    def test_frozen_two_copy_expansion(self):
        sv = SchmidtVector((F(1, 2), F(1, 4), F(1, 4)))
        sq = tensor_power(sv, 2)
        assert sq.probs == (F(1, 4), F(1, 8), F(1, 8), F(1, 8), F(1, 8),
                            F(1, 16), F(1, 16), F(1, 16), F(1, 16))

    def test_single_copy_is_identity(self):
        sv = SchmidtVector((F(1, 2), F(1, 2)))
        assert tensor_power(sv, 1) is sv

    def test_nonzero_count_multiplies(self):
        sv = SchmidtVector((F(1, 2), F(1, 2), F(0)))
        assert tensor_power(sv, 2).nonzero_count() == 4
        assert tensor_power(sv, 3).nonzero_count() == 8

    def test_rejects_bad_copies(self):
        sv = SchmidtVector((F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            tensor_power(sv, 0)
        with pytest.raises(ValueError):
            tensor_power(sv, 1.5)

    @pytest.mark.parametrize("n, copies", [(2, 17), (1, 10**9), (1, 17),
                                           (4, 9), (257, 2)])
    def test_refuses_powers_over_the_limits(self, n, copies):
        sv = SchmidtVector((F(1, n),) * n)
        with pytest.raises(ValueError, match="tensor power too large"):
            tensor_power(sv, copies)

    def test_limits(self):
        assert MAX_TENSOR_ENTRIES == 2 ** MAX_TENSOR_COPIES == 65_536
        one = SchmidtVector((F(1),))
        assert tensor_power(one, MAX_TENSOR_COPIES).probs == (F(1),)

    @pytest.mark.parametrize("seed", range(4))
    def test_exactness_and_sum(self, seed):
        rng = np.random.default_rng(300 + seed)
        sv = rand_rational_schmidt(rng, 3)
        sq = tensor_power(sv, 2)
        assert sq.is_exact
        assert sum(sq.probs) == 1


class TestMajorizes:
    def test_reflexive(self):
        sv = SchmidtVector((F(1, 2), F(1, 3), F(1, 6)))
        assert majorizes(sv, sv)

    def test_extremes(self):
        rng = np.random.default_rng(7)
        flat = SchmidtVector((F(1, 3),) * 3)
        peak = SchmidtVector((F(1), F(0), F(0)))
        for _ in range(10):
            sv = rand_rational_schmidt(rng, 3)
            assert majorizes(flat, sv)   # anything majorizes the flat state
            assert majorizes(sv, peak)   # the pure product state majorizes all

    def test_strict_example(self):
        a = SchmidtVector((F(1, 2), F(3, 10), F(1, 5)))
        g = SchmidtVector((F(1, 2), F(1, 3), F(1, 6)))
        assert majorizes(a, g)
        assert not majorizes(g, a)

    def test_zero_padding(self):
        a = SchmidtVector((F(1, 2), F(1, 2)))
        b = SchmidtVector((F(1), F(0), F(0)))
        assert majorizes(a, b)
        assert not majorizes(b, a)

    def test_antisymmetry_exact(self):
        # mutual majorization of sorted vectors forces equality
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rand_rational_schmidt(rng, 4)
            y = rand_rational_schmidt(rng, 4)
            if majorizes(x, y) and majorizes(y, x):
                assert x.probs == y.probs

    def test_float_tolerance(self):
        x = rand_float_schmidt(np.random.default_rng(13), 4)
        wiggle = SchmidtVector(tuple(float(p) for p in x.probs))
        assert majorizes(x, wiggle)
        assert majorizes(wiggle, x)
