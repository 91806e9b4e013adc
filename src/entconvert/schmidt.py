"""Bipartite pure states and their Schmidt-coefficient description.

A state of two parties is carried either as a full complex amplitude
matrix or, when only local-unitary-invariant questions are asked, as the
vector of squared Schmidt coefficients sorted in non-increasing order.
All conversion results in this package depend on the state through that
vector alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numeric import DEFAULT_TOL, parse_scalar

__all__ = [
    "InvalidStateError",
    "SchmidtVector",
    "BipartiteState",
    "DensityOperator",
    "schmidt_decompose",
    "state_from_schmidt",
    "tensor_power",
    "reduced_density",
    "majorizes",
    "MAX_TENSOR_ENTRIES",
    "MAX_TENSOR_COPIES",
]

MAX_TENSOR_ENTRIES = 65_536   # entries of a tensor power's vector
MAX_TENSOR_COPIES = 16        # log2 of the above: the most any n >= 2 allows


class InvalidStateError(ValueError):
    """A state object violates one of its structural invariants."""


def _zero_like(value):
    return Fraction(0) if isinstance(value, Fraction) else 0.0


@dataclass(frozen=True)
class SchmidtVector:
    """Squared Schmidt coefficients, sorted non-increasing, summing to 1.

    Entries are either exact rationals (``fractions.Fraction``) or floats;
    a vector is *exact* when every entry is rational, and all downstream
    arithmetic on exact vectors stays exact.  Planning reads a float
    vector through its dyadic lift (see ``_scaled``), so it is exact too.
    """

    probs: tuple

    def __post_init__(self):
        probs = tuple(self.probs)
        if len(probs) == 0:
            raise InvalidStateError("a Schmidt vector needs at least one entry")
        exact = all(isinstance(p, Fraction) for p in probs)
        if exact:
            # integer numerators over D = lcm(denominators): the exact
            # form every check here and every exact loop downstream reads
            den = math.lcm(*(p.denominator for p in probs))
            keys = tuple(p.numerator * (den // p.denominator) for p in probs)
            if min(keys) < 0:
                bad = next(p for p, x in zip(probs, keys) if x < 0)
                raise InvalidStateError(f"negative squared coefficient {bad}")
            # not a field, so __eq__, __hash__ and repr still see probs alone
            object.__setattr__(self, "_scaled", (keys, den))
            slack = 0
        else:
            cleaned = []
            for p in probs:
                if isinstance(p, Fraction):
                    if p < 0:
                        raise InvalidStateError(
                            f"negative squared coefficient {p}")
                    cleaned.append(p)
                else:
                    p = float(p)
                    if not math.isfinite(p):
                        raise InvalidStateError(
                            f"non-finite squared coefficient {p}")
                    if p < -DEFAULT_TOL:
                        raise InvalidStateError(
                            f"negative squared coefficient {p}")
                    cleaned.append(max(p, 0.0))
            probs = tuple(cleaned)
            keys, slack = [float(p) for p in probs], DEFAULT_TOL
        for i in range(len(keys) - 1):
            if keys[i] < keys[i + 1] - slack:
                raise InvalidStateError(
                    f"entries not sorted non-increasing: {probs[i]} < "
                    f"{probs[i + 1]}")
        if exact and sum(keys) != den:
            raise InvalidStateError(
                f"exact entries sum to {Fraction(sum(keys), den)}, not 1")
        if not exact and abs(float(sum(probs)) - 1.0) > DEFAULT_TOL:
            raise InvalidStateError(f"entries sum to {float(sum(probs))}, not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_exact", exact)

    @cached_property
    def _scaled(self):
        """(numerators, D): the entries as integers over D, sorted
        non-increasing and summing to D.

        An exact vector stores its own in __post_init__.  A float vector
        makes its dyadic lift on first use (the amplitude-level audit never
        asks): each entry's exact binary value, 0 for an entry at most
        DEFAULT_TOL, over one common power of two, then normalized by
        taking D = their sum.
        """
        ratios = [p.as_integer_ratio() if p > DEFAULT_TOL else (0, 1)
                  for p in self.probs]
        den = math.lcm(*(d for _, d in ratios))
        nums = sorted((x * (den // d) for x, d in ratios), reverse=True)
        return tuple(nums), sum(nums)

    @classmethod
    def from_values(cls, values, *, mode="rational", normalize=False,
                    trim=False, tol=DEFAULT_TOL):
        """Build a vector from loosely typed entries.

        Entries are parsed per ``mode`` ("108/144" and decimal strings are
        exact in rational mode), stably sorted in non-increasing order,
        optionally normalized by their sum, and optionally trimmed of
        trailing entries below ``tol`` (with renormalization).
        """
        given = [parse_scalar(v, mode) for v in values]
        if not given:
            raise InvalidStateError("a Schmidt vector needs at least one entry")
        for p in given:
            if not isinstance(p, Fraction) and float(p) < -tol:
                raise InvalidStateError(f"negative squared coefficient {p}")
        given = [p if isinstance(p, Fraction) else max(float(p), 0.0)
                 for p in given]
        parsed = sorted(given, reverse=True)  # stable: ties keep input order
        # floats are clamped by now, so the last entry is negative only
        # when a rational is; the first such one given is named
        if parsed[-1] < 0:
            raise InvalidStateError("negative squared coefficient "
                                    f"{next(p for p in given if p < 0)}")
        if normalize:
            total = sum(parsed)
            if total == 0:
                raise InvalidStateError("cannot normalize an all-zero vector")
            parsed = [p / total for p in parsed]
        if trim:
            keep = len(parsed)
            while keep > 1 and parsed[keep - 1] < tol:
                keep -= 1
            if keep < len(parsed):
                parsed = parsed[:keep]
                total = sum(parsed)
                parsed = [p / total for p in parsed]
        return cls(tuple(parsed))

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def is_exact(self) -> bool:
        return self._exact

    def nonzero_count(self) -> int:
        """Number of entries that carry weight (> 0; a float > DEFAULT_TOL)."""
        return len(self.probs) - self._scaled[0].count(0)

    def padded(self, n: int) -> "SchmidtVector":
        if n < self.n:
            raise ValueError(f"cannot pad length {self.n} down to {n}")
        if n == self.n:
            return self
        return SchmidtVector(self.probs + (_zero_like(self.probs[0]),) * (n - self.n))

    def as_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs], dtype=float)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure two-party state as an n_A x n_B complex amplitude matrix."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidStateError("amplitudes must form a 2-d matrix")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= DEFAULT_TOL:   # a NaN norm fails too
            raise InvalidStateError(f"state norm {norm} deviates from 1")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def from_amplitudes(cls, values, *, normalize=False) -> "BipartiteState":
        arr = np.array(values, dtype=complex)
        if normalize:
            norm = np.linalg.norm(arr)
            if norm == 0:
                raise InvalidStateError("cannot normalize the zero vector")
            arr = arr / norm
        return cls(arr)

    @property
    def n_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_b(self) -> int:
        return self.amplitudes.shape[1]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidStateError("a density operator must be square")
        if not np.allclose(arr, arr.conj().T, atol=DEFAULT_TOL):
            raise InvalidStateError("density operator is not Hermitian")
        trace = complex(np.trace(arr)).real
        if abs(trace - 1.0) > DEFAULT_TOL:
            raise InvalidStateError(f"trace {trace} deviates from 1")
        if float(np.linalg.eigvalsh(arr)[0]) < -DEFAULT_TOL:
            raise InvalidStateError("density operator has a negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def schmidt_decompose(state: BipartiteState, *, trim=False,
                      tol=DEFAULT_TOL) -> SchmidtVector:
    """Squared singular values of the amplitude matrix, sorted descending.

    Parameters
    ----------
    state : BipartiteState
        Normalized pure state.
    trim : bool
        Drop trailing entries below ``tol`` (and renormalize).  By default
        the full min(n_A, n_B)-length vector is kept, zeros included.

    Returns
    -------
    SchmidtVector
        Float-mode vector of squared Schmidt coefficients.
    """
    svals = np.linalg.svd(state.amplitudes, compute_uv=False)
    probs = [max(float(s) ** 2, 0.0) for s in svals]
    if trim:
        keep = len(probs)
        while keep > 1 and probs[keep - 1] < tol:
            keep -= 1
        probs = probs[:keep]
        total = sum(probs)
        probs = [p / total for p in probs]
    return SchmidtVector(tuple(probs))


def state_from_schmidt(sv: SchmidtVector) -> BipartiteState:
    """Canonical n x n representative: amplitudes diag(sqrt(probs))."""
    return BipartiteState(np.diag(np.sqrt(sv.as_floats())).astype(complex))


def tensor_power(sv: SchmidtVector, copies: int) -> SchmidtVector:
    """Schmidt vector of ``copies`` independent copies of the state.

    Entries are all products of one entry per copy, re-sorted descending;
    the result has n**copies entries and stays exact for exact input (a
    float input's entries are the rounded products of its dyadic lift).
    Beyond one copy, more than MAX_TENSOR_COPIES copies or
    MAX_TENSOR_ENTRIES entries are refused before any product is formed.
    """
    if not isinstance(copies, int) or copies < 1:
        raise ValueError(f"copies must be a positive integer, got {copies!r}")
    if copies == 1:
        return sv
    # the copies bound comes first, so n**copies stays small to evaluate
    if copies > MAX_TENSOR_COPIES or sv.n ** copies > MAX_TENSOR_ENTRIES:
        raise ValueError(
            f"tensor power too large: {copies} copies of {sv.n} entries "
            f"(limits {MAX_TENSOR_COPIES} copies, {MAX_TENSOR_ENTRIES} "
            "entries)")
    values, den = sv._scaled
    products = sorted(map(math.prod, itertools.product(values, repeat=copies)),
                      reverse=True)
    # integer products over D**copies: each entry is made once, last, as a
    # Fraction for exact input and as a float otherwise
    cast = Fraction if sv.is_exact else operator.truediv
    scale = den ** copies
    return SchmidtVector(tuple(cast(x, scale) for x in products))


def reduced_density(state: BipartiteState) -> DensityOperator:
    """Reduced operator on the second party, Tr_A |psi><psi|.

    Its nonzero spectrum equals the squared Schmidt coefficients.
    """
    amp = state.amplitudes
    rho = amp.T @ amp.conj()
    # clean Hermitian round-off so the constructor's checks see a clean matrix
    rho = (rho + rho.conj().T) / 2
    return DensityOperator(rho)


def majorizes(x: SchmidtVector, y: SchmidtVector) -> bool:
    """True when y majorizes x (every head sum of y >= that of x).

    Vectors are zero-padded to a common length and compared exactly, a
    float vector through its dyadic lift.
    """
    # head sums of integer numerators, compared over the two scales
    (xs, dx), (ys, dy) = x._scaled, y._scaled
    hx = hy = 0
    for a, b in itertools.zip_longest(xs, ys, fillvalue=0):
        hx += a
        hy += b
        if hy * dx < hx * dy:
            return False
    return True


def _lifted(sv: SchmidtVector) -> SchmidtVector:
    """The exact vector planning reads: ``sv`` itself when exact, else
    the Fractions of its dyadic lift."""
    if sv.is_exact:
        return sv
    nums, den = sv._scaled
    return SchmidtVector(tuple(Fraction(x, den) for x in nums))


def _typed(value, *vectors):
    """An exact result as the inputs ask for it: as is when every vector
    is exact, else converted once to a float."""
    return value if all(v.is_exact for v in vectors) else float(value)
