"""Entanglement monotones built from tails of the Schmidt distribution.

The k-th monotone of a pure state is the total weight of its k-th and
later squared Schmidt coefficients.  No LOCC protocol can increase any of
these on average, which is what makes them the certificates behind every
conversion bound in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .numeric import DEFAULT_TOL, all_exact
from .schmidt import DensityOperator, InvalidStateError, SchmidtVector

__all__ = [
    "MonotoneVector",
    "Ensemble",
    "entanglement_monotone",
    "monotone_profile",
    "smallest_eigenvalue_sum",
    "ensemble_average",
    "entropy_of_entanglement",
]


def entanglement_monotone(sv: SchmidtVector, k: int):
    """Tail weight sum_{i>=k} of the squared Schmidt coefficients (1-based k).

    Exact for exact vectors.  k = 1 gives the normalization, k = n the
    smallest coefficient.
    """
    if not isinstance(k, int) or not 1 <= k <= sv.n:
        raise ValueError(f"monotone index k={k!r} out of range 1..{sv.n}")
    tail = sum(sv.probs[k - 1:])
    if isinstance(tail, Fraction):
        return tail
    return min(max(float(tail), 0.0), 1.0)


def _tails(sv: SchmidtVector) -> list:
    """[E_1, ..., E_n] of a state.

    An exact vector takes one running sum from its last entry back to its
    first: n Fraction additions, where summing each tail anew takes about
    n**2 / 2.  Rationals add exactly in any order, so every value equals
    entanglement_monotone's.
    """
    if not sv.is_exact:
        # A running float sum rounds differently from each tail summed left
        # to right: the amplitude-level audit would change in its last
        # bits, which TestSamplerOracle pins to entanglement_monotone's.
        return [entanglement_monotone(sv, k) for k in range(1, sv.n + 1)]
    tails, run = [], Fraction(0)
    for p in reversed(sv.probs):
        run += p
        tails.append(run)
    tails.reverse()
    return tails


def monotone_profile(sv: SchmidtVector) -> "MonotoneVector":
    """All n monotones of a state, from normalization down to the smallest tail.

    An exact vector's profile takes one pass over its entries (n rational
    additions); a float vector's tails are summed one by one, as
    entanglement_monotone sums them.
    """
    return MonotoneVector(tuple(_tails(sv)))


@dataclass(frozen=True)
class MonotoneVector:
    """The monotone values (E_1, ..., E_n); non-increasing, E_1 = 1."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        if not vals:
            raise InvalidStateError("empty monotone vector")
        exact = all_exact(vals)
        if exact:
            if vals[0] != 1:
                raise InvalidStateError(f"leading monotone is {vals[0]}, not 1")
            ok = all(a >= b >= 0 for a, b in zip(vals, vals[1:])) and vals[-1] >= 0
        else:
            ok = abs(float(vals[0]) - 1.0) <= DEFAULT_TOL
            ok = ok and all(float(a) >= float(b) - DEFAULT_TOL
                            for a, b in zip(vals, vals[1:]))
            ok = ok and float(vals[-1]) >= -DEFAULT_TOL
        if not ok:
            raise InvalidStateError(f"monotone values not admissible: {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Ensemble:
    """Weighted mixture of pure states described by their Schmidt vectors."""

    members: tuple  # of (weight, SchmidtVector)

    def __post_init__(self):
        members = tuple((w, sv) for w, sv in self.members)
        if not members:
            raise InvalidStateError("empty ensemble")
        weights = [w for w, _ in members]
        exact = all_exact(weights)
        for w in weights:
            if (exact and w < 0) or (not exact and float(w) < -DEFAULT_TOL):
                raise InvalidStateError(f"negative ensemble weight {w}")
        total = sum(weights)
        if exact:
            if total != 1:
                raise InvalidStateError(f"ensemble weights sum to {total}")
        elif abs(float(total) - 1.0) > DEFAULT_TOL:
            raise InvalidStateError(f"ensemble weights sum to {float(total)}")
        object.__setattr__(self, "members", members)


def ensemble_average(ensemble: Ensemble, k: int):
    """Probability-weighted average monotone over an ensemble's members."""
    for _, sv in ensemble.members:
        if not 1 <= k <= sv.n:
            raise ValueError(
                f"monotone index k={k} out of range for an ensemble member "
                f"of length {sv.n}")
    return sum(w * entanglement_monotone(sv, k) for w, sv in ensemble.members)


def smallest_eigenvalue_sum(sigma: DensityOperator, k: int,
                            *, tol=DEFAULT_TOL) -> float:
    """Sum of the n-k+1 smallest eigenvalues of a density operator.

    This is the spectral functional whose concavity drives the monotone
    property: on the reduced operator of a pure state it coincides with
    the k-th tail monotone.
    """
    n = sigma.n
    if not isinstance(k, int) or not 1 <= k <= n:
        raise ValueError(f"index k={k!r} out of range 1..{n}")
    eigs = np.linalg.eigvalsh(sigma.matrix)  # ascending
    eigs = np.clip(eigs, 0.0, 1.0)
    return float(np.sum(eigs[: n - k + 1]))


def entropy_of_entanglement(sv: SchmidtVector) -> float:
    """Shannon entropy of the squared Schmidt coefficients, in bits."""
    total = 0.0
    for p in sv.probs:
        p = float(p)
        if p > 0.0:
            total -= p * math.log2(p)
    return total
