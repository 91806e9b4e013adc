"""Entanglement monotones built from tails of the Schmidt distribution.

The k-th monotone of a pure state is the total weight of its k-th and
later squared Schmidt coefficients.  No LOCC protocol can increase any of
these on average, which is what makes them the certificates behind every
conversion bound in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import itertools
import math
import operator

from .numeric import DEFAULT_TOL, _Scaled, all_exact
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


def monotone_profile(sv: SchmidtVector) -> "MonotoneVector":
    """All n monotones of a state, from normalization down to the smallest tail.

    An exact vector's are the suffix sums of its integer numerators over
    D, in one pass, with Fractions made only if ``values`` is read.  A
    float vector's are each summed anew, left to right, and clamped to
    [0, 1], as entanglement_monotone does: a running float sum rounds
    differently, which would change the amplitude-level audit (pinned by
    TestSamplerOracle) in its last bits.
    """
    if not sv.is_exact:
        return MonotoneVector(tuple([min(max(sum(sv.probs[k:]), 0.0), 1.0)
                                     for k in range(sv.n)]))
    nums, den = sv._scaled
    tails = tuple([*itertools.accumulate(reversed(nums))][::-1])
    # checked on the integers; if they fail, the Fraction check names it
    if tails[0] != den or tails[-1] < 0 or any(map(operator.lt, tails,
                                                   tails[1:])):
        return MonotoneVector(tuple(Fraction(t, den) for t in tails))
    return MonotoneVector._from_scaled(tails, den)


@dataclass(frozen=True)
class MonotoneVector(_Scaled):
    """The monotone values (E_1, ..., E_n); non-increasing, E_1 = 1."""

    values: tuple
    _lazy = "values"

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


def smallest_eigenvalue_sum(sigma: DensityOperator, k: int) -> float:
    """Sum of the n-k+1 smallest eigenvalues of a density operator.

    This is the spectral functional whose concavity drives the monotone
    property: on the reduced operator of a pure state it coincides with
    the k-th tail monotone.
    """
    n = sigma.n
    if not isinstance(k, int) or not 1 <= k <= n:
        raise ValueError(f"index k={k!r} out of range 1..{n}")
    import numpy as np
    eigs = np.linalg.eigvalsh(sigma.matrix)  # ascending
    eigs = np.clip(eigs, 0.0, 1.0)
    return float(np.sum(eigs[: n - k + 1]))


def entropy_of_entanglement(sv: SchmidtVector) -> float:
    """Shannon entropy of the squared Schmidt coefficients, in bits."""
    nums, den = sv._scaled if sv.is_exact else (sv.probs, 1)
    total = 0.0
    for x in nums:
        p = float(x / den)   # for an integer x, the float of x / D exactly
        if p > 0.0:
            total -= p * math.log2(p)
    return total
