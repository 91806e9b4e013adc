"""Optimal single-copy conversion between bipartite pure states.

The headline result: the best probability with which local operations
and classical communication turn a state with sorted squared Schmidt
coefficients ``alpha`` into one with ``beta`` is

    P = min over l of  (sum_{i>=l} alpha_i) / (sum_{i>=l} beta_i),

tails with zero denominator imposing no constraint.  This module
evaluates that closed form directly and, by an independent route, builds
the object that achieves it: a partition of the index range into
segments with strictly increasing tail ratios, an intermediate state
reachable deterministically, and a final two-outcome filter whose
success branch lands exactly on the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numeric import DEFAULT_TOL
from .schmidt import InvalidStateError, SchmidtVector, majorizes, tensor_power

__all__ = [
    "InfeasibleConversionError",
    "PlanInvariantError",
    "IntermediateOrderError",
    "Breakpoints",
    "DiagonalOperator",
    "ConversionPlan",
    "MultiCopyBound",
    "SINGLE_COPY_OPTIMAL",
    "MULTI_COPY_POSSIBLE",
    "optimal_probability",
    "optimal_probability_detail",
    "breakpoints",
    "intermediate_state",
    "measurement_operators",
    "build_plan",
    "multi_copy_bound",
    "tensor_conversion_probability",
]

SINGLE_COPY_OPTIMAL = "single_copy_optimal"
MULTI_COPY_POSSIBLE = "multi_copy_possible"


class InfeasibleConversionError(ValueError):
    """The requested conversion admits no operators (probability zero)."""


class PlanInvariantError(RuntimeError):
    """A constructed plan failed one of its internal consistency checks."""


class IntermediateOrderError(RuntimeError):
    """The intermediate state came out of order (should be impossible)."""


def _padded_pair(alpha: SchmidtVector, beta: SchmidtVector, tol):
    if not 0 <= tol < float("inf"):   # NaN fails too
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    n = max(alpha.n, beta.n)
    return alpha.padded(n), beta.padded(n)


def _trimmed_length(a: SchmidtVector, b: SchmidtVector, tol) -> int:
    """Length of the padded pair less trailing positions where both are 0."""
    n = a.n
    while n > 1 and all(v <= 0 if isinstance(v, Fraction) else float(v) <= tol
                        for v in (a.probs[n - 1], b.probs[n - 1])):
        n -= 1
    return n


def optimal_probability(alpha: SchmidtVector, beta: SchmidtVector,
                        *, tol=DEFAULT_TOL):
    """Best LOCC conversion probability from ``alpha`` to ``beta``.

    Exact (Fraction) when both inputs are exact, float otherwise; the
    result is 0 exactly when the source has fewer nonzero coefficients
    than the target, and 1 exactly when the target majorizes the source.
    """
    return optimal_probability_detail(alpha, beta, tol=tol)[0]


def optimal_probability_detail(alpha: SchmidtVector, beta: SchmidtVector,
                               *, tol=DEFAULT_TOL):
    """(probability, minimizing tail index l); smallest l on ties."""
    a, b = _padded_pair(alpha, beta, tol)
    n = a.n
    if a.is_exact and b.is_exact:
        (xa, da), (xb, db) = a._scaled, b._scaled
        best, tail_a, tail_b = None, 0, 0
        for l in range(n, 0, -1):   # integer tails; <= keeps the smallest l
            tail_a += xa[l - 1]
            tail_b += xb[l - 1]
            if tail_b and (best is None or tail_a * best[1] <= best[0] * tail_b):
                best = (tail_a, tail_b, l)
        if best is None:
            raise InvalidStateError("target state carries no weight")
        return Fraction(best[0] * db, best[1] * da), best[2]
    # suffix sums, tail[l-1] = sum_{i>=l}
    tails_a = [0.0] * n
    tails_b = [0.0] * n
    run_a, run_b = 0.0, 0.0
    for i in range(n - 1, -1, -1):
        run_a = run_a + a.probs[i]
        run_b = run_b + b.probs[i]
        tails_a[i] = run_a
        tails_b[i] = run_b
    best = None
    best_l = None
    for l in range(1, n + 1):
        denom = tails_b[l - 1]
        if denom <= tol:
            continue  # no constraint from a weightless target tail
        ratio = tails_a[l - 1] / denom
        if best is None or ratio < best:
            best = ratio
            best_l = l
    if best is None:
        raise InvalidStateError("target state carries no weight")
    return min(max(float(best), 0.0), 1.0), best_l


def breakpoints(alpha: SchmidtVector, beta: SchmidtVector,
                *, tol=DEFAULT_TOL) -> "Breakpoints":
    """Segment boundaries and tail ratios of the optimal conversion.

    The last boundary l_1 is the smallest minimizer of the global tail
    ratio; the construction then recurses on the head range [1, l_1 - 1],
    producing strictly increasing ratios r_1 < r_2 < ...  Trailing
    positions where both vectors are zero are treated as absent
    dimensions.

    Raises
    ------
    InfeasibleConversionError
        If the source has fewer nonzero coefficients than the target
        (conversion probability 0 — no operators exist).
    """
    a, b = _padded_pair(alpha, beta, tol)
    n = _trimmed_length(a, b, tol)
    if a.nonzero_count(tol) < b.nonzero_count(tol):
        raise InfeasibleConversionError(
            "target has more nonzero Schmidt coefficients than source; "
            "conversion probability is 0")
    exact = a.is_exact and b.is_exact
    if exact:
        (xa, da), (xb, db) = a._scaled, b._scaled
        # integer suffix sums: a segment's tails are differences of two
        tail_a, tail_b = [0] * (n + 2), [0] * (n + 2)
        for l in range(n, 0, -1):
            tail_a[l] = tail_a[l + 1] + xa[l - 1]
            tail_b[l] = tail_b[l + 1] + xb[l - 1]
    avals = a.probs[:n]
    bvals = b.probs[:n]
    boundaries = [n + 1]
    ratios = []
    upper = n  # inclusive end of the unresolved head range
    while True:
        best = best_l = None
        if exact:
            base_a, base_b = tail_a[upper + 1], tail_b[upper + 1]
            for l in range(upper, 0, -1):
                run_a, run_b = tail_a[l] - base_a, tail_b[l] - base_b
                if run_b and (best is None
                              or run_a * best[1] <= best[0] * run_b):
                    best, best_l = (run_a, run_b), l  # ties: smaller l
        else:
            run_a = run_b = 0.0
            for l in range(upper, 0, -1):
                run_a = run_a + avals[l - 1]
                run_b = run_b + bvals[l - 1]
                if run_b <= tol:
                    continue
                ratio = run_a / run_b
                if best is None or ratio <= best:  # ties resolve to smaller l
                    best = ratio
                    best_l = l
        if best is None:
            raise InfeasibleConversionError(
                "no admissible tail ratio in the remaining range")
        boundaries.append(best_l)
        ratios.append(Fraction(best[0] * db, best[1] * da) if exact else best)
        if best_l == 1:
            break
        upper = best_l - 1
    return Breakpoints(tuple(boundaries), tuple(ratios))


@dataclass(frozen=True)
class Breakpoints:
    """Descending boundaries (l_0 = n+1 > ... > l_k = 1) and the strictly
    increasing tail ratios (r_1 < ... < r_k), one per segment."""

    boundaries: tuple
    ratios: tuple

    def __post_init__(self):
        bd = tuple(int(b) for b in self.boundaries)
        rt = tuple(self.ratios)
        if len(bd) != len(rt) + 1 or len(rt) < 1:
            raise InvalidStateError("boundary/ratio length mismatch")
        if bd[-1] != 1 or any(x <= y for x, y in zip(bd, bd[1:])):
            raise InvalidStateError(f"boundaries not strictly descending to 1: {bd}")
        if any(x >= y for x, y in zip(rt, rt[1:])):
            raise InvalidStateError(f"tail ratios not strictly increasing: {rt}")
        first = rt[0]
        if (isinstance(first, Fraction) and first > 1) or (
                not isinstance(first, Fraction) and float(first) > 1 + DEFAULT_TOL):
            raise InvalidStateError(f"leading tail ratio {first} exceeds 1")
        object.__setattr__(self, "boundaries", bd)
        object.__setattr__(self, "ratios", rt)

    @property
    def n(self) -> int:
        return self.boundaries[0] - 1

    @property
    def segment_count(self) -> int:
        return len(self.ratios)

    def segments(self):
        """Yield (j, lo, hi): 1-based inclusive index range of segment j."""
        for j in range(1, self.segment_count + 1):
            yield j, self.boundaries[j], self.boundaries[j - 1] - 1


def intermediate_state(bp: Breakpoints, beta: SchmidtVector,
                       *, tol=DEFAULT_TOL) -> SchmidtVector:
    """Scale each target segment by its tail ratio: gamma_i = r_j beta_i.

    The result is the state the deterministic stage aims for; it
    majorizes the source and is mapped onto the target by the final
    filter with probability r_1.  The construction provably yields a
    sorted vector; IntermediateOrderError flags a breach.
    """
    if beta.n != bp.n:
        raise ValueError(
            f"breakpoints describe {bp.n} dimensions, target has {beta.n}")
    gamma = [None] * bp.n
    for j, lo, hi in bp.segments():
        r = bp.ratios[j - 1]
        for i in range(lo, hi + 1):
            gamma[i - 1] = r * beta.probs[i - 1]
    exact = all(isinstance(g, Fraction) for g in gamma)
    for i in range(bp.n - 1):
        if (gamma[i] < gamma[i + 1] if exact
                else float(gamma[i] - gamma[i + 1]) < -tol):
            raise IntermediateOrderError(
                f"intermediate state out of order at position {i + 1}: "
                f"{gamma[i]} < {gamma[i + 1]}")
    return SchmidtVector(tuple(gamma))


@dataclass(frozen=True)
class DiagonalOperator:
    """Non-negative diagonal operator stored by its squared diagonal.

    Squared entries stay exact rationals whenever the plan is exact; the
    float matrix (with the square roots taken) is derived on demand.
    """

    squared: tuple

    def __post_init__(self):
        sq = tuple(self.squared)
        if not sq:
            raise InvalidStateError("empty diagonal operator")
        for s in sq:
            if isinstance(s, Fraction):
                ok = 0 <= s.numerator <= s.denominator
            else:
                ok = -DEFAULT_TOL <= float(s) <= 1 + DEFAULT_TOL
            if not ok:
                raise InvalidStateError(f"squared diagonal entry {s} outside [0, 1]")
        object.__setattr__(self, "squared", sq)

    @property
    def n(self) -> int:
        return len(self.squared)

    @property
    def matrix(self) -> np.ndarray:
        vals = np.clip([float(s) for s in self.squared], 0.0, 1.0)
        return np.diag(np.sqrt(vals)).astype(complex)


def measurement_operators(bp: Breakpoints):
    """The final filter pair (success, failure).

    The success operator is block diagonal, sqrt(r_1 / r_j) on segment j
    (identity on the last segment); the failure operator completes it,
    sqrt(1 - r_1/r_j).  Applied to the intermediate state the success
    branch has probability r_1 and lands exactly on the target.
    """
    r1 = bp.ratios[0]
    success, failure = [], []
    for j, lo, hi in reversed(tuple(bp.segments())):
        s = r1 / bp.ratios[j - 1]
        success += [s] * (hi - lo + 1)
        failure += [1 - s] * (hi - lo + 1)
    return DiagonalOperator(tuple(success)), DiagonalOperator(tuple(failure))


@dataclass(frozen=True)
class ConversionPlan:
    """Everything needed to realize the optimal conversion.

    ``source`` and ``target`` are the planning-dimension vectors
    (trailing zero pairs dropped).  A degenerate plan (probability 0)
    carries no breakpoints, intermediate state, or operators.
    """

    source: SchmidtVector
    target: SchmidtVector
    breakpoints: Breakpoints | None
    intermediate: SchmidtVector | None
    success_operator: DiagonalOperator | None
    failure_operator: DiagonalOperator | None
    probability: object

    @property
    def is_feasible(self) -> bool:
        if isinstance(self.probability, Fraction):
            return self.probability > 0
        return float(self.probability) > 0.0

    @property
    def is_exact(self) -> bool:
        return self.source.is_exact and self.target.is_exact


def build_plan(alpha: SchmidtVector, beta: SchmidtVector,
               *, tol=DEFAULT_TOL) -> ConversionPlan:
    """Construct the two-stage optimal plan for alpha -> beta.

    Returns a degenerate probability-0 plan when the source has fewer
    nonzero coefficients than the target.  Otherwise the plan records the
    breakpoints, the intermediate state (checked to majorize the source),
    the filter pair, and the achieved probability r_1, which equals the
    closed-form optimum by construction — the two are computed through
    independent code paths and cross-checked in the tests.
    """
    a, b = _padded_pair(alpha, beta, tol)
    exact = a.is_exact and b.is_exact
    n = _trimmed_length(a, b, tol)
    a = SchmidtVector(a.probs[:n])
    b = SchmidtVector(b.probs[:n])
    if a.nonzero_count(tol) < b.nonzero_count(tol):
        zero = Fraction(0) if exact else 0.0
        return ConversionPlan(a, b, None, None, None, None, zero)
    bp = breakpoints(a, b, tol=tol)
    gamma = intermediate_state(bp, b, tol=tol)
    success, failure = measurement_operators(bp)
    if not majorizes(a, gamma, tol=tol):
        raise PlanInvariantError(
            "intermediate state fails to majorize the source")
    r1 = bp.ratios[0]
    if exact:
        # on integer numerators: g/D_g * s == r_1 * t/D_t, cross-multiplied
        (gn, dg), (tn, dt) = gamma._scaled, b._scaled
        scale_g, scale_t = r1.denominator * dt, r1.numerator * dg
    for i, (g, s, t) in enumerate(zip(gamma.probs, success.squared, b.probs)):
        # filter identity: gamma_i * M_ii^2 == r_1 * beta_i
        if (gn[i] * s.numerator * scale_g != tn[i] * s.denominator * scale_t
                if exact else abs(float(g * s - r1 * t)) > tol):
            raise PlanInvariantError(
                f"filter identity violated: {g}*{s} != {r1}*{t}")
    return ConversionPlan(a, b, bp, gamma, success, failure, r1)


@dataclass(frozen=True)
class MultiCopyBound:
    """Ceiling on what joint processing of many copies can achieve."""

    m_max: object
    regime: str


def multi_copy_bound(alpha: SchmidtVector, beta: SchmidtVector,
                     *, tol=DEFAULT_TOL) -> MultiCopyBound:
    """Single-copy optimum plus the copies regime.

    When the source has fewer nonzero coefficients than the *square* of
    the target's count, converting two or more copies jointly is
    impossible (probability 0 for every N >= 2), so the single-copy
    optimum is the best per-copy rate; otherwise collective strategies
    may beat it.
    """
    p = optimal_probability(alpha, beta, tol=tol)
    n_source = alpha.nonzero_count(tol)
    n_target = beta.nonzero_count(tol)
    if n_source < n_target ** 2:
        return MultiCopyBound(p, SINGLE_COPY_OPTIMAL)
    return MultiCopyBound(p, MULTI_COPY_POSSIBLE)


def tensor_conversion_probability(alpha: SchmidtVector, beta: SchmidtVector,
                                  copies: int, *, tol=DEFAULT_TOL):
    """Optimal probability of converting N joint copies of the source
    into N copies of the target.  Super-multiplicative: for N = 2 it can
    strictly exceed the square of the single-copy value."""
    if not isinstance(copies, int) or copies < 1:
        raise ValueError(f"copies must be a positive integer, got {copies!r}")
    return optimal_probability(tensor_power(alpha, copies),
                               tensor_power(beta, copies), tol=tol)
