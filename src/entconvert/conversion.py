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

from .schmidt import (InvalidStateError, SchmidtVector, _lifted, _typed,
                      majorizes, tensor_power)

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


def _tail_sums(alpha: SchmidtVector, beta: SchmidtVector):
    """(tail_a, tail_b, D_a, D_b, n) of the pair's integer forms.

    The two are zero-padded to a common length, and trailing positions
    where both are 0 are dropped, leaving n; tail_x[l] is the numerator
    sum over positions l..n (1-based), tail_x[n + 1] = 0.
    """
    (xa, da), (xb, db) = alpha._scaled, beta._scaled
    n = max(len(xa), len(xb))
    xa, xb = xa + (0,) * (n - len(xa)), xb + (0,) * (n - len(xb))
    while n > 1 and not xa[n - 1] and not xb[n - 1]:
        n -= 1
    tail_a, tail_b = [0] * (n + 2), [0] * (n + 2)
    for l in range(n, 0, -1):
        tail_a[l] = tail_a[l + 1] + xa[l - 1]
        tail_b[l] = tail_b[l + 1] + xb[l - 1]
    return tail_a, tail_b, da, db, n


def _least_ratio(tail_a, tail_b, upper):
    """(numerator, denominator, l) of the least tail ratio of the head
    range 1..upper, the smallest l on ties; None when no target tail
    there carries weight.  Ratios compare by cross-multiplying."""
    base_a, base_b = tail_a[upper + 1], tail_b[upper + 1]
    best = None
    for l in range(upper, 0, -1):
        run_a, run_b = tail_a[l] - base_a, tail_b[l] - base_b
        if run_b and (best is None or run_a * best[1] <= best[0] * run_b):
            best = (run_a, run_b, l)
    return best


def optimal_probability(alpha: SchmidtVector, beta: SchmidtVector):
    """Best LOCC conversion probability from ``alpha`` to ``beta``.

    Exact (Fraction) when both inputs are exact, else the float of the
    exact value on their dyadic lifts; the result is 0 exactly when the
    source has fewer nonzero coefficients than the target, and 1 exactly
    when the target majorizes the source.
    """
    return optimal_probability_detail(alpha, beta)[0]


def optimal_probability_detail(alpha: SchmidtVector, beta: SchmidtVector):
    """(probability, minimizing tail index l); smallest l on ties."""
    tail_a, tail_b, da, db, n = _tail_sums(alpha, beta)
    best = _least_ratio(tail_a, tail_b, n)
    if best is None:
        raise InvalidStateError("target state carries no weight")
    return _typed(Fraction(best[0] * db, best[1] * da), alpha, beta), best[2]


def breakpoints(alpha: SchmidtVector, beta: SchmidtVector) -> "Breakpoints":
    """Segment boundaries and tail ratios of the optimal conversion.

    The last boundary l_1 is the smallest minimizer of the global tail
    ratio; the construction then recurses on the head range [1, l_1 - 1],
    producing strictly increasing ratios r_1 < r_2 < ...  Trailing
    positions where both vectors are zero are treated as absent
    dimensions.  The ratios are exact, those of the dyadic lifts for
    float inputs.

    Raises
    ------
    InfeasibleConversionError
        If the source has fewer nonzero coefficients than the target
        (conversion probability 0 — no operators exist).
    """
    if alpha.nonzero_count() < beta.nonzero_count():
        raise InfeasibleConversionError(
            "target has more nonzero Schmidt coefficients than source; "
            "conversion probability is 0")
    tail_a, tail_b, da, db, upper = _tail_sums(alpha, beta)
    boundaries, ratios = [upper + 1], []
    while upper:   # the unresolved head range is 1..upper
        best = _least_ratio(tail_a, tail_b, upper)
        if best is None:
            raise InfeasibleConversionError(
                "no admissible tail ratio in the remaining range")
        run_a, run_b, l = best
        boundaries.append(l)
        ratios.append(Fraction(run_a * db, run_b * da))
        upper = l - 1
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
        if rt[0] > 1:
            raise InvalidStateError(f"leading tail ratio {rt[0]} exceeds 1")
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


def intermediate_state(bp: Breakpoints, beta: SchmidtVector) -> SchmidtVector:
    """Scale each target segment by its tail ratio: gamma_i = r_j beta_i.

    The result is the state the deterministic stage aims for; it
    majorizes the source and is mapped onto the target by the final
    filter with probability r_1.  It is exact, on the dyadic lift of a
    float target.  The construction provably yields a sorted vector;
    IntermediateOrderError flags a breach.
    """
    if beta.n != bp.n:
        raise ValueError(
            f"breakpoints describe {bp.n} dimensions, target has {beta.n}")
    nums, den = beta._scaled
    gamma = [None] * bp.n
    for j, lo, hi in bp.segments():   # from the last segment back
        top, bottom = bp.ratios[j - 1].as_integer_ratio()
        for i in range(lo, hi + 1):
            gamma[i - 1] = Fraction(top * nums[i - 1], bottom * den)
        # a segment keeps beta's order; the check is where two meet
        if hi < bp.n and gamma[hi - 1] < gamma[hi]:
            raise IntermediateOrderError(
                f"intermediate state out of order at position {hi}: "
                f"{gamma[hi - 1]} < {gamma[hi]}")
    return SchmidtVector(tuple(gamma))


@dataclass(frozen=True)
class DiagonalOperator:
    """Non-negative diagonal operator stored by its squared diagonal.

    A plan's squared entries are exact rationals; the float matrix (with
    the square roots taken) is derived on demand.
    """

    squared: tuple

    def __post_init__(self):
        sq = tuple(self.squared)
        if not sq:
            raise InvalidStateError("empty diagonal operator")
        for s in sq:
            num, den = s.as_integer_ratio()
            if not 0 <= num <= den:
                raise InvalidStateError(f"squared diagonal entry {s} outside [0, 1]")
        object.__setattr__(self, "squared", sq)

    @property
    def n(self) -> int:
        return len(self.squared)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.sqrt([float(s) for s in self.squared])).astype(
            complex)


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
    (trailing zero pairs dropped), as given.  The breakpoints,
    intermediate state and operators are exact, and ``probability`` is
    r_1, a float when either input is.  A degenerate plan (probability 0)
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
        return self.probability > 0

    @property
    def is_exact(self) -> bool:
        return self.source.is_exact and self.target.is_exact


def build_plan(alpha: SchmidtVector, beta: SchmidtVector) -> ConversionPlan:
    """Construct the two-stage optimal plan for alpha -> beta.

    Returns a degenerate probability-0 plan when the source has fewer
    nonzero coefficients than the target.  Otherwise the plan records the
    breakpoints, the intermediate state (checked to majorize the source),
    the filter pair, and the achieved probability r_1, which equals the
    closed-form optimum by construction — the two are computed through
    independent code paths and cross-checked in the tests.  Float inputs
    are planned exactly on their dyadic lifts.
    """
    n = _tail_sums(alpha, beta)[4]
    a, b = (v.padded(n) if v.n <= n else SchmidtVector(v.probs[:n])
            for v in (alpha, beta))
    if a.nonzero_count() < b.nonzero_count():
        return ConversionPlan(a, b, None, None, None, None,
                              _typed(Fraction(0), a, b))
    bp = breakpoints(a, b)
    gamma = intermediate_state(bp, b)
    success, failure = measurement_operators(bp)
    if not majorizes(a, gamma):
        raise PlanInvariantError(
            "intermediate state fails to majorize the source")
    # filter identity gamma_i * M_ii^2 == r_1 * beta_i on integer
    # numerators: g/D_g * s == r_1 * t/D_t, cross-multiplied
    r1 = bp.ratios[0]
    (gn, dg), (tn, dt) = gamma._scaled, b._scaled
    scale_g, scale_t = r1.denominator * dt, r1.numerator * dg
    for g, s, t in zip(gn, success.squared, tn):
        if g * s.numerator * scale_g != t * s.denominator * scale_t:
            raise PlanInvariantError(
                f"filter identity violated: {Fraction(g, dg)}*{s} != "
                f"{r1}*{Fraction(t, dt)}")
    return ConversionPlan(a, b, bp, gamma, success, failure, _typed(r1, a, b))


@dataclass(frozen=True)
class MultiCopyBound:
    """Ceiling on what joint processing of many copies can achieve."""

    m_max: object
    regime: str


def multi_copy_bound(alpha: SchmidtVector,
                     beta: SchmidtVector) -> MultiCopyBound:
    """Single-copy optimum plus the copies regime.

    When the source has fewer nonzero coefficients than the *square* of
    the target's count, converting two or more copies jointly is
    impossible (probability 0 for every N >= 2), so the single-copy
    optimum is the best per-copy rate; otherwise collective strategies
    may beat it.
    """
    p = optimal_probability(alpha, beta)
    if alpha.nonzero_count() < beta.nonzero_count() ** 2:
        return MultiCopyBound(p, SINGLE_COPY_OPTIMAL)
    return MultiCopyBound(p, MULTI_COPY_POSSIBLE)


def tensor_conversion_probability(alpha: SchmidtVector, beta: SchmidtVector,
                                  copies: int):
    """Optimal probability of converting N joint copies of the source
    into N copies of the target.  Super-multiplicative: for N = 2 it can
    strictly exceed the square of the single-copy value.  Float inputs
    are raised to the power on their dyadic lifts."""
    p = optimal_probability(tensor_power(_lifted(alpha), copies),
                            tensor_power(_lifted(beta), copies))
    return _typed(p, alpha, beta)
