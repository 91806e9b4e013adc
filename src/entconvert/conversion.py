"""Optimal single-copy conversion between bipartite pure states.

The headline result: the best probability with which local operations
and classical communication turn a state with sorted squared Schmidt
coefficients ``alpha`` into one with ``beta`` is

    P = min over l of  (sum_{i>=l} alpha_i) / (sum_{i>=l} beta_i),

tails with zero denominator imposing no constraint.  This module
evaluates that closed form by one scan of the tail ratios and, by
independent code that pools adjacent levels, builds the object that
achieves it: a partition of the index range into segments with
strictly increasing tail ratios, an intermediate state
reachable deterministically, and a final two-outcome filter whose
success branch lands exactly on the target.  The filter pair are
diagonal ExactMonomials, the one exact operator type, from which locc
builds every protocol step; a built protocol's final measurement holds
the plan's own pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .numeric import _Scaled
from .schmidt import (InvalidStateError, SchmidtVector, _check_sum, _head,
                      _lifted, _typed, majorizes, tensor_power)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InfeasibleConversionError",
    "PlanInvariantError",
    "IntermediateOrderError",
    "Breakpoints",
    "ProtocolError",
    "ExactMonomial",
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


class ProtocolError(ValueError):
    """A protocol or one of its steps is malformed."""


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
    tail_a, tail_b = ([0, *list(accumulate(reversed(x[:n]), initial=0))[::-1]]
                      for x in (xa, xb))
    return tail_a, tail_b, da, db, n


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
    # ratios compare by cross-multiplying; tail_b[1] = D_b is never 0
    best_a, best_b, best = tail_a[1], tail_b[1], 1
    for l in range(2, n + 1):
        if tail_b[l] and tail_a[l] * best_b < best_a * tail_b[l]:
            best_a, best_b, best = tail_a[l], tail_b[l], l
    return _typed(Fraction(best_a * db, best_b * da), alpha, beta), best


def breakpoints(alpha: SchmidtVector, beta: SchmidtVector) -> "Breakpoints":
    """Segment boundaries and tail ratios of the optimal conversion.

    One pass pools adjacent levels from level n down to 1: each level
    starts a segment, which joins the segment after it while that
    segment's ratio is not below its own (a tie joins, so each boundary
    is the least l).  The segments left have strictly increasing ratios
    r_1 < r_2 < ..., and l_1 is the smallest minimizer of the global
    tail ratio.  Trailing positions where both vectors are zero are
    treated as absent dimensions; the ratios are exact, those of the
    dyadic lifts for float inputs.

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
    tail_a, tail_b, da, db, n = _tail_sums(alpha, beta)
    pooled = []   # (source sum, target sum, first level), last segment first
    for l in range(n, 0, -1):
        a, b = tail_a[l] - tail_a[l + 1], tail_b[l] - tail_b[l + 1]
        # ratios compare by cross-multiplying; a target sum of 0 is an
        # infinite ratio, which the level before it always joins
        while pooled and pooled[-1][0] * b >= a * pooled[-1][1]:
            top_a, top_b, _ = pooled.pop()
            a, b = a + top_a, b + top_b
        pooled.append((a, b, l))
    return Breakpoints((n + 1, *[l for _, _, l in pooled]),
                       tuple([Fraction(a * db, b * da) for a, b, _ in pooled]))


@dataclass(frozen=True)
class Breakpoints:
    """Descending boundaries (l_0 = n+1 > ... > l_k = 1) and the strictly
    increasing tail ratios (r_1 < ... < r_k), one per segment."""

    boundaries: tuple
    ratios: tuple

    def __post_init__(self):
        bd = tuple([int(b) for b in self.boundaries])
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
    float target, as integers over one denominator.  The construction
    provably yields a sorted vector; IntermediateOrderError flags a breach.
    """
    if beta.n != bp.n:
        raise ValueError(
            f"breakpoints describe {bp.n} dimensions, target has {beta.n}")
    nums, den = beta._scaled
    ratios = [r.as_integer_ratio() for r in bp.ratios]
    scale = math.lcm(*[bottom for _, bottom in ratios])
    total, gamma = scale * den, [0] * bp.n   # gamma_i over scale * D_beta
    for (_, lo, hi), (top, bottom) in zip(bp.segments(), ratios):
        factor = top * (scale // bottom)   # from the last segment back
        gamma[lo - 1:hi] = [factor * x for x in nums[lo - 1:hi]]
        # a segment keeps beta's order; the check is where two meet
        if hi < bp.n and gamma[hi - 1] < gamma[hi]:
            raise IntermediateOrderError(
                f"intermediate state out of order at position {hi}: "
                f"{Fraction(gamma[hi - 1], total)} < "
                f"{Fraction(gamma[hi], total)}")
    _check_sum(gamma, total)
    return SchmidtVector._of(gamma, total)


@dataclass(frozen=True)
class ExactMonomial(_Scaled):
    """Monomial operator (one nonzero entry per column) with rational
    squared magnitudes, the one exact form of an operator: a plan's filter
    pair and every step of a built protocol are given this way.

    ``rows[c]`` is the row of column c's nonzero entry, a permutation of
    0..n-1, and ``squared[c]`` its squared magnitude: the operator takes
    level c to level ``rows[c]``.  So ``matrix`` equals
    ``np.eye(n)[list(rows)]`` only when ``rows`` is its own inverse, as a
    transposition is, and is its transpose otherwise.  The squares are
    also kept as integers over one denominator, as
    ``SchmidtVector._scaled`` keeps a vector's entries.
    """

    rows: tuple
    squared: tuple
    _lazy = "squared"   # _from_scaled(nums, den, rows=rows) skips checks

    def __post_init__(self):
        rows = tuple([*map(int, self.rows)])
        squared = tuple([s if isinstance(s, Fraction) else Fraction(s)
                         for s in self.squared])
        if len(rows) != len(squared):
            raise ProtocolError("monomial row/entry length mismatch")
        if sorted(rows) != list(range(len(rows))):
            raise ProtocolError(
                f"monomial rows {rows} are not a permutation of "
                f"0..{len(rows) - 1}")
        ratios = [s.as_integer_ratio() for s in squared]
        den = math.lcm(*{d for _, d in ratios})
        nums = tuple([x * (den // d) for x, d in ratios])
        if any(x < 0 for x in nums):
            raise ProtocolError("negative squared magnitude in monomial")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "squared", squared)
        # not a field, so __eq__, __hash__ and repr still see the two above
        object.__setattr__(self, "_scaled", (nums, den))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np
        mat = np.zeros((self.n, self.n), dtype=complex)
        for col, (row, sq) in enumerate(zip(self.rows, self.squared)):
            mat[row, col] = math.sqrt(float(sq))
        return mat


def measurement_operators(bp: Breakpoints):
    """The final filter pair (success, failure), as diagonal monomials.

    The success operator is block diagonal, sqrt(r_1 / r_j) on segment j
    (identity on the last segment); the failure operator completes it,
    sqrt(1 - r_1/r_j), both over the least common denominator of the
    r_1/r_j.  Applied to the intermediate state the success branch has
    probability r_1 and lands exactly on the target.
    """
    top, bottom = bp.ratios[0].as_integer_ratio()
    parts = []   # r_1 / r_j per entry, reduced, as (numerator, denominator)
    for j, lo, hi in reversed([*bp.segments()]):
        x, d = bp.ratios[j - 1].as_integer_ratio()
        g = math.gcd(top * d, bottom * x)
        parts += [(top * d // g, bottom * x // g)] * (hi - lo + 1)
    den = math.lcm(*{d for _, d in parts})
    success = tuple([x * (den // d) for x, d in parts])
    rows = tuple(range(bp.n))
    return (ExactMonomial._from_scaled(success, den, rows=rows),
            ExactMonomial._from_scaled(tuple([den - s for s in success]),
                                       den, rows=rows))


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
    success_operator: ExactMonomial | None
    failure_operator: ExactMonomial | None
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
    # a and b, cut or padded to n, have alpha's and beta's tail sums
    bp = (breakpoints(alpha, beta)
          if alpha.nonzero_count() >= beta.nonzero_count() else None)
    n = _tail_sums(alpha, beta)[4] if bp is None else bp.n
    a, b = (v.padded(n) if v.n <= n else _head(v, n)
            for v in (alpha, beta))
    if bp is None:
        return ConversionPlan(a, b, None, None, None, None,
                              _typed(Fraction(0), a, b))
    gamma = intermediate_state(bp, b)
    success, failure = measurement_operators(bp)
    if not majorizes(a, gamma):
        raise PlanInvariantError(
            "intermediate state fails to majorize the source")
    # filter identity gamma_i * M_ii^2 == r_1 * beta_i on integer
    # numerators: g/D_g * s/D_s == r_1 * t/D_t, cross-multiplied
    r1 = bp.ratios[0]
    (gn, dg), (sn, ds), (tn, dt) = gamma._scaled, success._scaled, b._scaled
    scale_g, scale_t = r1.denominator * dt, r1.numerator * dg * ds
    for g, s, t in zip(gn, sn, tn):
        if g * s * scale_g != t * scale_t:
            raise PlanInvariantError(
                f"filter identity violated: {Fraction(g, dg)}*"
                f"{Fraction(s, ds)} != {r1}*{Fraction(t, dt)}")
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
