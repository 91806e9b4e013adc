"""Pairwise conversion ordering and its failure modes.

Calling a state "more entangled" than another when it converts to it
with the higher probability does not define a consistent order: directed
comparison cycles exist, and conversion probabilities of tensor pairs
can beat the product of the single-copy values.  The searches here make
both phenomena concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conversion import optimal_probability, tensor_conversion_probability
from .schmidt import SchmidtVector, _lifted, _typed

__all__ = [
    "FIRST_GREATER",
    "SECOND_GREATER",
    "EQUAL",
    "BOTH_UNIT",
    "ComparisonResult",
    "compare",
    "find_cycle",
    "NonadditivityInstance",
    "nonadditivity_search",
    "INTRANSITIVE_TRIPLE",
    "SUPERMULTIPLICATIVE_PAIR",
]

FIRST_GREATER = "first_greater"
SECOND_GREATER = "second_greater"
EQUAL = "equal"
BOTH_UNIT = "both_unit"


@dataclass(frozen=True)
class ComparisonResult:
    """Directed probabilities between two states and the verdict.

    The first state counts as more entangled when it converts to the
    second with strictly higher probability than the reverse; both
    probabilities equal to 1 means the states are equivalent.  The
    verdict is decided on exact values, the dyadic lifts of float inputs.
    """

    p_forward: object
    p_backward: object
    verdict: str


def compare(first: SchmidtVector, second: SchmidtVector) -> ComparisonResult:
    a, b = _lifted(first), _lifted(second)
    pf = optimal_probability(a, b)
    pb = optimal_probability(b, a)
    if pf == 1 and pb == 1:
        verdict = BOTH_UNIT
    elif pf == pb:
        verdict = EQUAL
    elif pf > pb:
        verdict = FIRST_GREATER
    else:
        verdict = SECOND_GREATER
    return ComparisonResult(_typed(pf, first, second),
                            _typed(pb, first, second), verdict)


def find_cycle(states):
    """Directed cycle in the strictly-less-entangled relation, if any.

    An edge a -> b exists when b converts to a with strictly higher
    probability than a converts to b.  Returns the cycle as a list of
    indices with the first repeated at the end (e.g. [0, 1, 2, 0]), or
    None when the relation is acyclic.
    """
    states = [_lifted(s) for s in states]   # the verdicts read these alone
    if len(states) < 3:
        raise ValueError("cycle search needs at least 3 states")
    m = len(states)
    edges = {a: [] for a in range(m)}
    for a in range(m):
        for b in range(m):
            if a != b and compare(states[a],
                                  states[b]).verdict == SECOND_GREATER:
                edges[a].append(b)
    color = [0] * m  # 0 unseen, 1 on stack, 2 done
    parent = [None] * m

    def visit(v):
        color[v] = 1
        for w in edges[v]:
            if color[w] == 1:
                cycle = [w, v]
                node = v
                while node != w:
                    node = parent[node]
                    cycle.append(node)
                cycle.reverse()  # now starts and ends at w
                return cycle
            if color[w] == 0:
                parent[w] = v
                found = visit(w)
                if found is not None:
                    return found
        color[v] = 2
        return None

    for start in range(m):
        if color[start] == 0:
            found = visit(start)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class NonadditivityInstance:
    """A pair whose two-copy conversion beats the squared single-copy one."""

    alpha: SchmidtVector
    beta: SchmidtVector
    p_single: object
    p_single_squared: object
    p_pair: object


def nonadditivity_search(pairs):
    """Filter (alpha, beta) pairs for strict two-copy advantage.

    For each pair the single-copy optimum P and the joint two-copy
    optimum P2 are computed; the pair is reported when P2 > P**2, decided
    exactly (on the dyadic lifts of float inputs), with the values kept
    exact where the inputs are exact.
    """
    found = []
    for alpha, beta in pairs:
        a, b = _lifted(alpha), _lifted(beta)
        p1 = optimal_probability(a, b)
        p2 = tensor_conversion_probability(a, b, 2)
        if p2 > p1 * p1:
            found.append(NonadditivityInstance(alpha, beta, *(
                _typed(p, alpha, beta) for p in (p1, p1 * p1, p2))))
    return found


def _sv144(*numerators):
    return SchmidtVector(tuple(Fraction(x, 144) for x in numerators))


# Three four-level states whose pairwise "less entangled" relation loops:
# each converts to the next with lower probability than the reverse, all
# the way around.
INTRANSITIVE_TRIPLE = (
    _sv144(108, 12, 12, 12),
    _sv144(66, 66, 6, 6),
    _sv144(47, 47, 47, 3),
)

# Three-level pair whose two-copy conversion probability (25/28) strictly
# beats the squared single-copy optimum (25/36).
SUPERMULTIPLICATIVE_PAIR = (
    SchmidtVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
    SchmidtVector((Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))),
)
