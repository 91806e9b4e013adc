"""Four independent routes to the optimal conversion probability.

For random exact pairs the closed form, the plan's r_1 and the exact
enumerating engine must agree exactly; the amplitude engine agrees to
within 1e-9 and a seeded Monte-Carlo run to within five standard errors.
The pairs are drawn to hit ties, zero tails and single-segment plans.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from entconvert import (InfeasibleConversionError, SchmidtVector,
                        build_full_protocol, build_plan, exhaustive_run,
                        exhaustive_run_exact, monte_carlo_run,
                        optimal_probability, state_from_schmidt,
                        success_probability)

# amplitude and sampled routes run only on protocols this short, so
# the suite stays within a few seconds
MAX_FLOAT_MEASUREMENTS = 6
TRIALS = 400


def _vector(loads):
    total = sum(loads)
    return SchmidtVector(tuple(sorted((Fraction(x, total) for x in loads),
                                      reverse=True)))


@st.composite
def exact_pairs(draw):
    """(source, target) with n = 1..12 levels.

    Loads come from a narrow range (many ties) or a wide one, and may
    include zeros (zero tails).  One draw in four makes the target a
    coarse-graining of the source, which the source majorizes, so the
    plan has a single segment and succeeds with certainty.
    """
    n = draw(st.integers(1, 12))
    top = draw(st.sampled_from((3, 40)))
    low = draw(st.sampled_from((0, 1)))
    # one positive load keeps the vector's weight nonzero
    loads = st.builds(lambda head, rest: [head] + rest, st.integers(1, top),
                      st.lists(st.integers(low, top), min_size=n - 1,
                               max_size=n - 1))
    source = draw(loads)
    kind = draw(st.sampled_from(("random", "random", "random", "majorized")))
    if kind == "random":
        target = draw(loads)
    else:
        # merge adjacent sorted levels: the result majorizes the source
        ordered = sorted(source, reverse=True)
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)),
                                   max_size=n - 1)))
        target, lo = [], 0
        for cut in cuts + [n]:
            if cut > lo:
                target.append(sum(ordered[lo:cut]))
                lo = cut
        target += [0] * (n - len(target))
    return _vector(source), _vector(target)


@given(exact_pairs(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_four_routes_agree(pair, seed):
    alpha, beta = pair
    closed = optimal_probability(alpha, beta)
    plan = build_plan(alpha, beta)
    assert isinstance(closed, Fraction)
    assert plan.probability == closed
    if not plan.is_feasible:
        assert closed == 0
        try:
            build_full_protocol(plan)
        except InfeasibleConversionError:
            return
        raise AssertionError("an infeasible plan built a protocol")
    assert plan.breakpoints.ratios[0] == closed
    proto = build_full_protocol(plan)
    branches = exhaustive_run_exact(proto, plan.source)
    assert success_probability(branches, proto.success_predicate) == closed
    if proto.measurement_count > MAX_FLOAT_MEASUREMENTS:
        return
    initial = state_from_schmidt(plan.source)
    amplitude = success_probability(exhaustive_run(proto, initial),
                                    proto.success_predicate)
    assert abs(amplitude - float(closed)) <= 1e-9
    report = monte_carlo_run(proto, initial, TRIALS, seed)
    p = float(closed)
    sigma = math.sqrt(p * (1 - p) / TRIALS)
    assert abs(report.empirical_probability - p) <= 5 * sigma + 1e-12
