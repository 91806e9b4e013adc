"""Four independent routes to the optimal conversion probability.

For random exact pairs the closed form, the plan's r_1 and the exact
enumerating engine must agree exactly; the amplitude engine agrees to
within 1e-9 and a seeded Monte-Carlo run to within five standard errors.
The pairs are drawn to hit ties, zero tails and single-segment plans.
Float pairs are planned on the exact binary (dyadic) value of their
entries: their results equal those of that exact pair, and the CLI's
float simulation agrees with them.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvert import (InfeasibleConversionError, SchmidtVector,
                        breakpoints, build_full_protocol, build_plan,
                        exhaustive_run, exhaustive_run_exact,
                        monte_carlo_run, optimal_probability,
                        optimal_probability_detail, state_from_schmidt,
                        success_probability)
from entconvert.cli import main

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


@st.composite
def float_pairs(draw, min_n=1, max_n=12):
    """(source, target) float vectors with n = min_n..max_n levels.

    Each entry is the float of its load over the total, so equal loads
    give tied floats; loads may be zero.  One vector in three gets one
    more entry of 5e-10, which is at most 1e-9 and so counts as zero.
    """
    n = draw(st.integers(min_n, max_n))
    top = draw(st.sampled_from((3, 40, 10**6)))
    low = draw(st.sampled_from((0, 1)))
    pair = []
    for _ in range(2):
        loads = [draw(st.integers(1, top))] + draw(st.lists(
            st.integers(low, top), min_size=n - 1, max_size=n - 1))
        total = sum(loads)
        probs = sorted((x / total for x in loads), reverse=True)
        if draw(st.integers(0, 2)) == 0:
            probs.append(5e-10)
        pair.append(SchmidtVector(tuple(probs)))
    return tuple(pair)


def _dyadic(sv):
    """The exact vector a float vector is planned as: the binary value of
    each entry, 0 for one at most 1e-9, normalized."""
    values = [Fraction(p) if p > 1e-9 else Fraction(0) for p in sv.probs]
    total = sum(values)
    return SchmidtVector(tuple(sorted((v / total for v in values),
                                      reverse=True)))


@given(float_pairs())
@settings(max_examples=150, deadline=None)
def test_float_pair_plans_on_its_dyadic_lift(pair):
    alpha, beta = pair
    exact = _dyadic(alpha), _dyadic(beta)
    p, minimizer = optimal_probability_detail(alpha, beta)
    want, want_minimizer = optimal_probability_detail(*exact)
    assert isinstance(p, float)
    assert (p, minimizer) == (float(want), want_minimizer)
    try:
        want_bp = breakpoints(*exact)
    except InfeasibleConversionError:
        with pytest.raises(InfeasibleConversionError):
            breakpoints(alpha, beta)
        assert build_plan(alpha, beta).probability == 0.0
        return
    assert breakpoints(alpha, beta) == want_bp
    plan, exact_plan = build_plan(alpha, beta), build_plan(*exact)
    assert plan.probability == float(exact_plan.probability)
    assert (plan.breakpoints, plan.intermediate, plan.success_operator,
            plan.failure_operator) == (
        exact_plan.breakpoints, exact_plan.intermediate,
        exact_plan.success_operator, exact_plan.failure_operator)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(float_pairs(2, 16))
@settings(max_examples=40, deadline=None)
def test_float_simulate_agrees_with_closed_form(tmp_path_factory, pair):
    alpha, beta = pair
    p = optimal_probability(alpha, beta)
    if p == 0:
        return
    if build_full_protocol(build_plan(alpha, beta)).measurement_count > \
            MAX_FLOAT_MEASUREMENTS:
        return
    paths = []
    for sv in pair:
        paths.append(tmp_path_factory.mktemp("pair") / "state.json")
        paths[-1].write_text(json.dumps({"schmidt_sq": list(sv.probs)}))
    code, out, err = _cli(["simulate", *map(str, paths), "--mode", "float",
                           "--exhaustive"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert abs(doc["success_probability"] - p) <= 1e-12
    assert abs(doc["predicted"] - p) <= 1e-12
