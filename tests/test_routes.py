"""Five independent routes to the optimal conversion probability.

For random exact pairs the closed form, the plan's r_1, the exact
enumerating engine and the merged exact engine must agree exactly; the
amplitude engine agrees to within 1e-9 and a seeded Monte-Carlo run to
within five standard errors.  The merged engine also gives the
enumerating engine's branch count and audit table, and its sampled mode
the amplitude-level sampler's success count and audit.
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvert import (Announce, ExactMonomial, InfeasibleConversionError,
                        LocalMeasurement, LocalUnitary, LoccProtocol,
                        OutcomeIs, ProtocolError,
                        SchmidtVector, audit_trajectories, breakpoints,
                        build_full_protocol, build_plan,
                        exhaustive_run, exhaustive_run_exact,
                        merged_run_exact, merged_sample_exact,
                        monte_carlo_run, optimal_probability,
                        optimal_probability_detail, state_from_schmidt,
                        success_probability)
from entconvert import locc
from entconvert.cli import main
from entconvert.locc import _DRAW_BLOCK, _sample_histories
from entconvert.numeric import round12
from entconvert.schmidt import _lifted

# amplitude and sampled routes run only on protocols this short, so
# the suite stays within a few seconds
MAX_FLOAT_MEASUREMENTS = 6
TRIALS = 400


def _vector(loads):
    total = sum(loads)
    return SchmidtVector(tuple(sorted((Fraction(x, total) for x in loads),
                                      reverse=True)))


@st.composite
def exact_pairs(draw, min_n=1, max_n=12):
    """(source, target) with n = min_n..max_n levels.

    Loads come from a narrow range (many ties) or a wide one, and may
    include zeros (zero tails).  One draw in four makes the target a
    coarse-graining of the source, which the source majorizes, so the
    plan has a single segment and succeeds with certainty.
    """
    n = draw(st.integers(min_n, max_n))
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
    merged = merged_run_exact(proto, plan.source)
    assert merged.success_probability == closed
    assert merged.branches == len(branches)
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


@st.composite
def exact_pairs_2_to_14(draw):
    n = draw(st.integers(2, 14))
    loads = st.lists(st.integers(1, 40), min_size=n, max_size=n)
    return _vector(draw(loads)), _vector(draw(loads))


@given(exact_pairs_2_to_14())
@settings(max_examples=40, deadline=None)
def test_merged_engine_equals_enumeration(pair):
    plan = build_plan(*pair)
    if not plan.is_feasible:
        return
    proto = build_full_protocol(plan)
    merged = merged_run_exact(proto, plan.source)
    branches = exhaustive_run_exact(proto, plan.source)
    assert merged.branches == len(branches)
    assert merged.success_probability == success_probability(
        branches, proto.success_predicate)
    table = audit_trajectories([(b.probability, b.states) for b in branches],
                               range(1, plan.source.n + 1))
    assert [[Fraction(nums[i], den) for nums, den in merged.audit]
            for i in range(plan.source.n)] == table
    assert [[nums[i] / den for nums, den in merged.audit]
            for i in range(plan.source.n)] == [[float(v) for v in row]
                                               for row in table]


def _assert_sampled_routes_agree(protocol, source, trials, seed):
    """The merged engine's sampled mode on the exact lift of ``source``
    against the amplitude-level sampler on ``source``: equal success
    counts, and every audit cell the correctly rounded exact average of
    the sampled histories, which the amplitude audit's float sums equal
    at 12 digits or miss in the last one."""
    initial = state_from_schmidt(source)
    merged = merged_sample_exact(protocol, _lifted(source), trials, seed)
    sampled = monte_carlo_run(protocol, initial, trials, seed)
    assert (merged.trials, merged.successes, merged.empirical_probability,
            merged.std_error, merged.seed) == (
        sampled.trials, sampled.successes, sampled.empirical_probability,
        sampled.std_error, sampled.seed)
    # exact reference: each sampled history's exact states, by its count
    histories = _sample_histories(protocol, initial, trials, seed)
    states = {b.history: b.states
              for b in exhaustive_run_exact(protocol, _lifted(source))}
    table = audit_trajectories([(c, states[h])
                                for h, (c, _) in histories.items()],
                               range(1, source.n + 1), check=False)
    assert len(merged.monotone_audit) == len(sampled.monotone_audit)
    for (s, k, new), (s_old, k_old, old) in zip(merged.monotone_audit,
                                               sampled.monotone_audit):
        assert (s, k) == (s_old, k_old)
        assert new == float(table[k - 1][s])
        assert round12(new) == round12(old) or math.isclose(
            new, old, rel_tol=1e-11)


@given(st.one_of(exact_pairs(2, 8), float_pairs(2, 8)),
       st.integers(0, 2**32 - 1), st.sampled_from((1, 300, 1000)))
@settings(max_examples=60, deadline=None)
def test_sampled_route_equals_monte_carlo(pair, seed, trials):
    plan = build_plan(*pair)
    if not plan.is_feasible:
        return
    proto = build_full_protocol(plan)
    if proto.measurement_count > MAX_FLOAT_MEASUREMENTS:
        return
    _assert_sampled_routes_agree(proto, plan.source, trials, seed)


@pytest.mark.parametrize("loads", [
    ([37, 23, 19, 13, 8], [27, 26, 21, 17, 9]),
    ([0.3115, 0.2869, 0.1967, 0.1311, 0.0738],
     [0.2566, 0.2566, 0.25, 0.2039, 0.0329])])
def test_sampled_route_across_draw_blocks(loads):
    pair = [_vector(x) if isinstance(x[0], int) else SchmidtVector(tuple(x))
            for x in loads]
    plan = build_plan(*pair)
    _assert_sampled_routes_agree(build_full_protocol(plan), plan.source,
                                 2 * _DRAW_BLOCK + 37, 31)


def test_sampled_route_skips_a_zero_probability_outcome():
    # outcome 1 of the first measurement projects onto the empty third
    # level, so it has probability 0 and no trial may take it; the other
    # two leave the state as it was, sorted on the diagonal, as the
    # integer states assume
    half, third = Fraction(1, 2), Fraction(1, 3)
    first = LocalMeasurement("A", exact=tuple(
        ExactMonomial((0, 1, 2), squares) for squares in
        ((half, half, 0), (0, 0, 1), (half, half, 0))))
    mixer = LocalMeasurement("B", exact=(
        ExactMonomial((0, 1, 2), (third, 1 - third, half)),
        ExactMonomial((0, 1, 2), (1 - third, third, half))))
    proto = LoccProtocol((first, mixer), success_predicate=OutcomeIs(-1, 0))
    source = SchmidtVector((Fraction(3, 5), Fraction(2, 5), Fraction(0)))
    assert merged_run_exact(proto, source).success_probability == \
        Fraction(7, 15)
    for trials, seed in ((3000, 8), (_DRAW_BLOCK + 37, 9)):
        _assert_sampled_routes_agree(proto, source, trials, seed)


def test_exact_routes_follow_row_order():
    # outcome 0 of the first measurement leaves the state on level 2
    # alone, |1>|1>, which the mixer then meets in that order; sorted, it
    # would meet |0>|0> and succeed with probability 1/3, not 7/15
    half, third = Fraction(1, 2), Fraction(1, 3)
    first = LocalMeasurement("A", exact=(
        ExactMonomial((0, 1, 2), (0, 1, 0)),
        ExactMonomial((0, 1, 2), (1, 0, 1))))
    mixer = LocalMeasurement("B", exact=(
        ExactMonomial((0, 1, 2), (third, 1 - third, half)),
        ExactMonomial((0, 1, 2), (1 - third, third, half))))
    proto = LoccProtocol((first, mixer), success_predicate=OutcomeIs(-1, 0))
    source = SchmidtVector((Fraction(3, 5), Fraction(2, 5), Fraction(0)))
    amplitude = success_probability(
        exhaustive_run(proto, state_from_schmidt(source)),
        proto.success_predicate)
    assert math.isclose(amplitude, 7 / 15, rel_tol=1e-12)
    assert merged_run_exact(proto, source).success_probability == \
        Fraction(7, 15)
    assert success_probability(exhaustive_run_exact(proto, source),
                               proto.success_predicate) == Fraction(7, 15)
    _assert_sampled_routes_agree(proto, source, 3000, 8)


def _exact_engines_agree_with_amplitudes(proto, source, trials, seed):
    """All three exact engines against the amplitude engine and sampler:
    equal branch counts, the exact success probability, the amplitude
    one within 1e-9, equal audits and equal sampled runs."""
    branches = exhaustive_run_exact(proto, source)
    amplitude = exhaustive_run(proto, state_from_schmidt(source))
    merged = merged_run_exact(proto, source)
    exact = success_probability(branches, proto.success_predicate)
    assert merged.success_probability == exact
    assert merged.branches == len(branches) == len(amplitude)
    assert abs(float(exact) - success_probability(
        amplitude, proto.success_predicate)) <= 1e-9
    ks = range(1, source.n + 1)
    table = audit_trajectories([(b.probability, b.states) for b in branches],
                               ks)
    assert [[Fraction(nums[i], den) for nums, den in merged.audit]
            for i in range(source.n)] == table
    floats = audit_trajectories(
        [(b.probability, b.states) for b in amplitude], ks)
    assert np.allclose(np.array(table, dtype=float), floats, atol=1e-9)
    _assert_sampled_routes_agree(proto, source, trials, seed)
    return exact


def test_exact_routes_follow_each_partys_order():
    # A swaps its levels, so A's level 0 (2/5) pairs with B's level 1 and
    # the B mixer meets B's level 0 at 3/5: 3/5 * 1/3 + 2/5 * 2/3
    third = Fraction(1, 3)
    swap = LocalMeasurement("A", exact=(ExactMonomial((1, 0), (1, 1)),))
    mixer = LocalMeasurement("B", exact=(
        ExactMonomial((0, 1), (third, 1 - third)),
        ExactMonomial((0, 1), (1 - third, third))))
    proto = LoccProtocol((swap, mixer), success_predicate=OutcomeIs(-1, 0))
    source = SchmidtVector((Fraction(3, 5), Fraction(2, 5)))
    assert _exact_engines_agree_with_amplitudes(
        proto, source, 3000, 8) == Fraction(7, 15)


def test_exact_routes_apply_permutation_unitaries():
    # a swap on B before the B mixer: B's level 0 now holds 2/5
    third = Fraction(1, 3)
    mixer = LocalMeasurement("B", exact=(
        ExactMonomial((0, 1), (third, 1 - third)),
        ExactMonomial((0, 1), (1 - third, third))))
    source = SchmidtVector((Fraction(3, 5), Fraction(2, 5)))
    swap = LocalUnitary("B", ExactMonomial((1, 0), (1, 1)), label="swap B")
    proto = LoccProtocol((swap, mixer), success_predicate=OutcomeIs(-1, 0))
    assert _exact_engines_agree_with_amplitudes(
        proto, source, 3000, 8) == Fraction(8, 15)
    # the same swap given densely is refused, naming its step, by every
    # exact engine, whether or not its condition holds
    for condition in (None, OutcomeIs(0, 1)):
        dense = LocalUnitary("B", np.eye(2)[[1, 0]], condition=condition,
                             label="swap B")
        proto = LoccProtocol((dense, mixer),
                             success_predicate=OutcomeIs(-1, 0))
        for run in (exhaustive_run_exact, merged_run_exact,
                    lambda proto, source: merged_sample_exact(
                        proto, source, 10, 0)):
            with pytest.raises(ProtocolError, match=(
                    r"step 0 \(swap B\) is a dense unitary")):
                run(proto, source)


def test_exact_routes_follow_three_cycles_on_either_party():
    # a 3-cycle relabel on B pairs A's levels 0, 1, 2 with B's 1, 2, 0,
    # which the B measurement meets through those partners; the A
    # measurement then cycles A's levels, each with its partner, and the
    # last two measurements meet them in that order on either party
    third, half = Fraction(1, 3), Fraction(1, 2)
    relabel = LocalUnitary("B", ExactMonomial((1, 2, 0), (1, 1, 1)),
                           label="cycle B")
    on_b = LocalMeasurement("B", exact=(
        ExactMonomial((0, 1, 2), (Fraction(1, 4), half, 1)),
        ExactMonomial((0, 1, 2), (Fraction(3, 4), half, 0))))
    on_a = LocalMeasurement("A", exact=(
        ExactMonomial((2, 0, 1), (third, 1 - third, Fraction(1, 5))),
        ExactMonomial((2, 0, 1), (1 - third, third, Fraction(4, 5)))))
    last_a = LocalMeasurement("A", exact=(
        ExactMonomial((0, 1, 2), (1, half, 0)),
        ExactMonomial((0, 1, 2), (0, half, 1))))
    last_b = LocalMeasurement("B", exact=(
        ExactMonomial((0, 1, 2), (third, 1, half)),
        ExactMonomial((0, 1, 2), (1 - third, 0, half))))
    proto = LoccProtocol((relabel, on_b, on_a, last_a, last_b),
                         success_predicate=OutcomeIs(-1, 0))
    source = SchmidtVector((half, third, Fraction(1, 6)))
    assert _exact_engines_agree_with_amplitudes(
        proto, source, 3000, 8) == Fraction(13, 18)


def test_merged_routes_refuse_a_relabel_reading_an_earlier_outcome(
        monkeypatch):
    half = Fraction(1, 2)
    coin = LocalMeasurement("A", exact=(
        ExactMonomial((0, 1), (half, half)),) * 2)
    relabel = LocalUnitary("B", ExactMonomial((1, 0), (1, 1)),
                           condition=OutcomeIs(0, 1), label="late")
    proto = LoccProtocol((coin, coin, relabel, coin),
                         success_predicate=OutcomeIs(-1, 0))
    assert len(exhaustive_run_exact(proto, SchmidtVector((half, half)))) == 8

    def measured(*_):
        raise AssertionError("a coin was measured before step 2 was read")

    # refused before the first measurement runs
    monkeypatch.setattr(locc, "_exact_outcomes", measured)
    for run in (merged_run_exact, lambda proto, source: merged_sample_exact(
            proto, source, 10, 0)):
        with pytest.raises(ProtocolError, match=(
                r"step 2 \(late\) is conditioned on more than the last")):
            run(proto, SchmidtVector((half, half)))


@pytest.mark.parametrize("success, succeeded", [
    (None, 1), (OutcomeIs(-1, 0), 0)])
@pytest.mark.parametrize("steps", [
    (),
    (LocalUnitary("A", ExactMonomial((1, 2, 0), (1, 1, 1))), Announce(),
     LocalUnitary("B", ExactMonomial((1, 0, 2), (1, 1, 1)),
                  condition=OutcomeIs(-1, 0)))])
def test_merged_routes_run_a_protocol_without_measurements(
        steps, success, succeeded):
    # one history, the empty one, which only a None predicate accepts
    source = SchmidtVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    proto = LoccProtocol(steps, success_predicate=success)
    branches = exhaustive_run_exact(proto, source)
    assert len(branches) == 1
    assert success_probability(branches, success) == succeeded
    table = audit_trajectories([(b.probability, b.states) for b in branches],
                               range(1, 4))
    merged = merged_run_exact(proto, source)
    assert (merged.branches, merged.success_probability) == (1, succeeded)
    assert [[Fraction(nums[i], den) for nums, den in merged.audit]
            for i in range(3)] == table
    sampled = merged_sample_exact(proto, source, 10, 0)
    assert sampled.successes == 10 * succeeded
    assert [v for _, _, v in sampled.monotone_audit] == [
        float(table[k - 1][s]) for s in range(len(steps) + 1)
        for k in (1, 2, 3)]


@st.composite
def monomial_protocols(draw):
    """(protocol, source): up to three two-outcome monomial measurements,
    each on either party with its own permutations, and permutation
    unitaries on either party, always or on the last outcome."""
    n = draw(st.integers(2, 4))
    loads = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if not any(loads):
        loads[0] = 1
    perms = st.permutations(range(n))
    parties = st.sampled_from("AB")
    splits = st.sampled_from([Fraction(x, 6) for x in range(7)])
    steps = []
    for depth in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            last = draw(st.sampled_from([None, OutcomeIs(-1, 1),
                                         OutcomeIs(max(depth - 1, 0), 0)]))
            steps.append(LocalUnitary(draw(parties), ExactMonomial(
                draw(perms), (1,) * n), condition=last))
        squares = [draw(splits) for _ in range(n)]
        steps.append(LocalMeasurement(draw(parties), exact=(
            ExactMonomial(draw(perms), squares),
            ExactMonomial(draw(perms), [1 - s for s in squares]))))
    if draw(st.booleans()):
        steps.append(LocalUnitary(draw(parties), ExactMonomial(
            draw(perms), (1,) * n), condition=OutcomeIs(-1, 0)))
    return (LoccProtocol(tuple(steps), success_predicate=OutcomeIs(-1, 0)),
            _vector(loads))


@given(monomial_protocols(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_routes_equal_amplitudes_on_monomial_protocols(case, seed):
    _exact_engines_agree_with_amplitudes(*case, 300, seed)
