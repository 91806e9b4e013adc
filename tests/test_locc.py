"""Protocol execution engines, builders, and the Monte-Carlo sampler."""

import dataclasses
import math
import pickle
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from entconvert import (Announce, BipartiteState, BranchLimitError,
                        DiagonalOperator, ExactMonomial,
                        InfeasibleConversionError, InvalidStateError,
                        LocalMeasurement,
                        LocalUnitary, LoccProtocol, MajorizationError,
                        OutcomeIs, ProtocolError, SchmidtVector,
                        SimulationReport, apply_measurement,
                        audit_trajectories, build_full_protocol, build_plan,
                        deterministic_protocol, entanglement_monotone,
                        exhaustive_run, exhaustive_run_exact, majorizes,
                        merged_run_exact, merged_sample_exact,
                        monotone_audit, monte_carlo_run,
                        MonotoneViolationError, schmidt_decompose,
                        state_from_schmidt, success_probability)
from entconvert import locc
from entconvert.locc import (_DRAW_BLOCK, _LazyBranchTree, _exact_outcomes,
                             _sample_histories)
from entconvert.numeric import DEFAULT_TOL
from entconvert.schmidt import _lifted
from util import (rand_float_schmidt, rand_kraus, rand_majorized_below,
                  rand_rational_schmidt, rand_state)

F = Fraction

ALPHA2 = SchmidtVector((F(4, 5), F(1, 5)))
BELL = SchmidtVector((F(1, 2), F(1, 2)))
ALPHA3 = SchmidtVector((F(1, 2), F(3, 10), F(1, 5)))
BETA3 = SchmidtVector((F(2, 5), F(2, 5), F(1, 5)))
# a float pair whose intermediate state, computed in floats, majorizes
# the source only up to rounding, not on the exact value of the floats;
# planned on that exact value, it majorizes exactly
FLOAT_REFUSED = (
    SchmidtVector((0.4178899101020145, 0.29413420190845246,
                   0.22282938363663637, 0.06514650435289661)),
    SchmidtVector((0.3525155968935936, 0.2720785050141842,
                   0.216458009209973, 0.15894788888224937)))


def _final_schmidt(branch):
    state = branch.final_state
    if isinstance(state, SchmidtVector):
        return state.as_floats()
    return schmidt_decompose(state).as_floats()


class TestApplyMeasurement:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        state = rand_state(rng, 3, 3)
        ops = rand_kraus(rng, 3, 3)
        outcomes = apply_measurement(state, "A", ops)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0)

    def test_incomplete_operators_rejected(self):
        state = state_from_schmidt(BELL)
        half = np.eye(2) / 2
        with pytest.raises(ProtocolError):
            apply_measurement(state, "A", [half])

    def test_party_b_acts_on_columns(self):
        state = state_from_schmidt(ALPHA2)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        outs = apply_measurement(state, "B", [swap])
        assert outs[0].probability == pytest.approx(1.0)
        post = outs[0].post_state.amplitudes
        assert post[0, 1] == pytest.approx(math.sqrt(0.8))

    def test_bad_party(self):
        state = state_from_schmidt(BELL)
        with pytest.raises(ProtocolError):
            apply_measurement(state, "C", [np.eye(2)])

    def test_shape_mismatch(self):
        state = state_from_schmidt(BELL)
        with pytest.raises(ProtocolError):
            apply_measurement(state, "A", [np.eye(3)])

    def test_zero_probability_outcome_pruned(self):
        state = BipartiteState(np.array([[1.0, 0.0], [0.0, 0.0]],
                                        dtype=complex))
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        outs = apply_measurement(state, "A", [proj0, proj1])
        assert outs[0].probability == pytest.approx(1.0)
        assert outs[1].post_state is None


class TestMeasurementCheckPerStep:
    """The engines check a step's operators once per run, when the step
    is first measured, and raise what apply_measurement raises."""

    @staticmethod
    def _protocol(second_ops):
        half = tuple(np.eye(2, dtype=complex) / math.sqrt(2) for _ in range(2))
        return LoccProtocol((LocalMeasurement("A", half), Announce(),
                             LocalMeasurement("A", second_ops)))

    @pytest.mark.parametrize("second_ops, message", [
        ((np.eye(2) / 2,), "do not resolve the identity"),
        ((np.eye(3),), "shape mismatch"),
    ])
    def test_bad_later_step_raises_in_every_engine(self, second_ops,
                                                   message):
        proto = self._protocol(second_ops)
        initial = state_from_schmidt(BELL)
        with pytest.raises(ProtocolError, match=message):
            apply_measurement(initial, "A", second_ops)
        with pytest.raises(ProtocolError, match=message):
            exhaustive_run(proto, initial)
        with pytest.raises(ProtocolError, match=message):
            monte_carlo_run(proto, initial, 50, 1)

    def test_checked_once_per_step_per_run(self, monkeypatch):
        import entconvert.locc as locc
        calls = []
        real = locc._checked_operators

        def counting(state, party, operators, tol):
            calls.append(len(operators))
            return real(state, party, operators, tol)

        monkeypatch.setattr(locc, "_checked_operators", counting)
        plan = build_plan(rand_rational_schmidt(np.random.default_rng(8), 6),
                          rand_rational_schmidt(np.random.default_rng(9), 6))
        proto = build_full_protocol(plan)
        initial = state_from_schmidt(plan.source)
        branches = exhaustive_run(proto, initial)
        assert len(branches) > proto.measurement_count
        assert len(calls) == proto.measurement_count
        calls.clear()
        monte_carlo_run(proto, initial, 500, 3)
        assert 0 < len(calls) <= proto.measurement_count


def _outcome(mono, sv, party="A", partners=None):
    """(probability, post) of ``mono`` alone, measured on ``party`` of the
    integer state of ``sv`` whose A level a pairs with B's partners[a]."""
    if partners is None:
        partners = tuple(range(sv.n))
    step = LocalMeasurement(party, exact=(mono,))
    [outcome] = _exact_outcomes(step, (sv._scaled, partners))
    return outcome


class TestExactMonomial:
    def test_matrix_layout(self):
        mono = ExactMonomial((1, 0), (F(1, 4), F(1)))
        mat = mono.matrix()
        assert mat[1, 0] == pytest.approx(0.5)
        assert mat[0, 1] == pytest.approx(1.0)

    def test_outcome_on_diagonal_state(self):
        mono = ExactMonomial((0, 1), (F(1, 4), F(1)))
        p, post = _outcome(mono, ALPHA2)
        assert p == F(2, 5)
        # the post state's reduced integer form, as a SchmidtVector has it
        assert post == (((1, 1), 2), (0, 1)) and post[0] == BELL._scaled

    def test_outcome_is_the_post_vectors_integer_form(self):
        mono = ExactMonomial((2, 0, 1), (F(1, 6), F(2, 3), F(1, 2)))
        p, post = _outcome(mono, ALPHA3)
        weights = [F(1, 6) * F(1, 2), F(2, 3) * F(3, 10), F(1, 2) * F(1, 5)]
        assert p == sum(weights)
        want = SchmidtVector(tuple(sorted((w / p for w in weights),
                                          reverse=True)))
        # level c moves to rows[c], and its partner with it
        assert post == (want._scaled, (1, 2, 0))

    def test_outcome_on_b_meets_each_level_through_its_partner(self):
        # A's levels 0, 1, 2 pair with B's 1, 2, 0
        mono = ExactMonomial((2, 0, 1), (F(1, 6), F(2, 3), F(1, 2)))
        p, post = _outcome(mono, ALPHA3, "B", (1, 2, 0))
        weights = [F(2, 3) * F(1, 2), F(1, 2) * F(3, 10), F(1, 6) * F(1, 5)]
        assert p == sum(weights)
        # on B only the partners move, to rows[partner]
        want = tuple(w / p for w in weights)
        assert post[1] == (0, 1, 2)
        assert tuple(F(x, post[0][1]) for x in post[0][0]) == want

    def test_zero_outcome(self):
        mono = ExactMonomial((0, 1), (F(0), F(0)))
        p, post = _outcome(mono, ALPHA2)
        assert p == 0 and post is None

    def test_validation(self):
        with pytest.raises(ProtocolError):
            ExactMonomial((0,), (F(1), F(1)))
        with pytest.raises(ProtocolError):
            ExactMonomial((0,), (F(-1),))
        # outcome sorts the weights, which needs one entry per row
        for rows in ((0, 0), (1, 2), (0, -1), (2, 1, 1)):
            with pytest.raises(ProtocolError, match="not a permutation"):
                ExactMonomial(rows, (F(1),) * len(rows))


class TestProtocolSteps:
    def test_measurement_validation(self):
        with pytest.raises(ProtocolError):
            LocalMeasurement("X", (np.eye(2),))
        with pytest.raises(ProtocolError):
            LocalMeasurement("A", ())
        with pytest.raises(ProtocolError):
            LocalMeasurement("A", (np.ones((2, 3)),))
        # one array holding every operator is a sequence of operators
        stacked = np.stack([np.eye(2) / math.sqrt(2)] * 2)
        assert len(LocalMeasurement("A", stacked).operators) == 2

    def test_unitary_validation(self):
        with pytest.raises(ProtocolError):
            LocalUnitary("A", np.ones((2, 2)))
        LocalUnitary("B", np.eye(2))

    def test_protocol_rejects_unknown_steps(self):
        with pytest.raises(ProtocolError):
            LoccProtocol(("announce",))

    def test_measurement_count(self):
        proto = LoccProtocol((Announce(), LocalUnitary("A", np.eye(2))))
        assert proto.measurement_count == 0


class TestFullProtocol:
    def test_two_level_exact_run(self):
        plan = build_plan(ALPHA2, BELL)
        proto = build_full_protocol(plan)
        branches = exhaustive_run_exact(proto, plan.source)
        p = success_probability(branches, proto.success_predicate)
        assert p == F(2, 5)
        assert sum(b.probability for b in branches) == 1
        for b in branches:
            if proto.success_predicate(b.history):
                assert b.final_state.probs == BELL.probs

    def test_two_level_float_run(self):
        plan = build_plan(ALPHA2, BELL)
        proto = build_full_protocol(plan)
        branches = exhaustive_run(proto, state_from_schmidt(plan.source))
        p = success_probability(branches, proto.success_predicate)
        assert p == pytest.approx(0.4, abs=1e-12)
        for b in branches:
            if proto.success_predicate(b.history):
                assert np.allclose(_final_schmidt(b), [0.5, 0.5], atol=1e-9)

    def test_three_level_exact_run(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        branches = exhaustive_run_exact(proto, plan.source)
        assert success_probability(branches, proto.success_predicate) == F(5, 6)
        # failure branch collapses to a narrower state than the target
        for b in branches:
            if not proto.success_predicate(b.history):
                assert b.final_state.nonzero_count() < BETA3.nonzero_count()

    def test_engines_agree(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        exact = exhaustive_run_exact(proto, plan.source)
        floats = exhaustive_run(proto, state_from_schmidt(plan.source))
        pe = success_probability(exact, proto.success_predicate)
        pf = success_probability(floats, proto.success_predicate)
        assert float(pe) == pytest.approx(pf, abs=1e-10)

    def test_infeasible_plan_rejected(self):
        flat3 = SchmidtVector((F(1, 3),) * 3)
        plan = build_plan(BELL, flat3)
        with pytest.raises(InfeasibleConversionError):
            build_full_protocol(plan)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs_exact_probability(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 5))
        a = rand_rational_schmidt(rng, n)
        b = rand_rational_schmidt(rng, n)
        plan = build_plan(a, b)
        proto = build_full_protocol(plan)
        branches = exhaustive_run_exact(proto, plan.source)
        p = success_probability(branches, proto.success_predicate)
        assert p == plan.probability
        for branch in branches:
            if proto.success_predicate(branch.history):
                assert branch.final_state.probs == plan.target.probs


class TestDeterministicProtocol:
    def test_bell_to_product(self):
        proto = deterministic_protocol(BELL, SchmidtVector((F(1), F(0))))
        branches = exhaustive_run_exact(proto, BELL)
        assert len(branches) == 2
        for b in branches:
            assert b.probability == F(1, 2)
            assert b.final_state.probs == (F(1), F(0))

    def test_already_there(self):
        proto = deterministic_protocol(ALPHA3, ALPHA3)
        assert len(proto.steps) == 0

    def test_majorization_required(self):
        with pytest.raises(MajorizationError):
            deterministic_protocol(SchmidtVector((F(1), F(0))), BELL)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_branch_lands_on_target(self, seed):
        rng = np.random.default_rng(2200 + seed)
        n = int(rng.integers(2, 6))
        gamma = rand_rational_schmidt(rng, n)
        alpha = rand_majorized_below(rng, gamma, steps=int(rng.integers(1, 4)))
        proto = deterministic_protocol(alpha, gamma)
        branches = exhaustive_run_exact(proto, alpha)
        assert sum(b.probability for b in branches) == 1
        for b in branches:
            assert b.final_state.probs == gamma.probs

    @pytest.mark.parametrize("seed", range(5))
    def test_float_amplitudes_land_within_tolerance(self, seed):
        rng = np.random.default_rng(2400 + seed)
        gamma = rand_rational_schmidt(rng, 4)
        alpha = rand_majorized_below(rng, gamma, steps=2)
        proto = deterministic_protocol(alpha, gamma)
        branches = exhaustive_run(proto, state_from_schmidt(alpha))
        for b in branches:
            assert np.allclose(_final_schmidt(b), gamma.as_floats(), atol=1e-9)

    def test_step_count_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            gamma = rand_rational_schmidt(rng, n)
            alpha = rand_majorized_below(rng, gamma, steps=4)
            proto = deterministic_protocol(alpha, gamma)
            assert proto.measurement_count <= n - 1

    def test_float_majorization_checked_exactly(self):
        plan = build_plan(*FLOAT_REFUSED)
        assert majorizes(plan.source, plan.intermediate)
        proto = deterministic_protocol(plan.source, plan.intermediate)
        # the exact binary value of the source floats, normalized
        total = sum(map(Fraction, plan.source.probs))
        lifted = SchmidtVector(tuple(Fraction(p) / total
                                     for p in plan.source.probs))
        for branch in exhaustive_run_exact(proto, lifted):
            assert branch.final_state == plan.intermediate
        for branch in exhaustive_run(proto, state_from_schmidt(plan.source)):
            assert np.allclose(_final_schmidt(branch),
                               plan.intermediate.as_floats(), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_random_float_plans_synthesize(self, n):
        rng = np.random.default_rng(3)
        for _ in range(200):
            plan = build_plan(rand_float_schmidt(rng, n),
                              rand_float_schmidt(rng, n))
            proto = build_full_protocol(plan)
            assert proto.measurement_count <= n


class TestOutcomeIs:
    @pytest.mark.parametrize("index, value, history, expected", [
        (-1, 0, (), False),
        (-1, 0, (1, 0), True),
        (-1, 0, (0, 1), False),
        (-2, 0, (0, 1), True),
        (-3, 0, (0, 1), False),
        (0, 1, (1,), True),
        (1, 1, (0, 1), True),
        (1, 1, (1, 0), False),
        (2, 1, (1, 1), False),
    ])
    def test_reads_one_outcome(self, index, value, history, expected):
        assert OutcomeIs(index, value)(history) is expected

    def test_is_plain_data(self):
        test = OutcomeIs(-1, 0)
        assert test == OutcomeIs(-1, 0) != OutcomeIs(0, 0)
        assert hash(test) == hash(OutcomeIs(-1, 0))
        assert len({test, OutcomeIs(-1, 0), OutcomeIs(3, 1)}) == 2
        assert pickle.loads(pickle.dumps(test)) == test
        with pytest.raises(dataclasses.FrozenInstanceError):
            test.index = 0


def _float_plan(alpha, beta):
    return build_plan(SchmidtVector(tuple(float(p) for p in alpha.probs)),
                      SchmidtVector(tuple(float(p) for p in beta.probs)))


class TestProtocolAsData:
    PLANS = {
        "exact-2": lambda: build_plan(ALPHA2, BELL),
        "exact-3": lambda: build_plan(ALPHA3, BETA3),
        "exact-6": lambda: build_plan(
            *(rand_rational_schmidt(np.random.default_rng(41), 6)
              for _ in range(2))),
        "float-2": lambda: _float_plan(ALPHA2, BELL),
        "float-3": lambda: _float_plan(ALPHA3, BETA3),
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_conditions_are_outcome_tests(self, name):
        proto = build_full_protocol(self.PLANS[name]())
        assert proto.success_predicate == OutcomeIs(-1, 0)
        measured = 0
        for step in proto.steps:
            if isinstance(step, LocalMeasurement):
                measured += 1
            elif isinstance(step, LocalUnitary):
                assert step.condition == OutcomeIs(measured - 1, 1)
        assert measured == proto.measurement_count

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_operators_derive_from_monomials(self, name):
        proto = build_full_protocol(self.PLANS[name]())
        for step in proto.steps:
            if isinstance(step, LocalMeasurement):
                assert step.exact is not None
                assert len(step.operators) == len(step.exact)
                for op, mono in zip(step.operators, step.exact):
                    assert np.array_equal(op, mono.matrix())

    @pytest.mark.parametrize("name", ["float-2", "float-3"])
    def test_float_filter_matches_diagonal_operators(self, name):
        plan = self.PLANS[name]()
        final = build_full_protocol(plan).steps[-1]
        assert [op.tobytes() for op in final.operators] == [
            plan.success_operator.matrix.tobytes(),
            plan.failure_operator.matrix.tobytes()]

    def test_filter_squares_outside_unit_range_refused(self):
        # a float plan's filter is exact, so its squares need no clipping;
        # squares just outside [0, 1] are refused where they are made
        plan = _float_plan(ALPHA2, BELL)
        final = build_full_protocol(plan).steps[-1]
        assert [mono.squared for mono in final.exact] == [
            plan.success_operator.squared, plan.failure_operator.squared]
        assert all(isinstance(s, Fraction) and 0 <= s <= 1
                   for mono in final.exact for s in mono.squared)
        for bad in (1 + 1e-12, -1e-12):
            with pytest.raises(InvalidStateError, match="outside"):
                DiagonalOperator((F(1, 2), bad))

    def test_measurement_from_monomials_alone(self):
        monos = (ExactMonomial((0, 1), (F(1, 4), F(1))),
                 ExactMonomial((1, 0), (F(3, 4), F(0))))
        meas = LocalMeasurement("A", exact=monos)
        assert meas.exact == monos
        for op, mono in zip(meas.operators, monos):
            assert np.array_equal(op, mono.matrix())
            assert not op.flags.writeable
        for empty in ({}, {"exact": ()}):
            with pytest.raises(ProtocolError, match="at least one operator"):
                LocalMeasurement("A", **empty)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_relabels_are_permutations(self, name):
        proto = build_full_protocol(self.PLANS[name]())
        steps = proto.steps
        relabels = [pos for pos, step in enumerate(steps)
                    if isinstance(step, LocalUnitary)]
        for pos in relabels:
            step, swap = steps[pos], steps[pos - 2].exact[1]
            assert "matrix" not in vars(step)
            assert step.exact == ExactMonomial(swap.rows, (1,) * swap.n)
            dense = step.matrix
            expected = np.eye(swap.n, dtype=complex)[list(swap.rows)]
            assert (dense.dtype, dense.shape) == (expected.dtype,
                                                  expected.shape)
            assert dense.tobytes() == expected.tobytes()
            assert not dense.flags.writeable
            assert step.matrix is dense

    def test_unitary_from_a_permutation_alone(self):
        cycle = ExactMonomial((2, 0, 1), (1, 1, 1))
        unitary = LocalUnitary("B", cycle, condition=OutcomeIs(0, 1))
        assert "matrix" not in vars(unitary) and unitary.exact is cycle
        clone = pickle.loads(pickle.dumps(unitary))
        assert "matrix" not in vars(clone) and clone.exact == cycle
        for step in (unitary, clone):
            assert np.array_equal(step.matrix, cycle.matrix())
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            unitary.missing
        with pytest.raises(ProtocolError, match="matrix is not unitary"):
            LocalUnitary("A", ExactMonomial((1, 0), (1, F(1, 2))))
        with pytest.raises(ProtocolError, match="not a permutation"):
            LocalUnitary("A", ExactMonomial((0, 0), (1, 1)))

    def test_large_protocol_holds_no_dense_matrix(self):
        rng = np.random.default_rng(2560)
        plan = build_plan(*(rand_rational_schmidt(rng, 256)
                            for _ in range(2)))
        proto = build_full_protocol(plan)
        assert proto.measurement_count > 200
        assert not any({"matrix", "operators"} & set(vars(step))
                       for step in proto.steps)
        # and its merged runs stay within the audit limit
        assert 256 * (len(proto.steps) + 1) <= locc.MAX_AUDIT_CELLS


class TestMonotoneAudit:
    def test_two_level_filter_keeps_tail_weight(self):
        plan = build_plan(ALPHA2, BELL)
        proto = build_full_protocol(plan)
        branches = exhaustive_run_exact(proto, plan.source)
        avgs = monotone_audit(branches, 2)
        assert avgs[0] == F(1, 5)
        assert avgs[-1] == F(1, 5)  # 2/5 * 1/2 + 3/5 * 0

    def test_three_level_frozen_audit(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        branches = exhaustive_run_exact(proto, plan.source)
        # one balancing measurement (3 steps) + the filter = 5 boundaries
        assert monotone_audit(branches, 3) == [
            F(1, 5), F(1, 6), F(1, 6), F(1, 6), F(1, 6)]
        assert monotone_audit(branches, 2) == [F(1, 2)] * 5
        assert monotone_audit(branches, 1) == [F(1)] * 5

    def test_never_increases_on_random_protocols(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            state = rand_state(rng, n, n)
            steps = []
            for _ in range(int(rng.integers(1, 4))):
                party = "A" if rng.random() < 0.5 else "B"
                ops = rand_kraus(rng, n, int(rng.integers(2, 4)))
                steps.append(LocalMeasurement(party, tuple(ops)))
            proto = LoccProtocol(tuple(steps))
            branches = exhaustive_run(proto, state)
            for k in range(1, n + 1):
                avgs = monotone_audit(branches, k)  # raises on violation
                assert all(x >= y - 1e-9 for x, y in zip(avgs, avgs[1:]))

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            monotone_audit([], 1)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range_rejected(self, k):
        plan = build_plan(ALPHA3, BETA3)
        branches = exhaustive_run_exact(build_full_protocol(plan), plan.source)
        with pytest.raises(ValueError, match="out of range"):
            monotone_audit(branches, k)

    def test_all_k_table_matches_single_k_audits(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        for branches in (exhaustive_run_exact(proto, plan.source),
                         exhaustive_run(proto, state_from_schmidt(plan.source))):
            table = audit_trajectories(
                [(b.probability, b.states) for b in branches], range(1, 4))
            assert table == [monotone_audit(branches, k) for k in (1, 2, 3)]

    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_all_k_table_on_random_exact_runs(self, n):
        rng = np.random.default_rng(3100 + n)
        plan = build_plan(rand_rational_schmidt(rng, n),
                          rand_rational_schmidt(rng, n))
        branches = exhaustive_run_exact(build_full_protocol(plan),
                                        plan.source)
        ks = range(1, n + 1)
        table = audit_trajectories(
            [(b.probability, b.states) for b in branches], ks)
        assert table == [monotone_audit(branches, k) for k in ks]
        for k, averages in zip(ks, table):
            assert averages == [
                sum(b.probability * entanglement_monotone(b.states[s], k)
                    for b in branches)
                for s in range(len(branches[0].states))]
            assert all(type(v) is Fraction for v in averages)

    def test_float_averages_keep_branch_order(self):
        # one shared state object, weights whose float sum depends on order
        state = state_from_schmidt(SchmidtVector((0.7, 0.2, 0.1)))
        weights = [0.1, 0.2, 0.3, 1e-17, 0.4]
        [averages] = audit_trajectories(
            [(w, (state,)) for w in weights], (2,))
        e2 = entanglement_monotone(schmidt_decompose(state), 2)
        assert averages == [sum(w * e2 for w in weights) / sum(weights)]

    def test_exact_run_shares_equal_states(self):
        # every branch of the deterministic stage lands on the same vector
        rng = np.random.default_rng(11)
        gamma = rand_rational_schmidt(rng, 6)
        alpha = rand_majorized_below(rng, gamma, steps=5)
        branches = exhaustive_run_exact(deterministic_protocol(alpha, gamma),
                                        alpha)
        assert len(branches) > 2
        for s in range(len(branches[0].states)):
            assert len({id(b.states[s]) for b in branches}) <= 2
        assert len({id(b.final_state) for b in branches}) == 1
        assert all(b.final_state == gamma for b in branches)


class TestExactMeasurementChecks:
    """Exact engines refuse what the amplitude engine refuses: monomials
    that do not fit the state or do not resolve the identity."""

    SOURCE = SchmidtVector((F(3, 4), F(1, 4)))

    @pytest.mark.parametrize("monos, message", [
        ((ExactMonomial((0, 1), (F(1, 3), F(1))),),
         "do not resolve the identity"),
        ((ExactMonomial((0, 1), (F(1, 2), F(1, 2))),
          ExactMonomial((1, 0), (F(1, 2), F(2, 3)))),
         "do not resolve the identity"),
        ((ExactMonomial((0, 1, 2), (F(1),) * 3),), "shape mismatch"),
    ])
    def test_refused_like_amplitude_operators(self, monos, message):
        proto = LoccProtocol((Announce(), LocalMeasurement("A", exact=monos)))
        for run in (exhaustive_run_exact, merged_run_exact):
            with pytest.raises(ProtocolError, match=message):
                run(proto, self.SOURCE)
        with pytest.raises(ProtocolError, match=message):
            exhaustive_run(proto, state_from_schmidt(self.SOURCE))

    def test_checked_once_per_step_per_run(self, monkeypatch):
        calls = []
        real = locc._checked_monomials

        def counting(step, n):
            calls.append(step)
            return real(step, n)

        monkeypatch.setattr(locc, "_checked_monomials", counting)
        plan = build_plan(rand_rational_schmidt(np.random.default_rng(8), 6),
                          rand_rational_schmidt(np.random.default_rng(9), 6))
        proto = build_full_protocol(plan)
        for run in (exhaustive_run_exact, merged_run_exact):
            calls.clear()
            run(proto, plan.source)
            assert len(calls) == len(set(calls)) == proto.measurement_count


class TestMergedEngine:
    def test_success_on_the_last_outcome_merges(self):
        assert LoccProtocol((), success_predicate=None).mergeable
        assert LoccProtocol((), success_predicate=OutcomeIs(-1, 1)).mergeable
        for test in (OutcomeIs(0, 0), OutcomeIs(-2, 0), lambda h: True):
            assert not LoccProtocol((), success_predicate=test).mergeable

    def test_three_level_run(self):
        plan = build_plan(ALPHA3, BETA3)
        run = merged_run_exact(build_full_protocol(plan), plan.source)
        assert run.branches == 4
        assert run.success_probability == F(5, 6)
        assert [F(nums[2], den) for nums, den in run.audit] == [
            F(1, 5), F(1, 6), F(1, 6), F(1, 6), F(1, 6)]
        assert run.float_table()[2] == [0.2] + [1 / 6] * 4

    def test_branches_count_histories_beyond_sys_maxsize(self):
        mono = ExactMonomial((0, 1), (F(1, 2), F(1, 2)))
        meas = LocalMeasurement("A", exact=(mono, mono))
        proto = LoccProtocol((meas,) * 70,
                             success_predicate=OutcomeIs(-1, 1))
        run = merged_run_exact(proto, BELL)
        assert run.branches == 2 ** 70
        assert run.success_probability == F(1, 2)
        assert len(run.audit) == 71

    def test_refusals(self):
        proto = LoccProtocol((), success_predicate=lambda h: True)
        with pytest.raises(ProtocolError, match="exhaustive_run_exact"):
            merged_run_exact(proto, BELL)
        with pytest.raises(ProtocolError, match="exact initial"):
            merged_run_exact(LoccProtocol(()),
                             SchmidtVector((0.5, 0.5)))

    def test_increase_raises_the_enumerated_audits_message(self):
        # hand-made levels: E_2 rises from 1/4 to 7/18 at the measurement
        # in step 2, after an announcement that repeats the first level
        s0 = SchmidtVector((F(3, 4), F(1, 4)))
        s1, s2 = BELL, SchmidtVector((F(2, 3), F(1, 3)))
        weights = [{s0._scaled: F(1)},
                   {s1._scaled: F(1, 3), s2._scaled: F(2, 3)}]
        with pytest.raises(MonotoneViolationError) as merged:
            locc._merged_audit(weights, [0, 2], 4)
        with pytest.raises(MonotoneViolationError) as enumerated:
            audit_trajectories([(F(1, 3), (s0, s0, s1, s1)),
                                (F(2, 3), (s0, s0, s2, s2))], (1, 2))
        assert str(merged.value) == str(enumerated.value) == (
            "averaged monotone k=2 increased at step 2: 1/4 -> 7/18")

    def test_exact_runs_never_build_dense_operators(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        merged_run_exact(proto, plan.source)
        merged_sample_exact(proto, plan.source, 50, 0)
        exhaustive_run_exact(proto, plan.source)
        measured = [s for s in proto.steps if isinstance(s, LocalMeasurement)]
        assert all("operators" not in vars(s) for s in measured)
        relabels = [s for s in proto.steps if isinstance(s, LocalUnitary)]
        assert relabels
        assert all("matrix" not in vars(s) for s in relabels)
        first = measured[0].operators
        assert measured[0].operators is first
        assert "operators" in vars(measured[0])
        for op, mono in zip(first, measured[0].exact):
            assert np.array_equal(op, mono.matrix())
            assert not op.flags.writeable
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            measured[0].missing


class TestAuditSizeLimit:
    """Merged runs refuse an audit of more than MAX_AUDIT_CELLS cells
    (levels x step boundaries) before any level runs."""

    def _protocol(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        return proto, plan.source, 3 * (len(proto.steps) + 1)

    def test_limit_is_inclusive(self, monkeypatch):
        proto, source, cells = self._protocol()
        monkeypatch.setattr(locc, "MAX_AUDIT_CELLS", cells)
        assert len(merged_run_exact(proto, source).audit) * 3 == cells
        merged_sample_exact(proto, source, 10, 0)

    @pytest.mark.parametrize("run", [
        merged_run_exact,
        lambda proto, source: merged_sample_exact(proto, source, 10, 0)])
    def test_over_limit_is_refused_before_any_level(self, monkeypatch, run):
        proto, source, cells = self._protocol()
        monkeypatch.setattr(locc, "MAX_AUDIT_CELLS", cells - 1)
        monkeypatch.setattr(locc, "_merged_levels", None)
        with pytest.raises(ValueError, match=(
                f"audit too large: 3 levels x {cells // 3} step boundaries "
                f"= {cells} cells \\(limit {cells - 1}\\)")):
            run(proto, source)


    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_plan_check_counts_the_built_protocol(self, monkeypatch, n):
        # the CLI's check, made before any monomial, counts the cells of
        # the protocol built after it: refused exactly when the merged
        # engines refuse, with their message
        rng = np.random.default_rng(900 + n)
        for source, target in [(rand_rational_schmidt(rng, n),
                                rand_rational_schmidt(rng, n)),
                               (rand_float_schmidt(rng, n),
                                rand_float_schmidt(rng, n))]:
            plan = build_plan(source, target)
            if not plan.is_feasible:
                continue
            cells = n * (len(build_full_protocol(plan).steps) + 1)
            monkeypatch.setattr(locc, "MAX_AUDIT_CELLS", cells)
            locc._check_plan_audit_size(plan)
            monkeypatch.setattr(locc, "MAX_AUDIT_CELLS", cells - 1)
            with pytest.raises(ValueError) as refused:
                locc._check_plan_audit_size(plan)
            with pytest.raises(ValueError) as engine:
                merged_run_exact(build_full_protocol(plan),
                                 _lifted(plan.source))
            assert str(refused.value) == str(engine.value) == (
                f"audit too large: {n} levels x {cells // n} step "
                f"boundaries = {cells} cells (limit {cells - 1})")


class TestMergedSampler:
    def _protocol(self):
        plan = build_plan(ALPHA2, BELL)
        return build_full_protocol(plan), plan.source

    def test_report(self):
        proto, source = self._protocol()
        report = merged_sample_exact(proto, source, 20000, seed=1,
                                     predicted=F(2, 5))
        assert abs(report.empirical_probability - 0.4) < 0.015
        assert report.successes == round(report.empirical_probability * 20000)
        assert (report.trials, report.predicted, report.seed) == (
            20000, F(2, 5), 1)
        assert [(s, k) for s, k, _ in report.monotone_audit] == [
            (s, k) for s in range(len(proto.steps) + 1) for k in (1, 2)]
        assert report == merged_sample_exact(proto, source, 20000, seed=1,
                                             predicted=F(2, 5))

    def test_sampled_averages_may_rise(self):
        # one trial that succeeds lands on the Bell pair: E_2 goes from
        # 1/5 to 1/2, which a sampled average may do, so nothing raises
        proto, source = self._protocol()
        report = merged_sample_exact(proto, source, 1, seed=0)
        assert report.successes == 1
        assert [v for _, k, v in report.monotone_audit if k == 2] == [
            0.2, 0.5]

    def test_refusals(self):
        proto, source = self._protocol()
        with pytest.raises(ValueError, match="trials must be positive"):
            merged_sample_exact(proto, source, 0, seed=0)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            merged_sample_exact(proto, source, 10, seed=-1)
        with pytest.raises(ProtocolError, match="exact initial"):
            merged_sample_exact(proto, SchmidtVector((0.8, 0.2)), 10, 0)
        with pytest.raises(ProtocolError, match="exhaustive_run_exact"):
            merged_sample_exact(LoccProtocol((), lambda h: True), source,
                                10, 0)


class TestBranchCap:
    def test_cap_enforced(self):
        ops = tuple(np.eye(2, dtype=complex) / math.sqrt(2) for _ in range(2))
        meas = LocalMeasurement("A", ops)
        proto = LoccProtocol((meas, meas, meas))
        with pytest.raises(BranchLimitError):
            exhaustive_run(proto, state_from_schmidt(BELL), branch_cap=4)

    def test_exact_engine_cap(self):
        mono = ExactMonomial((0, 1), (F(1, 2), F(1, 2)))
        ops = (mono.matrix(), mono.matrix())
        meas = LocalMeasurement("A", ops, exact=(mono, mono))
        proto = LoccProtocol((meas, meas, meas))
        with pytest.raises(BranchLimitError):
            exhaustive_run_exact(proto, BELL, branch_cap=4)

    @pytest.mark.parametrize("exact", [True, False])
    def test_cap_is_inclusive(self, exact):
        mono = ExactMonomial((0, 1), (F(1, 2), F(1, 2)))
        meas = LocalMeasurement("A", (mono.matrix(), mono.matrix()),
                                exact=(mono, mono))
        proto = LoccProtocol((meas, Announce(), meas, meas))
        engine = exhaustive_run_exact if exact else exhaustive_run
        initial = BELL if exact else state_from_schmidt(BELL)
        branches = engine(proto, initial, branch_cap=8)
        assert [b.history for b in branches] == [
            (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        assert all(len(b.states) == 5 for b in branches)
        with pytest.raises(BranchLimitError) as info:
            engine(proto, initial, branch_cap=7)
        assert str(info.value) == "branch count 8 exceeds cap 7"

    def test_exact_engine_needs_monomial_data(self):
        meas = LocalMeasurement("A", (np.eye(2, dtype=complex),))
        proto = LoccProtocol((meas,))
        with pytest.raises(ProtocolError):
            exhaustive_run_exact(proto, BELL)


def _reference_monte_carlo(protocol, initial, trials, seed):
    """The sampler as a per-trial loop over one Philox uniform matrix.

    Trial t walks the protocol step by step; at each measurement it takes
    the first outcome whose running probability sum exceeds its next
    uniform (the last outcome if none does), stepping down past pruned
    outcomes.  The audit sums over histories in first-trial order.
    """
    n_meas = max(protocol.measurement_count, 1)
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(
        (trials, n_meas))
    measured = {}   # history -> outcomes of the measurement that follows
    counts = Counter()
    paths = {}
    for t in range(trials):
        history, states, draw = (), [initial], 0
        for step in protocol.steps:
            current = states[-1]
            if isinstance(step, LocalMeasurement):
                if history not in measured:
                    measured[history] = apply_measurement(
                        current, step.party, step.operators)
                outs = measured[history]
                u = uniforms[t, draw]
                draw += 1
                acc = 0.0
                idx = len(outs) - 1
                for i, out in enumerate(outs):
                    acc += out.probability
                    if u < acc:
                        idx = i
                        break
                while outs[idx].post_state is None:
                    idx -= 1
                history += (idx,)
                states.append(outs[idx].post_state)
            elif isinstance(step, LocalUnitary) and (
                    step.condition is None or step.condition(history)):
                amps = current.amplitudes
                amps = (step.matrix @ amps if step.party == "A"
                        else amps @ step.matrix.T)
                states.append(BipartiteState(amps))
            else:
                states.append(current)
        counts[history] += 1
        paths.setdefault(history, states)
    predicate = protocol.success_predicate
    successes = sum(c for h, c in counts.items()
                    if predicate is None or predicate(h))
    empirical = successes / trials
    audit = []
    for s in range(len(protocol.steps) + 1):
        for k in range(1, min(initial.n_a, initial.n_b) + 1):
            avg = sum(c * entanglement_monotone(
                schmidt_decompose(paths[h][s]), k)
                for h, c in counts.items()) / trials
            audit.append((s, k, float(avg)))
    return SimulationReport(
        trials=trials, successes=successes, empirical_probability=empirical,
        std_error=math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials),
        predicted=None, monotone_audit=tuple(audit), seed=seed)


def _assert_same_report(report, reference):
    assert report == reference
    # bitwise, not just ==
    assert ([v.hex() for _, _, v in report.monotone_audit]
            == [v.hex() for _, _, v in reference.monotone_audit])


class TestSamplerOracle:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_exact_protocols(self, n):
        rng = np.random.default_rng(700 + n)
        plan = build_plan(rand_rational_schmidt(rng, n),
                          rand_rational_schmidt(rng, n))
        proto = build_full_protocol(plan)
        initial = state_from_schmidt(plan.source)
        for seed in (n, 100 + n):
            _assert_same_report(
                monte_carlo_run(proto, initial, 700, seed),
                _reference_monte_carlo(proto, initial, 700, seed))

    def test_pruned_outcome(self):
        # outcome 1 projects onto the empty third level: probability 0
        initial = state_from_schmidt(SchmidtVector((0.6, 0.4, 0.0)))
        projectors = [np.diag(d).astype(complex)
                      for d in ([1, 0, 0], [0, 0, 1], [0, 1, 0])]
        first = LocalMeasurement("A", tuple(projectors))
        mixer = LocalMeasurement("B", tuple(rand_kraus(
            np.random.default_rng(5), 3, 2)))
        proto = LoccProtocol((first, Announce(), mixer),
                             success_predicate=lambda h: h[-1] == 0)
        tree = _LazyBranchTree(proto, initial, DEFAULT_TOL)
        assert tree.node(()).outcomes[1][1] is None
        report = monte_carlo_run(proto, initial, 3000, seed=8)
        _assert_same_report(report,
                            _reference_monte_carlo(proto, initial, 3000, 8))
        assert 0 < report.successes < 3000

    def test_split_steps_down_past_pruned_outcomes(self):
        # running sums 0.5, 0.5, 0.8, then the last outcome for any u;
        # a pick of pruned outcome 2 falls back to 0, yielded again
        outcomes = [(0.5, "a"), (0.0, None), (0.3, None), (0.2, "d")]
        uniforms = np.array([[0.1], [0.6], [0.9], [0.99], [0.3]])
        split = locc._sampled_outcomes(uniforms)
        parts = [(idx, rows.tolist()) for idx, rows in
                 split(np.arange(5), outcomes, 0)]
        assert parts == [(0, [0, 4]), (0, [1]), (3, [2, 3])]

    def test_trials_cross_the_draw_block(self):
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        initial = state_from_schmidt(plan.source)
        trials = _DRAW_BLOCK + 37
        _assert_same_report(
            monte_carlo_run(proto, initial, trials, seed=31),
            _reference_monte_carlo(proto, initial, trials, 31))

    def test_node_expands_unexpanded_parents(self):
        # asking for a grandchild first must return, not wait on itself
        plan = build_plan(ALPHA3, BETA3)
        proto = build_full_protocol(plan)
        tree = _LazyBranchTree(proto, state_from_schmidt(plan.source),
                               DEFAULT_TOL)
        found = []
        worker = threading.Thread(target=lambda: found.append(
            tree.node((0, 0))), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "node() did not return"
        assert found and found[0].outcomes is None   # a leaf: protocol over
        assert len(tree.trajectory((0, 0))) == len(proto.steps) + 1


class TestTreeMemoryGuard:
    # the 5-level pair of the pinned Monte-Carlo run in test_cli
    SOURCE = SchmidtVector(tuple(F(x, 100) for x in (37, 23, 19, 13, 8)))
    TARGET = SchmidtVector(tuple(F(x, 100) for x in (27, 26, 21, 17, 9)))

    def _run(self):
        proto = build_full_protocol(build_plan(self.SOURCE, self.TARGET))
        return proto, state_from_schmidt(self.SOURCE)

    def test_counter_sums_distinct_matrices(self):
        proto, initial = self._run()
        tree = _LazyBranchTree(proto, initial, DEFAULT_TOL)
        _sample_histories(tree, 400, 5, proto.measurement_count)
        kept = {id(s): s.amplitudes.nbytes for node in tree._nodes.values()
                for s in (*node.states,
                          *(post for _, post in node.outcomes or ()))
                if s is not None}
        assert len(tree._nodes) > 1
        assert tree.nbytes == sum(kept.values())
        assert len(kept) < sum(len(node.states)
                               for node in tree._nodes.values())

    def test_tree_over_limit_is_refused(self, monkeypatch):
        proto, initial = self._run()
        monkeypatch.setattr(locc, "MAX_TREE_BYTES", 4096)
        with pytest.raises(ValueError, match=r"4096 bytes .*--trials"):
            monte_carlo_run(proto, initial, 3000, 5)


class TestMonteCarlo:
    def _protocol(self):
        plan = build_plan(ALPHA2, BELL)
        proto = build_full_protocol(plan)
        return proto, state_from_schmidt(plan.source), plan.probability

    def test_empirical_matches_prediction(self):
        proto, initial, predicted = self._protocol()
        report = monte_carlo_run(proto, initial, 20000, seed=1,
                                 predicted=predicted)
        assert abs(report.empirical_probability - 0.4) < 0.015
        assert report.trials == 20000
        assert report.successes == round(report.empirical_probability * 20000)
        assert report.predicted == F(2, 5)
        assert report.seed == 1

    def test_seed_determinism(self):
        proto, initial, _ = self._protocol()
        r1 = monte_carlo_run(proto, initial, 5000, seed=9)
        r2 = monte_carlo_run(proto, initial, 5000, seed=9)
        assert r1 == r2
        r3 = monte_carlo_run(proto, initial, 5000, seed=10)
        assert r3.successes != r1.successes

    def test_worker_count_invariance(self):
        proto, initial, _ = self._protocol()
        serial = monte_carlo_run(proto, initial, 4000, seed=3, workers=1)
        threaded = monte_carlo_run(proto, initial, 4000, seed=3, workers=4)
        assert serial == threaded

    def test_audit_covers_every_boundary(self):
        proto, initial, _ = self._protocol()
        report = monte_carlo_run(proto, initial, 1000, seed=5)
        steps = {s for s, _, _ in report.monotone_audit}
        assert steps == set(range(len(proto.steps) + 1))
        # the sampled averages track the exact probability-weighted ones
        # (the strict no-increase law holds for the latter; the empirical
        # ones carry binomial noise on top)
        branches = exhaustive_run_exact(proto, ALPHA2)
        for k in (1, 2):
            exact = [float(v) for v in monotone_audit(branches, k)]
            series = [v for s, kk, v in report.monotone_audit if kk == k]
            assert len(series) == len(exact)
            assert all(abs(x - y) < 0.05 for x, y in zip(series, exact))

    def test_certain_protocol_always_succeeds(self):
        gamma = SchmidtVector((F(3, 5), F(2, 5)))
        proto = deterministic_protocol(BELL, gamma)
        report = monte_carlo_run(proto, state_from_schmidt(BELL), 500, seed=2)
        assert report.empirical_probability == 1.0
        assert report.std_error == 0.0

    def test_validation(self):
        proto, initial, _ = self._protocol()
        with pytest.raises(ValueError):
            monte_carlo_run(proto, initial, 0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_run(proto, initial, 10, seed=0, workers=0)
