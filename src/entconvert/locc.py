"""Executable LOCC protocols over bipartite pure states.

A protocol is a finite sequence of steps: local generalized measurements
(branching), outcome-conditioned local unitaries, and classical outcome
announcements.  The protocols built here are plain data: a measurement
is its rational monomials, a relabel its permutation (an ExactMonomial
whose squares are all 1), each with its dense form derived only when
first asked for, and an outcome condition is an ``OutcomeIs``.
Exhaustive enumeration and seeded sampling (per-trial randomness a
function of (seed, trial index) alone) share one step interpreter, and
the state's type picks the level: a BipartiteState runs in floating
point on amplitudes with arbitrary operators, a SchmidtVector exactly on
the monomials' integer numerators.  Either way a measurement gives one
(probability, post) pair per outcome, post None if pruned; only
apply_measurement wraps them as MeasurementOutcome.  An integer state
keeps its squared coefficients in A's level order with the level of B
each pairs with, and one move of a party's levels (_relabeled) serves
measurements and relabels on either party.  Every sampler splits trials
among outcomes by one rule (_sampled_outcomes): the first outcome whose
running sum of float probabilities exceeds the trial's uniform.  The
monotone audit profiles each distinct state object once.  When success
reads the last outcome alone, the merged exact engine keeps one entry
per (state, last outcome) and level instead of one per history:
exhaustively a weight and a history count (merged_run_exact), sampled
the trials that reached it (merged_sample_exact).  Both refuse an audit
of more than MAX_AUDIT_CELLS cells, as the CLI does before it builds the
protocol.  The CLI runs on that engine alone; the enumerating engines
and the amplitude-level sampler stay as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .conversion import ConversionPlan, InfeasibleConversionError
from .monotones import _tails, entanglement_monotone
from .numeric import DEFAULT_TOL
from .schmidt import (BipartiteState, SchmidtVector, majorizes,
                      schmidt_decompose)

__all__ = [
    "ProtocolError",
    "BranchLimitError",
    "MonotoneViolationError",
    "MajorizationError",
    "ExactMonomial",
    "OutcomeIs",
    "LocalMeasurement",
    "LocalUnitary",
    "Announce",
    "LoccProtocol",
    "MeasurementOutcome",
    "Branch",
    "SimulationReport",
    "apply_measurement",
    "exhaustive_run",
    "exhaustive_run_exact",
    "MergedRun",
    "merged_run_exact",
    "merged_sample_exact",
    "success_probability",
    "monotone_audit",
    "audit_trajectories",
    "deterministic_protocol",
    "build_full_protocol",
    "monte_carlo_run",
    "BRANCH_CAP",
    "MAX_TREE_BYTES",
    "PRUNE_EPS",
]

BRANCH_CAP = 100_000
MAX_TREE_BYTES = 2 ** 30   # amplitude bytes a Monte-Carlo branch tree keeps
PRUNE_EPS = 1e-12  # outcomes below this are never normalized into states
# Audit cells (levels x step boundaries) a merged run may average.  A whole
# exact CLI run peaks at 1.1-1.2 KB per cell (217-237 MB at n = 256,
# 466-487 MB at n = 384), so a run at this limit stays under 700 MB.  A
# protocol has at most 3n - 2 steps, so every pair up to n = 418 stays
# within it.
MAX_AUDIT_CELLS = 2 ** 19


class ProtocolError(ValueError):
    """A protocol or one of its steps is malformed."""


class BranchLimitError(RuntimeError):
    """Exhaustive enumeration exceeded the branch cap."""


class MonotoneViolationError(RuntimeError):
    """An averaged monotone increased along a protocol."""


class MajorizationError(ValueError):
    """Deterministic conversion requested without majorization."""


@dataclass(frozen=True)
class ExactMonomial:
    """Monomial operator (one nonzero entry per column) with rational
    squared magnitudes — enough to track Schmidt-level branches exactly.

    ``rows[c]`` is the row of column c's nonzero entry, a permutation of
    0..n-1, and ``squared[c]`` its squared magnitude: the operator takes
    level c to level ``rows[c]``.  So ``matrix()`` equals
    ``np.eye(n)[list(rows)]`` only when ``rows`` is its own inverse, as a
    transposition is, and is its transpose otherwise.  The squares are
    also kept as integers over one denominator, as
    ``SchmidtVector._scaled`` keeps a vector's entries.
    """

    rows: tuple
    squared: tuple

    def __post_init__(self):
        rows = tuple(map(int, self.rows))
        squared = tuple(s if isinstance(s, Fraction) else Fraction(s)
                        for s in self.squared)
        if len(rows) != len(squared):
            raise ProtocolError("monomial row/entry length mismatch")
        if sorted(rows) != list(range(len(rows))):
            raise ProtocolError(
                f"monomial rows {rows} are not a permutation of "
                f"0..{len(rows) - 1}")
        ratios = [s.as_integer_ratio() for s in squared]
        den = math.lcm(*{d for _, d in ratios})
        nums = tuple(x * (den // d) for x, d in ratios)
        if any(x < 0 for x in nums):
            raise ProtocolError("negative squared magnitude in monomial")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "squared", squared)
        # not a field, so __eq__, __hash__ and repr still see the two above
        object.__setattr__(self, "_scaled", (nums, den))

    @property
    def n(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=complex)
        for col, (row, sq) in enumerate(zip(self.rows, self.squared)):
            mat[row, col] = math.sqrt(float(sq))
        return mat


@dataclass(frozen=True)
class OutcomeIs:
    """Whether outcome ``index`` of a history equals ``value``.  A negative
    index counts from the latest; a history too short for it fails."""

    index: int
    value: int

    def __call__(self, history) -> bool:
        return (-len(history) <= self.index < len(history)
                and history[self.index] == self.value)


class _DenseOnDemand:
    """A step given by ``exact`` alone leaves its dense form, the
    attribute ``_DENSE``, unset until first asked for; ``_dense()`` then
    derives it once, so runs on the monomials never build it."""

    def __getattr__(self, name):
        # reached only for an attribute not set
        if name != self._DENSE or "exact" not in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self._dense()
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True, eq=False)
class LocalMeasurement(_DenseOnDemand):
    """Generalized measurement on one party; operators must satisfy
    sum K^dag K = identity.  ``exact`` optionally carries the monomial
    description of each operator for rational bookkeeping; without
    ``operators`` the dense operators are derived from it on first use."""

    party: str
    operators: tuple = field(default_factory=tuple)
    exact: tuple | None = None
    label: str = ""

    _DENSE = "operators"

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ProtocolError(f"party must be 'A' or 'B', got {self.party!r}")
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)
        if not ops and self.exact:
            if len({mono.n for mono in self.exact}) != 1:
                raise ProtocolError("measurement operators differ in shape")
            object.__delattr__(self, "operators")
            return
        if not ops:
            raise ProtocolError("a measurement needs at least one operator")
        shape = ops[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ProtocolError("measurement operators must be square")
        if any(op.shape != shape for op in ops):
            raise ProtocolError("measurement operators differ in shape")
        if self.exact is not None and len(self.exact) != len(ops):
            raise ProtocolError("exact data does not match operator count")
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def _dense(self):
        ops = tuple(mono.matrix() for mono in self.exact)
        for op in ops:
            op.setflags(write=False)
        return ops

    @property
    def n(self) -> int:
        if self.exact:
            return self.exact[0].n
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class LocalUnitary(_DenseOnDemand):
    """Local basis change on one party, optionally applied only when the
    outcome history so far satisfies ``condition`` (say an OutcomeIs).

    ``matrix`` may instead be an ExactMonomial whose squares are all 1,
    a permutation taking level c to level ``rows[c]``, kept as
    ``exact``; the dense matrix, ``exact.matrix()``, is then derived on
    first use.  The exact engines read only that permutation and refuse
    a unitary given densely."""

    party: str
    matrix: np.ndarray
    condition: object = None
    label: str = ""

    _DENSE = "matrix"

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ProtocolError(f"party must be 'A' or 'B', got {self.party!r}")
        if isinstance(self.matrix, ExactMonomial):
            # its rows are a permutation: unitary iff every square is 1
            if any(sq != 1 for sq in self.matrix.squared):
                raise ProtocolError("matrix is not unitary")
            object.__setattr__(self, "exact", self.matrix)
            object.__delattr__(self, "matrix")
            return
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ProtocolError("unitary must be square")
        if not np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]),
                           atol=1e-9):
            raise ProtocolError("matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def _dense(self):
        mat = self.exact.matrix()
        mat.setflags(write=False)
        return mat


@dataclass(frozen=True)
class Announce:
    """Classical broadcast of the latest outcome (no state change)."""

    label: str = ""


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Ordered steps plus an optional success predicate on the full
    outcome history (None means every branch counts as success)."""

    steps: tuple
    success_predicate: object = None

    def __post_init__(self):
        steps = tuple(self.steps)
        for step in steps:
            if not isinstance(step, (LocalMeasurement, LocalUnitary, Announce)):
                raise ProtocolError(f"unknown step type {type(step).__name__}")
        object.__setattr__(self, "steps", steps)

    @property
    def measurement_count(self) -> int:
        return sum(isinstance(s, LocalMeasurement) for s in self.steps)

    @property
    def mergeable(self) -> bool:
        """Whether success reads at most the last outcome (None, or an
        OutcomeIs of index -1), so histories ending alike can merge."""
        test = self.success_predicate
        return test is None or (isinstance(test, OutcomeIs)
                                and test.index == -1)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    index: int
    probability: object  # float, or Fraction for a SchmidtVector
    post_state: object   # like the measured state; None flags a pruned one


def _apply_operator(amps: np.ndarray, party: str, op: np.ndarray) -> np.ndarray:
    # A acts on rows, B on columns of the amplitude matrix
    return op @ amps if party == "A" else amps @ op.T


def apply_measurement(state: BipartiteState, party: str, operators,
                      *, tol=DEFAULT_TOL):
    """All outcomes of a generalized local measurement.

    Parameters
    ----------
    state : BipartiteState
    party : str
        "A" (operators act on rows) or "B" (columns).
    operators : sequence of square matrices
        Must resolve the identity on the measured party within ``tol``.

    Returns
    -------
    list of MeasurementOutcome
        Probability is the squared norm of the unnormalized branch;
        probabilities sum to 1 within tolerance.  Outcomes below the
        pruning threshold carry ``post_state=None``.
    """
    ops = _checked_operators(state, party, operators, tol)
    return [MeasurementOutcome(idx, p, post)
            for idx, (p, post) in enumerate(_outcomes(state, party, ops))]


def _checked_operators(state, party, operators, tol):
    """The operators as complex arrays, once they fit the measured party
    of ``state`` and resolve its identity within ``tol``."""
    if party not in ("A", "B"):
        raise ProtocolError(f"party must be 'A' or 'B', got {party!r}")
    ops = [np.array(op, dtype=complex) for op in operators]
    if not ops:
        raise ProtocolError("a measurement needs at least one operator")
    dim = state.n_a if party == "A" else state.n_b
    if any(op.shape != (dim, dim) for op in ops):
        raise ProtocolError(
            f"operator shape mismatch: party {party} has dimension {dim}")
    if not np.allclose(sum(op.conj().T @ op for op in ops), np.eye(dim),
                       atol=max(tol, 1e-9)):
        raise ProtocolError("measurement operators do not resolve the identity")
    return ops


def _outcomes(state, party, ops):
    """(probability, post) per operator, the checks already passed; post
    is None for an outcome below the pruning threshold."""
    outcomes = []
    for op in ops:
        branch = _apply_operator(state.amplitudes, party, op)
        p = float(np.linalg.norm(branch)) ** 2
        outcomes.append((p, None if p < PRUNE_EPS
                         else BipartiteState(branch / math.sqrt(p))))
    return outcomes


@dataclass(frozen=True, eq=False)
class Branch:
    """One complete path through a protocol.

    ``states`` holds one snapshot per step boundary (index 0 is the
    initial state), as BipartiteState in float mode or SchmidtVector in
    exact mode; ``probability`` is the product of outcome probabilities.
    """

    history: tuple
    probability: object
    states: tuple

    @property
    def final_state(self):
        return self.states[-1]


def _advance(protocol, pos, state, history):
    """Snapshots after each step from ``pos`` up to the next measurement,
    and its position.  An announcement repeats the state; a unitary whose
    condition holds on ``history`` acts on it, on an integer state as the
    permutation it is."""
    steps = protocol.steps
    snapshots = []
    while pos < len(steps) and not isinstance(steps[pos], LocalMeasurement):
        step = steps[pos]
        if isinstance(step, LocalUnitary):
            exact = not isinstance(state, BipartiteState)
            if exact:
                _checked_relabel(step, pos, len(state[1]))
            if step.condition is None or step.condition(history):
                state = (_relabeled(step.party, step.exact.rows, state)
                         if exact else BipartiteState(_apply_operator(
                             state.amplitudes, step.party, step.matrix)))
        snapshots.append(state)
        pos += 1
    return snapshots, pos


def _checked_monomials(step, n):
    """Refuse an exact measurement unless its monomials fit an n-level
    state and resolve the identity: for every column, the squares of the
    step's operators sum to exactly 1, compared on integers."""
    if step.exact is None:
        raise ProtocolError(
            "measurement lacks exact monomial data; "
            "use the amplitude-level exhaustive_run instead")
    if any(mono.n != n for mono in step.exact):
        raise ProtocolError(
            f"operator shape mismatch: party {step.party} has dimension {n}")
    den = math.lcm(*(mono._scaled[1] for mono in step.exact))
    columns = zip(*([x * (den // d) for x in nums]
                    for nums, d in (mono._scaled for mono in step.exact)))
    if any(sum(column) != den for column in columns):
        raise ProtocolError("measurement operators do not resolve the identity")


def _checked_relabel(step, pos, n):
    """Refuse a unitary, at step ``pos``, that is not a permutation of
    the n levels of its party, since only those act on integer states."""
    mono = getattr(step, "exact", None)
    if mono is None:
        raise ProtocolError(
            f"step {pos} ({step.label or 'unitary'}) is a dense unitary; "
            "use the amplitude-level exhaustive_run instead")
    if mono.n != n:
        raise ProtocolError(
            f"step {pos}: unitary shape mismatch: party {step.party} has "
            f"dimension {n}")


# An integer state is (scaled, partners): ``scaled`` its squared
# coefficients as integers over one denominator, indexed by A's levels,
# and ``partners[a]`` the level of B that A's level a pairs with.

def _relabeled(party, rows, state):
    """An integer state after the levels of ``party`` move by a
    permutation, level c to level rows[c]: on A the weights and their
    partners move, on B only the partners do."""
    (nums, den), partners = state
    if party == "B":
        return (nums, den), tuple(map(rows.__getitem__, partners))
    moved, paired = [0] * len(rows), [0] * len(rows)
    for row, x, b in zip(rows, nums, partners):
        moved[row] = x
        paired[row] = b
    return (tuple(moved), den), tuple(paired)


def _exact_outcomes(step, state):
    """(probability, post) per monomial of measurement ``step`` on an
    integer state: A's level a meets the measured party's level a on A,
    its partner on B.  The probability is a Fraction; post, reduced over
    the sum of its numerators, has the party's levels moved by the
    monomial's rows, or is None for an outcome of probability 0."""
    (nums, den), partners = state
    meets = range(len(nums)) if step.party == "A" else partners
    results = []
    for mono in step.exact:
        squares, scale = mono._scaled
        weights = [squares[c] * x for c, x in zip(meets, nums)]
        total = sum(weights)
        if total == 0:
            results.append((Fraction(0), None))
            continue
        g = math.gcd(*weights)
        post = ((tuple(w // g for w in weights), total // g), partners)
        results.append((Fraction(total, scale * den),
                        _relabeled(step.party, mono.rows, post)))
    return results


def _measure(step, state, tol, checked):
    """(probability, post) per outcome of ``step``: a BipartiteState's
    from its operators, an integer state's from the step's exact
    monomial data.  A step's operators are checked the first time a
    state meets it and then added to ``checked``: every state of one
    run has the same shape, so that check holds for the whole run."""
    if isinstance(state, BipartiteState):
        if step not in checked:
            _checked_operators(state, step.party, step.operators, tol)
            checked.add(step)
        return _outcomes(state, step.party, step.operators)
    if step not in checked:
        _checked_monomials(step, len(state[1]))
        checked.add(step)
    return _exact_outcomes(step, state)


def _enumerate(protocol, initial, one, branch_cap, tol=DEFAULT_TOL):
    """Every unpruned branch in history order, one level at a time, with
    probabilities multiplied left to right from ``one``.  A BipartiteState
    belongs to one branch; a SchmidtVector runs as an integer state, and
    equal integer states are measured once per level, however many
    branches reach them.  Their snapshots are SchmidtVectors, one object
    per distinct state."""
    steps = protocol.steps
    exact = isinstance(initial, SchmidtVector)
    start = (initial._scaled, tuple(range(initial.n))) if exact else initial
    frontier, pos, checked = [((), one, [start])], 0, set()
    while frontier and pos < len(steps):
        grown, shared = [], {}   # shared: integer state -> its outcomes
        if isinstance(steps[pos], LocalMeasurement):
            for history, prob, states in frontier:
                outcomes = shared.get(states[-1]) if exact else None
                if outcomes is None:
                    outcomes = _measure(steps[pos], states[-1], tol, checked)
                    if exact:
                        shared[states[-1]] = outcomes
                for idx, (p, post) in enumerate(outcomes):
                    if post is not None:
                        grown.append((history + (idx,), prob * p,
                                      states + [post]))
            pos += 1
        else:
            for history, prob, states in frontier:
                snapshots, end = _advance(protocol, pos, states[-1], history)
                grown.append((history, prob, states + snapshots))
            pos = end
        if len(grown) > branch_cap:
            raise BranchLimitError(
                f"branch count {len(grown)} exceeds cap {branch_cap}")
        frontier = grown
    if exact:
        vectors = {initial._scaled: initial}
        for _, _, states in frontier:
            for i, (scaled, _) in enumerate(states):
                if scaled not in vectors:
                    nums, den = scaled
                    vectors[scaled] = SchmidtVector(tuple(
                        Fraction(x, den) for x in sorted(nums, reverse=True)))
                states[i] = vectors[scaled]
    return [Branch(h, p, tuple(s)) for h, p, s in frontier]


def exhaustive_run(protocol: LoccProtocol, initial: BipartiteState,
                   *, branch_cap=BRANCH_CAP, tol=DEFAULT_TOL):
    """Enumerate every branch of a protocol at the amplitude level.

    Branches whose probability falls below the pruning threshold are
    dropped; the probabilities of the returned branches sum to 1 within
    tolerance.  Raises BranchLimitError beyond ``branch_cap`` branches.
    """
    return _enumerate(protocol, initial, 1.0, branch_cap, tol)


def exhaustive_run_exact(protocol: LoccProtocol, initial: SchmidtVector,
                         *, branch_cap=BRANCH_CAP):
    """Enumerate branches with exact rational probabilities.

    Works at the Schmidt-coefficient level: each measurement must carry
    exact monomial data and each unitary be a permutation (true of
    protocols built by this module); a unitary given densely is refused
    with ProtocolError naming its step.  The state is kept as integers in
    A's level order, with the level of B each pairs with, so every
    measurement and relabel meets the levels as on amplitudes.  The
    initial vector must be exact.

    Equal post-measurement states are one shared vector object, so
    the branches of a deterministic stage, which all land on the same
    vector, carry a single state per step boundary.  The run still costs
    one entry per history; merged_run_exact gives the same counts,
    probabilities and audit without enumerating, when the success
    predicate allows it.
    """
    if not initial.is_exact:
        raise ProtocolError("exact run requires an exact initial vector")
    return _enumerate(protocol, initial, Fraction(1), branch_cap)


def success_probability(branches, predicate=None):
    """Total probability of branches whose history satisfies the predicate
    (all branches when predicate is None)."""
    return sum(b.probability for b in branches
               if predicate is None or predicate(b.history))


@dataclass(frozen=True)
class MergedRun:
    """Summary of an exact run that merges histories ending alike.

    ``branches`` counts the outcome histories of nonzero probability, an
    exact int however large.  ``audit`` holds one (numerators,
    denominator) pair per step boundary (index 0 = initial state):
    numerator k - 1 over the denominator is the probability-weighted
    average of E_k there.  The boundaries after an announcement or a
    unitary share the pair of the measurement before them.
    """

    branches: int
    success_probability: Fraction
    audit: tuple

    def float_table(self):
        """The averages as audit_trajectories lays them out, one list per
        k, each value the correctly rounded quotient of its integers."""
        return [[nums[i] / den for nums, den in self.audit]
                for i in range(len(self.audit[0][0]))]


def merged_run_exact(protocol: LoccProtocol,
                     initial: SchmidtVector) -> MergedRun:
    """Exact run of a protocol whose success reads the last outcome only.

    Two histories whose last outcome led to the same state go on alike
    when the unitaries after it read that outcome alone.  Each
    measurement level is therefore one dict keyed by (post state, last
    outcome), mapping to (exact weight, history count), and the run costs
    one outcome per distinct state and outcome, where enumerating costs
    one per history.  Branch count, success probability and audit equal
    those of exhaustive_run_exact followed by audit_trajectories, and an
    increasing average raises the same MonotoneViolationError.  States
    are integer states as exhaustive_run_exact keeps them; a unitary
    given densely, or conditioned on more than the last outcome, is
    refused with ProtocolError naming its step.  An audit of more than
    MAX_AUDIT_CELLS cells (levels x step boundaries) is refused with
    ValueError before any level runs.
    """
    _check_audit_size(initial.n, len(protocol.steps))
    last, per_state = _merged_levels(protocol, initial, (Fraction(1), 1),
                                     _every_outcome, _add_pairs)
    success = sum((w for w, _ in _succeeded(protocol, last)), Fraction(0))
    weights = [{state: w for state, (w, _) in states.items()}
               for states in per_state]
    audit = _merged_audit(weights, _level_starts(protocol),
                          len(protocol.steps) + 1)
    return MergedRun(sum(count for _, count in per_state[-1].values()),
                     success, audit)


def _check_audit_size(n, steps):
    """Refuse a merged run whose audit would pass MAX_AUDIT_CELLS cells,
    one per each of n levels and step boundary, before it starts."""
    cells = n * (steps + 1)
    if cells > MAX_AUDIT_CELLS:
        raise ValueError(
            f"audit too large: {n} levels x {steps + 1} step boundaries "
            f"= {cells} cells (limit {MAX_AUDIT_CELLS})")


def _merged_levels(protocol, initial, root, split, add):
    """The level loop of every run on integer states, exhaustive or
    sampled.

    Each measurement level is one dict keyed by (integer state, last
    outcome), which the unitaries after the measurement relabel.  ``root``
    is the initial state's entry.
    ``split(entry, outcomes, depth)`` yields (outcome index, entry) for
    the outcomes that the entry of one state takes at the measurement
    after ``depth`` outcomes, given that state's (probability, post) per
    outcome; ``add`` sums two entries.  Returns the last level and, per
    level, its entries summed per squared coefficients in integer form.
    """
    if not initial.is_exact:
        raise ProtocolError("exact run requires an exact initial vector")
    if not protocol.mergeable:
        raise ProtocolError(
            "success predicate reads more than the last outcome; "
            "use exhaustive_run_exact instead")
    n = initial.n
    level = {((initial._scaled, tuple(range(n))), None): root}
    per_state, depth = [], 0
    for pos, step in enumerate(protocol.steps):
        if isinstance(step, LocalUnitary):
            _checked_relabel(step, pos, n)
            acts = _last_outcome_test(step, pos, depth)
            # a relabel is one-to-one and keeps the outcome: no keys merge
            level = {(_relabeled(step.party, step.exact.rows, state)
                      if acts(idx) else state, idx): entry
                     for (state, idx), entry in level.items()}
        elif isinstance(step, LocalMeasurement):
            _checked_monomials(step, n)
            states = _per_state(level, add)
            per_state.append(_per_state(states, add))
            grown = {}
            for state, entry in states.items():
                outcomes = _exact_outcomes(step, state)
                for idx, part in split(entry, outcomes, depth):
                    key = (outcomes[idx][1], idx)
                    grown[key] = add(grown[key], part) if key in grown else part
            level = grown
            depth += 1
    per_state.append(_per_state(_per_state(level, add), add))
    return level, per_state


def _last_outcome_test(step, pos, depth):
    """Whether unitary ``step``, at ``pos``, acts on a merged level, as a
    test of the last outcome: every history there holds ``depth``
    outcomes, so an OutcomeIs reads the last of them or none."""
    test = step.condition
    if test is None:
        return lambda last: True
    if isinstance(test, OutcomeIs):
        if not -depth <= test.index < depth:
            return lambda last: False
        if test.index in (-1, depth - 1):
            return lambda last: last == test.value
    raise ProtocolError(
        f"step {pos} ({step.label or 'unitary'}) is conditioned on more "
        "than the last outcome; use exhaustive_run_exact instead")


def _every_outcome(entry, outcomes, depth):
    """Exhaustive split of a (weight, history count) entry: every
    outcome of nonzero probability, weighted by it."""
    w, count = entry
    return [(idx, (w * p, count)) for idx, (p, post) in enumerate(outcomes)
            if post is not None]


def _add_pairs(a, b):
    return a[0] + b[0], a[1] + b[1]


def _per_state(level, add):
    """{first: entry} of a dict keyed by pairs, summed over the second:
    of a level keyed by (state, last outcome), the histories that reached
    a state, which go on alike from there; of one keyed by integer state,
    the states with equal squared coefficients."""
    merged = {}
    for (state, _), entry in level.items():
        merged[state] = add(merged[state], entry) if state in merged else entry
    return merged


def _succeeded(protocol, level):
    """The entries of a last level whose outcome counts as success."""
    test = protocol.success_predicate
    return [entry for (_, idx), entry in level.items()
            if test is None or idx == test.value]


def _level_starts(protocol):
    """The step boundary each level starts at: 0 for the initial state,
    then the boundary right after each measurement."""
    return [0] + [pos + 1 for pos, step in enumerate(protocol.steps)
                  if isinstance(step, LocalMeasurement)]


def _merged_audit(weights, starts, depth, check=True):
    """Per-boundary (numerators, denominator) of the averaged monotones.

    ``weights[i]`` maps each state of measurement level i, in integer
    form, to its exact weight (summing to 1); the level spans boundaries
    ``starts[i]`` up to the next start.  Each distinct state's integer
    tails are taken once.  With ``check`` set, raises
    MonotoneViolationError at the first k (then step) whose average
    increases, as audit_trajectories does; levels compare by
    cross-multiplying.
    """
    tails, averages = {}, []
    for level in weights:
        den = math.lcm(*(w.denominator * state[1]
                         for state, w in level.items()))
        total = None
        for state, w in level.items():
            if state not in tails:
                run, tail = 0, []
                for x in sorted(state[0]):   # in A's level order
                    run += x
                    tail.append(run)
                tail.reverse()
                tails[state] = tail
            scale = w.numerator * (den // (w.denominator * state[1]))
            terms = [scale * t for t in tails[state]]
            total = terms if total is None else [
                a + b for a, b in zip(total, terms)]
        averages.append((tuple(total), den))
    for i in range(len(averages[0][0])):
        for (a, da), (b, db), step in zip(averages, averages[1:], starts[1:]):
            if check and a[i] * db < b[i] * da:
                raise MonotoneViolationError(
                    f"averaged monotone k={i + 1} increased at step "
                    f"{step}: {Fraction(a[i], da)} -> {Fraction(b[i], db)}")
    bounds = list(starts[1:]) + [depth]
    return tuple(entry for entry, start, end in zip(averages, starts, bounds)
                 for _ in range(start, end))


def _state_monotones(state, ks):
    sv = state if isinstance(state, SchmidtVector) else schmidt_decompose(state)
    tails = _tails(sv)
    # entanglement_monotone raises the ValueError for a k outside 1..n
    return [tails[k - 1] if isinstance(k, int) and 1 <= k <= sv.n
            else entanglement_monotone(sv, k) for k in ks]


def audit_trajectories(trajectories, ks, *, tol=DEFAULT_TOL, check=True):
    """Per-step weighted averages of the monotones E_k for every k in ``ks``.

    ``trajectories`` is a sequence of (weight, states) pairs, ``states``
    holding one snapshot per step boundary (index 0 = initial state).
    Each distinct state object is profiled once, keyed by ``id`` while
    the trajectories hold the objects.  Returns one list per k of
    ``sum(weight * E_k) / sum(weight)`` per boundary.  Exact weights on
    exact states are added up per distinct state before multiplying,
    which leaves the rational result unchanged; otherwise the products
    are summed over the trajectories in order, so float results do not
    depend on which states are shared.

    With ``check`` set, raises MonotoneViolationError at the first k (then
    step) whose average increases beyond tolerance — no LOCC protocol may
    do that.
    """
    if not trajectories:
        raise ValueError("no branches to audit")
    depth = len(trajectories[0][1])
    if any(len(states) != depth for _, states in trajectories):
        raise ValueError("branches disagree on step count")
    ks = tuple(ks)
    profiles = {}
    for _, states in trajectories:
        for state in states:
            if id(state) not in profiles:
                profiles[id(state)] = _state_monotones(state, ks)
    total = sum(w for w, _ in trajectories)
    exact = (all(isinstance(w, (int, Fraction)) for w, _ in trajectories)
             and all(isinstance(v, Fraction)
                     for values in profiles.values() for v in values))
    table = [[] for _ in ks]
    if exact:
        # rationals add up exactly in any grouping: one normalized weight
        # per sequence of state objects, then one per distinct state
        paths = {}
        for w, states in trajectories:
            key = tuple(map(id, states))
            paths[key] = paths.get(key, 0) + w
        paths = [(Fraction(w) / total, key) for key, w in paths.items()]
        for s in range(depth):
            merged = {}
            for w, key in paths:
                merged[key[s]] = merged.get(key[s], 0) + w
            for i, averages in enumerate(table):
                averages.append(sum(w * profiles[key][i]
                                    for key, w in merged.items()))
    else:
        for s in range(depth):
            terms = [(w, profiles[id(states[s])])
                     for w, states in trajectories]
            for i, averages in enumerate(table):
                averages.append(sum(w * values[i] for w, values in terms)
                                / total)
    if check:
        for k, averages in zip(ks, table):
            for i in range(depth - 1):
                drop = averages[i] - averages[i + 1]
                bad = (drop < 0 if isinstance(drop, Fraction)
                       else float(drop) < -tol)
                if bad:
                    raise MonotoneViolationError(
                        f"averaged monotone k={k} increased at step {i + 1}: "
                        f"{averages[i]} -> {averages[i + 1]}")
    return table


def monotone_audit(branches, k: int, *, tol=DEFAULT_TOL, check=True):
    """Per-step probability-weighted average of the k-th monotone.

    Returns one value per step boundary (index 0 = initial state).  With
    ``check`` set, raises MonotoneViolationError if the sequence
    increases beyond tolerance — no LOCC protocol may do that.
    """
    trajectories = [(b.probability, b.states) for b in branches]
    return audit_trajectories(trajectories, (k,), tol=tol, check=check)[0]


# ---------------------------------------------------------------------------
# protocol builders


def _t_transform_chain(alpha, gamma):
    """T-transform chain from ``gamma`` down to ``alpha``, on their
    integer numerators over one common denominator, padded to n levels;
    MajorizationError unless gamma majorizes alpha exactly there.

    Each step moves weight between exactly two positions (j, k), j < k,
    keeping the vector sorted; at most n - 1 steps are needed.  Returns
    records (before, after, j, k) in construction order, walking from
    ``gamma`` toward ``alpha``.
    """
    if not majorizes(alpha, gamma):
        raise MajorizationError("gamma does not majorize alpha")
    n = max(alpha.n, gamma.n)
    (xa, da), (xg, dg) = alpha._scaled, gamma._scaled
    den = math.lcm(da, dg)
    a = [x * (den // da) for x in xa] + [0] * (n - len(xa))
    v = [x * (den // dg) for x in xg] + [0] * (n - len(xg))
    records = []
    guard = n + 1
    while v != a:
        if guard == 0:
            raise RuntimeError("T-transform chain failed to terminate")
        guard -= 1
        j = max(i for i in range(len(v)) if a[i] < v[i])
        later = [i for i in range(j + 1, len(v)) if a[i] > v[i]]
        if not later:
            raise MajorizationError(
                "majorization violated during chain construction")
        k = later[0]
        delta = min(v[j] - a[j], a[k] - v[k])
        nxt = list(v)
        nxt[j] -= delta
        nxt[k] += delta
        records.append((v, nxt, j, k))
        v = nxt
    return records


def _mixing_step(x, y, j, k, meas_index):
    """Two-outcome measurement turning sorted ``x`` into sorted ``y``
    (integer numerators over one denominator, which differ only at
    positions j < k, with y_j > x_j >= x_k > y_k and equal pair sums),
    plus the outcome-1 correction on B, given by the permutation of the
    outcome it corrects.

    Outcome probabilities are exactly t and 1 - t with
    t = (x_j - y_k)/(y_j - y_k); both branches land exactly on ``y``.
    Each operator has three distinct squares: its outcome's probability
    and the two it puts at positions j and k.
    """
    n = len(x)
    spread = y[j] - y[k]
    t, u = x[j] - y[k], y[j] - x[j]   # over spread: t and 1 - t
    sq1 = [Fraction(t, spread)] * n
    sq1[j] = Fraction(t * y[j], spread * x[j])
    sq1[k] = Fraction(t * y[k], spread * x[k])
    rows1 = tuple(range(n))
    sq2 = [Fraction(u, spread)] * n
    sq2[j] = Fraction(u * y[k], spread * x[j])   # column j feeds row k
    sq2[k] = Fraction(u * y[j], spread * x[k])   # column k feeds row j
    rows2 = list(range(n))
    rows2[j], rows2[k] = k, j
    meas = LocalMeasurement(
        "A", exact=(ExactMonomial(rows1, tuple(sq1)),
                    ExactMonomial(rows2, tuple(sq2))),
        label=f"balance levels {j + 1},{k + 1}")
    correction = LocalUnitary(
        "B", ExactMonomial(rows2, (1,) * n),
        condition=OutcomeIs(meas_index, 1),
        label=f"relabel levels {j + 1},{k + 1} on the swap branch")
    return [meas, Announce(label="broadcast outcome"), correction]


def deterministic_protocol(alpha: SchmidtVector,
                           gamma: SchmidtVector) -> LoccProtocol:
    """Certain conversion from ``alpha`` to the majorizing ``gamma``.

    Realized as at most n - 1 two-outcome measurements on A, one per
    T-transform of the majorization chain between the two distributions,
    each followed by an announcement and an outcome-conditioned relabel
    on B.  Every branch of the result lands exactly on ``gamma``.

    The chain is built on the vectors' integer numerators over one
    common denominator (the dyadic lift of a float vector), so
    majorization must hold exactly there; violations raise
    MajorizationError.
    """
    steps = []
    # chain records run gamma -> alpha; execution undoes them in reverse
    records = _t_transform_chain(alpha, gamma)
    for meas_index, (before, after, j, k) in enumerate(reversed(records)):
        steps.extend(_mixing_step(after, before, j, k, meas_index))
    return LoccProtocol(tuple(steps), success_predicate=None)


def _check_plan_audit_size(plan):
    """Refuse a feasible plan whose protocol's merged run would refuse
    its audit, before any monomial is made: build_full_protocol gives
    that protocol three steps per T-transform and the final filter."""
    chain = _t_transform_chain(plan.source, plan.intermediate)
    _check_audit_size(plan.source.n, 3 * len(chain) + 1)


def build_full_protocol(plan: ConversionPlan) -> LoccProtocol:
    """Executable protocol realizing a feasible plan end to end.

    Deterministic stage to the intermediate state, then the final
    two-outcome filter; outcome 0 of the last measurement is success.
    """
    if not plan.is_feasible:
        raise InfeasibleConversionError(
            "plan has probability 0; no protocol exists")
    det = deterministic_protocol(plan.source, plan.intermediate)
    rows = tuple(range(plan.intermediate.n))
    filter_step = LocalMeasurement("A", exact=tuple(
        ExactMonomial(rows, op.squared)
        for op in (plan.success_operator, plan.failure_operator)),
        label="final two-outcome filter")
    return LoccProtocol(det.steps + (filter_step,),
                        success_predicate=OutcomeIs(-1, 0))


# ---------------------------------------------------------------------------
# Monte-Carlo


@dataclass(frozen=True)
class SimulationReport:
    """Outcome summary of a sampled protocol run."""

    trials: int
    successes: int
    empirical_probability: float
    std_error: float
    predicted: object
    monotone_audit: tuple  # of (step, k, average) triples
    seed: int


class _LazyBranchTree:
    """Branch tree expanded on demand and shared across trials.

    A node is keyed by its outcome history; it stores the state snapshots
    accumulated since the parent measurement, the (probability, post)
    pairs of the pending measurement (None once the protocol ends) and
    that measurement's position plus one.  Asking for a node expands its
    unexpanded ancestors first.  ``nbytes`` counts the distinct amplitude
    matrices kept; a node that would take it past MAX_TREE_BYTES raises
    ValueError instead.
    """

    def __init__(self, protocol, initial, tol):
        self._protocol = protocol
        self._tol = tol
        self._nodes = {}
        self._checked = set()   # measurement steps whose operators passed
        self.nbytes = initial.amplitudes.nbytes
        self._make_node((), 0, initial)

    @dataclass(slots=True)
    class _Node:
        states: tuple
        outcomes: list | None
        next_pos: int

    def _make_node(self, history, pos, state):
        steps = self._protocol.steps
        snapshots, pos = _advance(self._protocol, pos, state, history)
        states = (state, *snapshots)
        outcomes = None
        if pos < len(steps):
            outcomes = _measure(steps[pos], states[-1], self._tol,
                                self._checked)
        # ``state`` is already counted, and an announcement repeats a state
        fresh = {id(s): s.amplitudes.nbytes for s in (
            *snapshots, *(post for _, post in outcomes or ()))
            if s is not None and s is not state}
        nbytes = self.nbytes + sum(fresh.values())
        if nbytes > MAX_TREE_BYTES:
            raise ValueError(
                f"sampled branch tree would keep more than {MAX_TREE_BYTES} "
                "bytes of amplitude matrices; use fewer trials (--trials)")
        self.nbytes = nbytes
        node = self._nodes[history] = self._Node(states, outcomes, pos + 1)
        return node

    def node(self, history):
        node = self._nodes.get(history)
        if node is None:
            parent = self.node(history[:-1])
            post = parent.outcomes[history[-1]][1]
            if post is None:
                raise ProtocolError("sampled a pruned zero-probability branch")
            node = self._make_node(history, parent.next_pos, post)
        return node

    def trajectory(self, history):
        """State snapshots along a complete history (len(steps) + 1).

        The root contributes boundaries up to the first measurement; each
        descendant's first state is the post-measurement snapshot, a new
        boundary, so nodes concatenate whole.
        """
        states = []
        for cut in range(len(history) + 1):
            states.extend(self.node(history[:cut]).states)
        return states


_DRAW_BLOCK = 8192  # trials whose uniforms are drawn at once


def _sample_histories(tree, trials, seed, n_meas):
    """{history: trial count} for ``trials`` sampled trials, ordered by
    the first trial that took each history.

    Trial t uses row t of a Philox uniform matrix keyed by ``seed``, its
    column d for the measurement after d outcomes.  The rows are drawn in
    blocks, which yields the same numbers as one draw of the whole
    matrix.  Within a block, the rows are grouped per tree node and split
    among its outcomes by _sampled_outcomes, the split of
    merged_sample_exact.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    first, counts = {}, {}
    for lo in range(0, trials, _DRAW_BLOCK):
        uniforms = rng.random((min(_DRAW_BLOCK, trials - lo), n_meas))
        split = _sampled_outcomes(uniforms)
        pending = [((), np.arange(len(uniforms)))]
        while pending:
            history, rows = pending.pop()
            node = tree.node(history)
            if node.outcomes is None:
                t = lo + int(rows[0])
                if t < first.get(history, trials):
                    first[history] = t
                counts[history] = counts.get(history, 0) + len(rows)
                continue
            for idx, part in split(rows, node.outcomes, len(history)):
                pending.append((history + (idx,), part))
    return {h: counts[h] for h in sorted(counts, key=first.__getitem__)}


def monte_carlo_run(protocol: LoccProtocol, initial: BipartiteState,
                    trials: int, seed: int, *, workers: int = 1,
                    predicted=None, tol=DEFAULT_TOL) -> SimulationReport:
    """Sample a protocol ``trials`` times and summarize.

    Reproducibility: trial t consumes row t of a Philox-generated uniform
    matrix keyed by ``seed``, so its outcomes are a pure function of
    (seed, t).  Trials are sampled together, grouped per node of the
    branch tree, and aggregated as integer counts.

    Parameters
    ----------
    protocol, initial : the protocol and the start state.
    trials, seed : sample size and RNG key.
    workers : accepted for compatibility and validated (>= 1); sampling
        runs in the calling thread and the report is the same for any
        value.
    predicted : closed-form probability to embed in the report.

    Returns
    -------
    SimulationReport with the empirical probability, its standard error
    sqrt(p(1-p)/trials), and the per-step averaged-monotone audit.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    n_meas = max(protocol.measurement_count, 1)
    tree = _LazyBranchTree(protocol, initial, tol)
    counts = _sample_histories(tree, trials, seed, n_meas)
    predicate = protocol.success_predicate
    successes = sum(cnt for hist, cnt in counts.items()
                    if predicate is None or predicate(hist))
    empirical = successes / trials
    std_error = math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)
    # audit from the visited trajectories, weighted by visit counts
    ks = range(1, min(initial.n_a, initial.n_b) + 1)
    table = audit_trajectories(
        [(cnt, tree.trajectory(hist)) for hist, cnt in counts.items()], ks,
        tol=tol, check=False)
    audit = [(s, k, float(averages[s]))
             for s in range(len(protocol.steps) + 1)
             for k, averages in zip(ks, table)]
    return SimulationReport(trials=trials, successes=successes,
                            empirical_probability=empirical,
                            std_error=std_error, predicted=predicted,
                            monotone_audit=tuple(audit), seed=seed)


def merged_sample_exact(protocol: LoccProtocol, initial: SchmidtVector,
                        trials: int, seed: int, *,
                        predicted=None) -> SimulationReport:
    """Sample a protocol ``trials`` times on integer states.

    The merged level loop of merged_run_exact in its sampled mode, for a
    protocol whose success reads the last outcome only, from an exact
    initial vector.  Trial t consumes row t of the Philox uniform matrix
    keyed by ``seed``, drawn in the blocks monte_carlo_run draws, its
    column d at the measurement after d outcomes, where monte_carlo_run's
    split (_sampled_outcomes) picks its outcome.  Each level groups a
    block's rows by state instead of by history.  The audit averages
    over the trials exactly, then rounds once; sampled averages may
    rise, so it is not checked for increases.

    Returns the SimulationReport monte_carlo_run gives, with the audit's
    (step, k, average) triples in the same order.  Refuses an audit past
    MAX_AUDIT_CELLS cells as merged_run_exact does.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_audit_size(initial.n, len(protocol.steps))
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_meas = max(protocol.measurement_count, 1)
    counts = [{} for _ in range(protocol.measurement_count + 1)]
    successes = 0
    for lo in range(0, trials, _DRAW_BLOCK):
        uniforms = rng.random((min(_DRAW_BLOCK, trials - lo), n_meas))
        last, per_state = _merged_levels(
            protocol, initial, np.arange(len(uniforms)),
            _sampled_outcomes(uniforms), _joined)
        successes += sum(map(len, _succeeded(protocol, last)))
        for level, states in zip(counts, per_state):
            for state, rows in states.items():
                level[state] = level.get(state, 0) + len(rows)
    weights = [{state: Fraction(count, trials)
                for state, count in level.items()} for level in counts]
    audit = _merged_audit(weights, _level_starts(protocol),
                          len(protocol.steps) + 1, check=False)
    empirical = successes / trials
    std_error = math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)
    return SimulationReport(
        trials=trials, successes=successes, empirical_probability=empirical,
        std_error=std_error, predicted=predicted,
        monotone_audit=tuple((s, k, nums[k - 1] / den)
                             for s, (nums, den) in enumerate(audit)
                             for k in range(1, initial.n + 1)),
        seed=seed)


def _sampled_outcomes(uniforms):
    """The one sampling split, of the branch tree and the merged levels:
    ``split(rows, outcomes, depth)`` yields (outcome index, rows) for an
    array of a block's rows, given the (probability, post) pairs of the
    measurement after ``depth`` outcomes.  A row takes the first outcome
    whose running sum of float probabilities exceeds its uniform in
    column ``depth``, the last if none does, then steps down past pruned
    outcomes (post None), so an outcome may be yielded twice."""
    def split(rows, outcomes, depth):
        sums = np.array([float(p) for p, _ in outcomes]).cumsum()
        sums[-1] = np.inf   # the last outcome if no sum exceeds u
        picks = np.searchsorted(sums, uniforms[rows, depth], side="right")
        for idx in range(len(outcomes)):
            part = rows[picks == idx]
            if len(part):
                took = idx
                while outcomes[took][1] is None:
                    took -= 1
                yield took, part
    return split


def _joined(a, b):
    return np.concatenate((a, b))
