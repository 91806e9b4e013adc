"""Executable LOCC protocols over bipartite pure states.

A protocol is a finite sequence of steps: local generalized measurements
(branching), outcome-conditioned local unitaries, and classical outcome
announcements.  The protocols built here are plain data: a measurement
is its rational monomials (ExactMonomial, the exact operator type that
conversion defines; the final filter holds the plan's own pair), a
relabel its permutation (an ExactMonomial whose squares are all 1), each
with its dense form derived only when first asked for, and an outcome
condition is an ``OutcomeIs``.  A step is checked when it is made (a
measurement must resolve the identity, exactly on monomials).  Every
engine groups a protocol's steps once per run (_stages): the steps
before the first measurement, then each measurement with the steps up
to the next one.  The same pass fits each step to the initial state,
before any step runs.  One interpreter (_interpret) applies a group's
announcements and unitaries in every engine, and the state's type picks
the level: a BipartiteState runs in floating point on amplitudes with
arbitrary operators, a SchmidtVector exactly on the monomials' integer
numerators.  Either way a measurement gives one (probability, post) pair
per outcome, post None if pruned; only apply_measurement wraps them as
MeasurementOutcome.  An integer state keeps its squared coefficients in
A's level order with the level of B each pairs with, and one move of a
party's levels (_relabeled) serves measurements and relabels on either
party.  Both samplers take one draw (_draws: trial t reads row t of one
Philox uniform matrix keyed by the seed), split trials among outcomes by
one rule (_split: the first outcome whose running sum of float
probabilities exceeds the trial's uniform) and give one plain record,
SimulationReport, of what they counted.  The amplitude-level sampler
expands each history it reaches once per run, top-down.  The monotone
audit profiles each distinct state object once.
When success reads the last outcome alone, the merged exact engines
walk (measurement, state) nodes instead of histories (_MergedWalk):
each node is measured once per run, when first reached, and lists its
unpruned outcomes with the state each reaches through the unitaries
that follow.  A level maps each state reached to a weight and a history
count (merged_run_exact) or to the trials of one draw block that reached
it (merged_sample_exact).  Where success reads no outcome, a node whose
outcomes reach one state is one outcome that passes its entry on whole,
so the trials of a built protocol split at its final filter alone.  Both
give the audit as one (numerators, denominator) per level, with the
number of step boundaries it spans, and refuse an audit of more than
MAX_AUDIT_CELLS cells, as build_full_protocol does before it makes any
step.  The CLI runs on those engines alone; the enumerating engines and
the amplitude-level sampler stay as their reference.
numpy is imported only inside the functions that need it: dense
operators (a step's ``operators`` or ``matrix``) and their checks, the
amplitude-level engines, and the Philox draw and split of both
samplers.  Building a protocol and running it exhaustively on a
SchmidtVector, audit included, never load it.  This module itself loads
on first use: the CLI imports it inside ``simulate`` alone, and the
package serves it, and the 23 of its names that the package exports
(``_LOCC`` in ``entconvert/__init__.py``: the protocol types, the
engines, the builders and the audits), through its module
``__getattr__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .conversion import (ConversionPlan, ExactMonomial,
                         InfeasibleConversionError, ProtocolError)
from .monotones import entanglement_monotone, monotone_profile
from .numeric import DEFAULT_TOL, _Lazy
from .schmidt import (BipartiteState, SchmidtVector, majorizes,
                      schmidt_decompose)

if TYPE_CHECKING:
    import numpy as np

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
# exact CLI run peaks at 0.30-0.50 KB per cell (64-92 MB at n = 256,
# 119-159 MB at n = 384), so a run at this limit stays under 350 MB.  A
# protocol has at most 3n - 2 steps, so every pair up to n = 418 stays
# within it.
MAX_AUDIT_CELLS = 2 ** 19


class BranchLimitError(RuntimeError):
    """Exhaustive enumeration exceeded the branch cap."""


class MonotoneViolationError(RuntimeError):
    """An averaged monotone increased along a protocol."""


class MajorizationError(ValueError):
    """Deterministic conversion requested without majorization."""


@dataclass(frozen=True)
class OutcomeIs:
    """Whether outcome ``index`` of a history equals ``value``.  A negative
    index counts from the latest; a history too short for it fails."""

    index: int
    value: int

    def __call__(self, history) -> bool:
        return (-len(history) <= self.index < len(history)
                and history[self.index] == self.value)


@dataclass(frozen=True, eq=False)
class LocalMeasurement(_Lazy):
    """Generalized measurement on one party; operators must satisfy
    sum K^dag K = identity, checked here: within DEFAULT_TOL on dense
    operators, exactly on monomials, whose squares must sum to 1 in every
    column.  Given by ``operators`` or by ``exact``, the monomial
    description of each operator for rational bookkeeping, not both; from
    ``exact`` the dense operators are derived on first use."""

    party: str
    operators: tuple = field(default_factory=tuple)
    exact: tuple | None = None
    label: str = ""

    _lazy, _source = "operators", "exact"

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ProtocolError(f"party must be 'A' or 'B', got {self.party!r}")
        ops = tuple(self.operators)
        if ops and self.exact is not None:
            raise ProtocolError("give operators or exact monomials, not both")
        if self.exact:
            if len({mono.n for mono in self.exact}) != 1:
                raise ProtocolError("measurement operators differ in shape")
            den = math.lcm(*[mono._scaled[1] for mono in self.exact])
            scaled = [nums if d == den else [x * (den // d) for x in nums]
                      for nums, d in (m._scaled for m in self.exact)]
            complete = set(map(sum, zip(*scaled))) <= {den}
            object.__delattr__(self, "operators")
        else:
            import numpy as np
            ops = tuple(np.array(op, dtype=complex) for op in ops)
            if not ops:
                raise ProtocolError(
                    "a measurement needs at least one operator")
            shape = ops[0].shape
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ProtocolError("measurement operators must be square")
            if any(op.shape != shape for op in ops):
                raise ProtocolError("measurement operators differ in shape")
            complete = np.allclose(sum(op.conj().T @ op for op in ops),
                                   np.eye(shape[0]), atol=DEFAULT_TOL)
            for op in ops:
                op.setflags(write=False)
            object.__setattr__(self, "operators", ops)
        if not complete:
            raise ProtocolError(
                "measurement operators do not resolve the identity")

    def _derive(self):
        ops = tuple(mono.matrix for mono in self.exact)
        for op in ops:
            op.setflags(write=False)
        return ops

    @property
    def n(self) -> int:
        if self.exact:
            return self.exact[0].n
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class LocalUnitary(_Lazy):
    """Local basis change on one party, optionally applied only when the
    outcome history so far satisfies ``condition`` (say an OutcomeIs).

    ``matrix`` may instead be an ExactMonomial whose squares are all 1,
    a permutation taking level c to level ``rows[c]``, kept as
    ``exact``; the dense matrix, ``exact.matrix``, is then derived on
    first use.  The exact engines read only that permutation and refuse
    a unitary given densely."""

    party: str
    matrix: np.ndarray
    condition: object = None
    label: str = ""

    _lazy, _source = "matrix", "exact"

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ProtocolError(f"party must be 'A' or 'B', got {self.party!r}")
        if isinstance(self.matrix, ExactMonomial):
            # its rows are a permutation: unitary iff every square is 1
            if set(self.matrix._scaled[0]) - {self.matrix._scaled[1]}:
                raise ProtocolError("matrix is not unitary")
            object.__setattr__(self, "exact", self.matrix)
            object.__delattr__(self, "matrix")
            return
        import numpy as np
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ProtocolError("unitary must be square")
        if not np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]),
                           atol=DEFAULT_TOL):
            raise ProtocolError("matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def _derive(self):
        mat = self.exact.matrix
        mat.setflags(write=False)
        return mat

    @property
    def n(self) -> int:
        return self.exact.n if "exact" in vars(self) else self.matrix.shape[0]


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


def apply_measurement(state: BipartiteState, party: str, operators):
    """All outcomes of a generalized local measurement.

    Parameters
    ----------
    state : BipartiteState
    party : str
        "A" (operators act on rows) or "B" (columns).
    operators : sequence of square matrices
        Must fit the measured party and resolve its identity within
        DEFAULT_TOL.

    Returns
    -------
    list of MeasurementOutcome
        Probability is the squared norm of the unnormalized branch;
        probabilities sum to 1 within tolerance.  Outcomes below the
        pruning threshold carry ``post_state=None``.
    """
    step = LocalMeasurement(party, operators)
    _stages((step,), state)
    return [MeasurementOutcome(idx, p, post)
            for idx, (p, post) in enumerate(_outcomes(step, state))]


def _stages(steps, initial):
    """A run's steps, grouped once: the steps before the first
    measurement, then each measurement with the steps up to the next one,
    as (start, measurement, tail) per group, ``start`` the step boundary
    the group's tail starts at (0, with measurement None, for the first).
    The same pass fits each step to ``initial``, before any step runs: it
    must act on its party's dimension, and on a SchmidtVector, run as
    integers, it must carry its monomials."""
    exact = isinstance(initial, SchmidtVector)
    dims = (initial.n,) * 2 if exact else (initial.n_a, initial.n_b)
    stages = [(0, None, [])]
    for pos, step in enumerate(steps):
        measured = isinstance(step, LocalMeasurement)
        if not isinstance(step, Announce):
            if exact and getattr(step, "exact", None) is None:
                raise ProtocolError(
                    ("measurement lacks exact monomial data" if measured
                     else f"step {pos} ({step.label or 'unitary'}) is a "
                     "dense unitary")
                    + "; use the amplitude-level exhaustive_run instead")
            dim = dims[step.party == "B"]
            if step.n != dim:
                raise ProtocolError(
                    ("operator shape mismatch" if measured else
                     f"step {pos}: unitary shape mismatch")
                    + f": party {step.party} has dimension {dim}")
        if measured:
            stages.append((pos + 1, step, []))
        else:
            stages[-1][2].append(step)
    return stages


def _interpret(steps, state, history):
    """The state at each boundary of ``steps``, announcements and
    unitaries, from ``state`` on.  An announcement repeats the state; a
    unitary whose condition holds on ``history`` acts on it, on an
    integer state as the permutation it is."""
    states = [state]
    for step in steps:
        if isinstance(step, LocalUnitary) and (
                step.condition is None or step.condition(history)):
            state = (BipartiteState(_apply_operator(
                state.amplitudes, step.party, step.matrix))
                if isinstance(state, BipartiteState)
                else _relabeled(step.party, step.exact.rows, state))
        states.append(state)
    return states


def _outcomes(step, state):
    """(probability, post) per operator of measurement ``step`` on an
    amplitude state; post is None for an outcome below the pruning
    threshold."""
    import numpy as np
    outcomes = []
    for op in step.operators:
        branch = _apply_operator(state.amplitudes, step.party, op)
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
    its partner on B.  The probability is an integer ratio (numerator,
    denominator); post, reduced over the sum of its numerators, has the
    party's levels moved by the monomial's rows, or is None for an
    outcome of probability 0."""
    (nums, den), partners = state
    meets = range(len(nums)) if step.party == "A" else partners
    results = []
    for mono in step.exact:
        squares, scale = mono._scaled
        weights = [squares[c] * x for c, x in zip(meets, nums)]
        total = sum(weights)
        if total == 0:
            results.append(((0, 1), None))
            continue
        g = math.gcd(*weights)
        post = ((tuple([w // g for w in weights]), total // g), partners)
        results.append(((total, scale * den),
                         _relabeled(step.party, mono.rows, post)))
    return results


def _enumerate(protocol, initial, one):
    """Every unpruned branch in history order, one level at a time, with
    probabilities multiplied left to right from ``one``.  A BipartiteState
    belongs to one branch; a SchmidtVector runs as an integer state, and
    equal integer states are measured once per level, however many
    branches reach them.  Their snapshots are SchmidtVectors, one object
    per distinct state."""
    stages = _stages(protocol.steps, initial)
    exact = isinstance(initial, SchmidtVector)
    measure = _exact_outcomes if exact else _outcomes
    start = (initial._scaled, tuple(range(initial.n))) if exact else initial
    frontier = [((), one, _interpret(stages[0][2], start, ()))]
    for _, step, tail in stages[1:]:
        grown, shared = [], {}   # shared: integer state -> its outcomes
        for history, prob, states in frontier:
            outcomes = shared.get(states[-1]) if exact else None
            if outcomes is None:
                outcomes = measure(step, states[-1])
                if exact:   # probabilities as Fractions
                    shared[states[-1]] = outcomes = [
                        (Fraction(*p), post) for p, post in outcomes]
            for idx, (p, post) in enumerate(outcomes):
                if post is not None:
                    reached = history + (idx,)
                    grown.append((reached, prob * p,
                                  states + _interpret(tail, post, reached)))
        if len(grown) > BRANCH_CAP:
            raise BranchLimitError(
                f"branch count {len(grown)} exceeds cap {BRANCH_CAP}")
        frontier = grown
    if exact:
        vectors = {initial._scaled: initial}
        for _, _, states in frontier:
            for i, (scaled, _) in enumerate(states):
                if scaled not in vectors:
                    nums, den = scaled
                    vectors[scaled] = SchmidtVector._of(
                        sorted(nums, reverse=True), den)
                states[i] = vectors[scaled]
    return [Branch(h, p, tuple(s)) for h, p, s in frontier]


def exhaustive_run(protocol: LoccProtocol, initial: BipartiteState):
    """Enumerate every branch of a protocol at the amplitude level.

    Operators must resolve the identity within DEFAULT_TOL.  Branches
    whose probability falls below the pruning threshold are dropped; the
    probabilities of the returned branches sum to 1 within tolerance.
    Raises BranchLimitError beyond BRANCH_CAP branches.
    """
    return _enumerate(protocol, initial, 1.0)


def exhaustive_run_exact(protocol: LoccProtocol, initial: SchmidtVector):
    """Enumerate branches with exact rational probabilities.

    Works at the Schmidt-coefficient level: each measurement must carry
    exact monomial data and each unitary be a permutation (true of
    protocols built by this module); a unitary given densely is refused
    with ProtocolError naming its step.  The state is kept as integers in
    A's level order, with the level of B each pairs with, so every
    measurement and relabel meets the levels as on amplitudes.  The
    initial vector must be exact.

    Equal post-measurement states are one shared vector object, so the
    branches of a deterministic stage, which all land on the same vector,
    carry a single state per step boundary.  The run still costs one
    entry per history, up to BRANCH_CAP (BranchLimitError beyond);
    merged_run_exact gives the same counts, probabilities and audit
    without enumerating, when the success predicate allows it.
    """
    if not initial.is_exact:
        raise ProtocolError("exact run requires an exact initial vector")
    return _enumerate(protocol, initial, Fraction(1))


def success_probability(branches, predicate=None):
    """Total probability of branches whose history satisfies the predicate
    (all branches when predicate is None)."""
    return sum(b.probability for b in branches
               if predicate is None or predicate(b.history))


@dataclass(frozen=True)
class MergedRun:
    """Summary of an exact run that merges histories reaching one state.

    ``branches`` counts the outcome histories of nonzero probability, an
    exact int however large.  ``levels`` is the audit, one
    ((numerators, denominator), span) per measurement level, the first
    for the initial state: numerator k - 1 over the denominator is the
    probability-weighted average of E_k at each of the level's ``span``
    step boundaries.
    """

    branches: int
    success_probability: Fraction
    levels: tuple

    @property
    def audit(self):
        """The levels' pairs, one per step boundary, made when read."""
        return tuple(_boundaries(self.levels))


def _boundaries(levels):
    """Each level's pair, once per step boundary it spans."""
    return (pair for pair, span in levels for _ in range(span))


def merged_run_exact(protocol: LoccProtocol,
                     initial: SchmidtVector) -> MergedRun:
    """Exact run of a protocol whose success reads the last outcome only.

    Two histories that reach the same state go on alike when the
    unitaries read the last outcome alone.  Each measurement level is
    therefore one dict keyed by the state its outcomes reach, mapping to
    (exact weight, history count), and the run costs one outcome per
    distinct state, where enumerating costs one per history.  Branch
    count, success probability and audit equal those of
    exhaustive_run_exact followed by audit_trajectories, and an
    increasing average raises the same MonotoneViolationError.  States
    are integer states as exhaustive_run_exact keeps them; a unitary
    given densely, or conditioned on more than the last outcome, is
    refused with ProtocolError naming its step.  An audit of more than
    MAX_AUDIT_CELLS cells (levels x step boundaries) is refused with
    ValueError before any level runs.
    """
    _check_audit_size(initial.n, len(protocol.steps))
    walk = _MergedWalk(protocol, initial)
    nodes, wins, final = walk.nodes, walk.wins, walk.final
    levels, won = [{walk.root: (Fraction(1), 1)}], Fraction(0)
    for g in range(1, final + 1):
        grown = {}
        for state, (w, count) in levels[-1].items():
            node = nodes.get((g, state)) or walk.measure(g, state)
            for idx, (a, b), m, reached in node:
                # one outcome, of probability 1, passes the weight on whole
                part = (Fraction(w.numerator * a, w.denominator * b)
                        if len(node) > 1 else w)
                if g == final and idx == wins:
                    won += part
                if reached in grown:
                    total, histories = grown[reached]
                    grown[reached] = total + part, histories + count * m
                else:
                    grown[reached] = part, count * m
        levels.append(grown)
    averages = _merged_audit(
        [[(state[0], w) for state, (w, _) in level.items()]
         for level in levels], walk.starts)
    # where every history succeeds, the probabilities sum to 1
    return MergedRun(sum(count for _, count in levels[-1].values()),
                     Fraction(1) if wins is None else won,
                     tuple(zip(averages, walk.spans)))


def _check_audit_size(n, steps):
    """Refuse a merged run whose audit would pass MAX_AUDIT_CELLS cells,
    one per each of n levels and step boundary, before it starts."""
    cells = n * (steps + 1)
    if cells > MAX_AUDIT_CELLS:
        raise ValueError(
            f"audit too large: {n} levels x {steps + 1} step boundaries "
            f"= {cells} cells (limit {MAX_AUDIT_CELLS})")


class _MergedWalk:
    """The (measurement, state) nodes of a merged run on integer states,
    each measured once per run, when first reached.

    The steps are grouped and fitted once (_stages), and a unitary
    conditioned on more than the last outcome is then refused.  Level 0
    holds ``root``, the initial state moved by the steps before the
    first measurement; level g the states reached through group g of
    ``stages``, whose ``spans[g]`` step boundaries start at ``starts[g]``.
    ``nodes[g, state]``, made by ``measure(g, state)``, lists the
    unpruned outcomes of group g's measurement on a state of level g - 1
    as (index, probability, history multiplicity, next state), the
    probability as _exact_outcomes gives it: the next state is the
    outcome's post moved by the group's unitaries that act on it.  Where
    success reads no outcome of that measurement and its m outcomes reach
    one state, the node is the one outcome (first index, (1, 1), m, that
    state), which passes its entry on whole: the reconverge rule.
    ``wins`` is the final outcome that succeeds, None where every history
    does.
    """

    def __init__(self, protocol, initial):
        if not initial.is_exact:
            raise ProtocolError("exact run requires an exact initial vector")
        if not protocol.mergeable:
            raise ProtocolError(
                "success predicate reads more than the last outcome; "
                "use exhaustive_run_exact instead")
        self.stages = _stages(protocol.steps, initial)
        for depth, (start, _, tail) in enumerate(self.stages):
            # every history here holds ``depth`` outcomes
            for pos, step in enumerate(tail, start):
                test = getattr(step, "condition", None)
                if not (test is None or isinstance(test, OutcomeIs) and (
                        test.index in (-1, depth - 1)
                        or not -depth <= test.index < depth)):
                    raise ProtocolError(
                        f"step {pos} ({step.label or 'unitary'}) is "
                        "conditioned on more than the last outcome; "
                        "use exhaustive_run_exact instead")
        test = protocol.success_predicate
        self.wins = None if test is None else test.value
        self.final = len(self.stages) - 1
        self.starts = [start for start, _, _ in self.stages]
        self.spans = [len(tail) + 1 for _, _, tail in self.stages]
        self.root = _interpret(self.stages[0][2], (
            initial._scaled, tuple(range(initial.n))), ())[-1]
        self.nodes = {}

    def measure(self, g, state):
        _, step, tail = self.stages[g]
        # the conditions left read the last outcome alone, so a history
        # holding only that one stands for every history reaching it
        outcomes = [(idx, p, 1, _interpret(
            tail, post, (None,) * (g - 1) + (idx,))[-1])
            for idx, (p, post) in enumerate(_exact_outcomes(step, state))
            if post is not None]
        reached = {outcome[3] for outcome in outcomes}
        if len(reached) == 1 and (g < self.final or self.wins is None):
            outcomes = [(outcomes[0][0], (1, 1), len(outcomes), *reached)]
        self.nodes[g, state] = outcomes
        return outcomes


def _merged_audit(levels, starts, check=True):
    """Per-level (numerators, denominator) of the averaged monotones.

    ``levels[i]`` lists the (squared coefficients in integer form, exact
    weight) pairs of measurement level i, whose weights sum to 1; a
    coefficient tuple may recur, once per state it belongs to.  The level
    starts at step boundary ``starts[i]``.  Each distinct
    coefficient tuple's integer tails are taken once.  With ``check``
    set, raises MonotoneViolationError at the first k (then step) whose
    average increases, as audit_trajectories does; levels compare by
    cross-multiplying.
    """
    from itertools import accumulate
    tails, averages = {}, []
    for level in levels:
        den = math.lcm(*[w.denominator * scaled[1] for scaled, w in level])
        total = None
        for scaled, w in level:
            if scaled not in tails:
                # ascending, so tail[k - 1] sums the n - k + 1 smallest
                tails[scaled] = [*accumulate(sorted(scaled[0]))][::-1]
            scale = w.numerator * (den // (w.denominator * scaled[1]))
            terms = [scale * t for t in tails[scaled]]
            total = terms if total is None else [
                a + b for a, b in zip(total, terms)]
        averages.append((tuple(total), den))
    for i in range(len(averages[0][0])):
        for (a, da), (b, db), step in zip(averages, averages[1:], starts[1:]):
            if check and a[i] * db < b[i] * da:
                raise MonotoneViolationError(
                    f"averaged monotone k={i + 1} increased at step "
                    f"{step}: {Fraction(a[i], da)} -> {Fraction(b[i], db)}")
    return averages


def _state_monotones(state, ks):
    sv = state if isinstance(state, SchmidtVector) else schmidt_decompose(state)
    tails = monotone_profile(sv).values
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


def monotone_audit(branches, k: int, *, tol=DEFAULT_TOL):
    """Per-step probability-weighted average of the k-th monotone.

    Returns one value per step boundary (index 0 = initial state).
    Raises MonotoneViolationError if the sequence increases beyond
    tolerance — no LOCC protocol may do that.
    """
    trajectories = [(b.probability, b.states) for b in branches]
    return audit_trajectories(trajectories, (k,), tol=tol)[0]


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


def _times(num, den, f, x):
    """(num/den) * (f/x) in lowest terms, for num/den in lowest terms, as
    integers (numerator, denominator).  Like Fraction's product it takes
    gcds of the factors, never one of the products."""
    g = math.gcd(f, x)
    f, x = f // g, x // g
    c, d = math.gcd(num, x), math.gcd(f, den)
    return (num // c) * (f // d), (den // d) * (x // c)


def _mixing_steps(records):
    """The steps undoing a T-transform chain, whose records run from
    gamma toward alpha, in reverse: per record, a two-outcome measurement
    turning sorted ``x`` into sorted ``y`` (integer numerators over one
    denominator, which differ only at positions j < k, with
    y_j > x_j >= x_k > y_k and equal pair sums), an announcement, and the
    outcome-1 correction on B, given by the permutation of the outcome it
    corrects.

    Outcome probabilities are exactly t and 1 - t with
    t = (x_j - y_k)/(y_j - y_k); both branches land exactly on ``y``.
    Each operator has three distinct squares: its outcome's probability
    and the two it puts at positions j and k.  Those three are reduced on
    their own and put over their least common denominator, so every
    operator is in lowest terms and numerator sizes do not compound down
    the chain.
    """
    for meas_index, (y, x, j, k) in enumerate(reversed(records)):
        n = len(x)
        spread, same = y[j] - y[k], tuple(range(n))
        rows2 = (*range(j), k, *range(j + 1, k), j, *range(k + 1, n))
        ops = []
        # per outcome: its probability (t or 1 - t) times spread, the
        # factors y/x it puts at j and k, and its rows; column j feeds row
        # k on the swap outcome
        for w, at_j, at_k, rows in ((x[j] - y[k], y[j], y[k], same),
                                    (y[j] - x[j], y[k], y[j], rows2)):
            pn, pd = _times(1, 1, w, spread)
            jn, jd = _times(pn, pd, at_j, x[j])
            kn, kd = _times(pn, pd, at_k, x[k])
            # the other levels keep p, and count only when there are any
            den = math.lcm(jd, kd, pd if n > 2 else 1)
            sq = [pn * (den // pd)] * n
            sq[j], sq[k] = jn * (den // jd), kn * (den // kd)
            ops.append(ExactMonomial._from_scaled(tuple(sq), den, rows=rows))
        yield LocalMeasurement("A", exact=tuple(ops),
                               label=f"balance levels {j + 1},{k + 1}")
        yield Announce(label="broadcast outcome")
        yield LocalUnitary(
            "B", ExactMonomial._from_scaled((1,) * n, 1, rows=rows2),
            condition=OutcomeIs(meas_index, 1),
            label=f"relabel levels {j + 1},{k + 1} on the swap branch")


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
    return LoccProtocol(tuple(_mixing_steps(_t_transform_chain(alpha, gamma))),
                        success_predicate=None)


def build_full_protocol(plan: ConversionPlan) -> LoccProtocol:
    """Executable protocol realizing a feasible plan end to end.

    Deterministic stage to the intermediate state, then the final
    two-outcome filter, whose operators are the plan's own monomials;
    outcome 0 of the last measurement is success.  A protocol whose audit
    the merged engines would refuse (more than MAX_AUDIT_CELLS cells) is
    refused with their ValueError before any step is made.
    """
    if not plan.is_feasible:
        raise InfeasibleConversionError(
            "plan has probability 0; no protocol exists")
    chain = _t_transform_chain(plan.source, plan.intermediate)
    # three steps per T-transform, then the filter
    _check_audit_size(plan.source.n, 3 * len(chain) + 1)
    filter_step = LocalMeasurement(
        "A", exact=(plan.success_operator, plan.failure_operator),
        label="final two-outcome filter")
    return LoccProtocol((*_mixing_steps(chain), filter_step),
                        success_predicate=OutcomeIs(-1, 0))


# ---------------------------------------------------------------------------
# Monte-Carlo


@dataclass(frozen=True)
class SimulationReport:
    """Outcome summary of a sampled protocol run: ``successes`` of
    ``trials``, the ``predicted`` probability and the ``seed`` it was
    given, and ``levels``, the audit as MergedRun's levels (the amplitude
    sampler's as floats over 1, a level per step boundary)."""

    trials: int
    successes: int
    predicted: object
    seed: int
    levels: tuple

    @property
    def empirical_probability(self):
        return self.successes / self.trials

    @property
    def std_error(self):
        """sqrt(p(1-p)/trials), p the empirical probability."""
        p = self.empirical_probability
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)

    @property
    def monotone_audit(self):
        """(step, k, average) triples, step-major from k = 1."""
        return tuple((step, k, x / den) for step, (nums, den) in enumerate(
            _boundaries(self.levels)) for k, x in enumerate(nums, 1))


_DRAW_BLOCK = 8192  # trials whose uniforms are drawn at once


def _draws(protocol, trials, seed):
    """The one draw of both samplers: (first trial, uniforms) per block of
    up to _DRAW_BLOCK trials.  Trial t reads row t of a Philox uniform
    matrix keyed by ``seed``, its column d at the measurement after d
    outcomes; drawn in blocks, the rows are the same numbers as one draw
    of the whole matrix."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=seed))
    columns = max(protocol.measurement_count, 1)
    for lo in range(0, trials, _DRAW_BLOCK):
        yield lo, rng.random((min(_DRAW_BLOCK, trials - lo), columns))


def _sample_histories(protocol, initial, trials, seed):
    """{history: (trial count, trajectory)} for ``trials`` sampled trials
    from an amplitude state, ordered by the first trial that took each
    history; a trajectory holds a state per step boundary.

    Within each block of _draws, the rows are grouped per history and
    split among its outcomes by _split, as merged_sample_exact splits
    them.  One dict for the run maps each history reached to its states
    since the measurement before it and the (probability, post) pairs of
    the measurement after it (None once the protocol ends).  A history is
    expanded once, when first reached from its parent's post, and later
    blocks reuse it.  The distinct amplitude matrices kept are counted: a
    history that would take them past MAX_TREE_BYTES bytes raises
    ValueError instead.
    """
    import numpy as np
    stages = _stages(protocol.steps, initial)
    tree, kept = {}, initial.amplitudes.nbytes

    def expand(history, state):
        nonlocal kept
        depth = len(history)
        states = _interpret(stages[depth][2], state, history)
        outcomes = (_outcomes(stages[depth + 1][1], states[-1])
                    if depth + 1 < len(stages) else None)
        # ``state`` is already counted, and an announcement repeats a state
        fresh = {id(s): s.amplitudes.nbytes for s in (
            *states, *[post for _, post in outcomes or ()])
            if s is not None and s is not state}
        kept += sum(fresh.values())
        if kept > MAX_TREE_BYTES:
            raise ValueError(
                f"sampled branch tree would keep more than {MAX_TREE_BYTES} "
                "bytes of amplitude matrices; use fewer trials (--trials)")
        tree[history] = states, outcomes

    expand((), initial)
    first, counts = {}, {}
    for lo, uniforms in _draws(protocol, trials, seed):
        pending = [((), np.arange(len(uniforms)))]
        while pending:
            history, rows = pending.pop()
            if history not in tree:
                expand(history, tree[history[:-1]][1][history[-1]][1])
            _, outcomes = tree[history]
            if outcomes is None:
                t = lo + int(rows[0])
                if t < first.get(history, trials):
                    first[history] = t
                counts[history] = counts.get(history, 0) + len(rows)
                continue
            for idx, part in _split(uniforms, rows, outcomes, len(history)):
                pending.append((history + (idx,), part))
    return {history: (counts[history],
                      [state for cut in range(len(history) + 1)
                       for state in tree[history[:cut]][0]])
            for history in sorted(counts, key=first.__getitem__)}


def monte_carlo_run(protocol: LoccProtocol, initial: BipartiteState,
                    trials: int, seed: int, *,
                    predicted=None) -> SimulationReport:
    """Sample a protocol ``trials`` times and summarize.

    Reproducibility: trial t consumes row t of a Philox-generated uniform
    matrix keyed by ``seed``, so its outcomes are a pure function of
    (seed, t).  Trials are sampled together, grouped per outcome history,
    and aggregated as integer counts; each history reached is expanded
    once per run, from its parent's post-measurement state.

    Parameters
    ----------
    protocol, initial : the protocol and the start state.
    trials, seed : sample size and RNG key.
    predicted : closed-form probability to embed in the report.

    Returns
    -------
    SimulationReport with the empirical probability, its standard error
    sqrt(p(1-p)/trials), and the per-step averaged-monotone audit.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    histories = _sample_histories(protocol, initial, trials, seed)
    predicate = protocol.success_predicate
    successes = sum(count for history, (count, _) in histories.items()
                    if predicate is None or predicate(history))
    # audit from the visited trajectories, weighted by visit counts, as
    # one level per step boundary
    ks = range(1, min(initial.n_a, initial.n_b) + 1)
    table = audit_trajectories(list(histories.values()), ks, check=False)
    return SimulationReport(trials, successes, predicted, seed, tuple(
        ((tuple(float(averages[s]) for averages in table), 1), 1)
        for s in range(len(protocol.steps) + 1)))


def merged_sample_exact(protocol: LoccProtocol, initial: SchmidtVector,
                        trials: int, seed: int, *,
                        predicted=None) -> SimulationReport:
    """Sample a protocol ``trials`` times on integer states.

    The merged walk of merged_run_exact in its sampled mode, for a
    protocol whose success reads the last outcome only, from an exact
    initial vector.  Trials take monte_carlo_run's draw: trial t consumes
    row t of the Philox uniform matrix keyed by ``seed``, its column d at
    the measurement after d outcomes, where monte_carlo_run's split
    (_split) picks its outcome.  The levels run once per block of the
    draw, which bounds the uniforms held, keeping only the current
    level's rows, grouped by the state they reach instead of by history,
    and adding each part's count to its level's tally as the walk reaches
    it.  Each (measurement, state) is measured once per run, and its rows
    split only where outcomes part.  The audit averages over the trials
    exactly; sampled averages may rise, so it is not checked for them.

    Returns the SimulationReport monte_carlo_run gives.  Refuses an audit
    past MAX_AUDIT_CELLS cells as merged_run_exact does.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_audit_size(initial.n, len(protocol.steps))
    import numpy as np
    walk = _MergedWalk(protocol, initial)
    nodes, wins, final = walk.nodes, walk.wins, walk.final
    counts, successes = [{walk.root: trials}] + [{} for _ in range(final)], 0
    for _, uniforms in _draws(protocol, trials, seed):
        level = {walk.root: np.arange(len(uniforms))}
        for g, tally in enumerate(counts[1:], 1):
            grown = {}
            for state, rows in level.items():
                node = nodes.get((g, state)) or walk.measure(g, state)
                for pos, part in ([(0, rows)] if len(node) == 1 else _split(
                        uniforms, rows, [(a / b, post) for _, (a, b), _, post
                                         in node], g - 1)):
                    idx, _, _, reached = node[pos]
                    if g == final and idx == wins:
                        successes += len(part)
                    tally[reached] = tally.get(reached, 0) + len(part)
                    grown[reached] = (np.concatenate((grown[reached], part))
                                      if reached in grown else part)
            level = grown
    averages = _merged_audit(
        [[(state[0], Fraction(count, trials))
          for state, count in tally.items()] for tally in counts],
        walk.starts, check=False)
    return SimulationReport(trials, trials if wins is None else successes,
                            predicted, seed, tuple(zip(averages, walk.spans)))


def _split(uniforms, rows, outcomes, depth):
    """The one sampling split, of both samplers: yields (outcome index,
    rows) for an array of rows of a draw block whose uniforms are
    ``uniforms``, given the (probability, post) pairs of the measurement
    after ``depth`` outcomes.  A row picks the first outcome whose running
    sum of float probabilities exceeds its uniform in column ``depth``,
    the last if none does, and takes the nearest unpruned outcome (post
    not None) at or below its pick, or if there is none the first above
    it; so an outcome may be yielded twice, and a pruned one never is."""
    import numpy as np
    sums = np.array([float(p) for p, _ in outcomes]).cumsum()
    sums[-1] = np.inf   # the last outcome if no sum exceeds u
    picks = np.searchsorted(sums, uniforms[rows, depth], side="right")
    for idx in range(len(outcomes)):
        part = rows[picks == idx]
        if len(part):
            took = idx
            while outcomes[took][1] is None:
                # down from the pick, then up from it once 0 is passed
                took = took - 1 if 0 < took <= idx else max(took, idx) + 1
            yield took, part
