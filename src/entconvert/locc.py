"""Executable LOCC protocols over bipartite pure states.

A protocol is a finite sequence of steps: local generalized measurements
(branching), outcome-conditioned local unitaries, and classical outcome
announcements.  The protocols built here are plain data: a measurement
is its rational monomials, with dense operators derived from them, and
an outcome condition is an ``OutcomeIs``.  Exhaustive enumeration and a
seeded Monte-Carlo sampler (per-trial randomness a function of (seed,
trial index) alone) share one step interpreter, and the state's type
picks the level: a BipartiteState runs in floating point on amplitudes
with arbitrary operators, a SchmidtVector exactly on the monomials.  The
monotone audit profiles each distinct state object once, however many
branches or trials pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conversion import ConversionPlan, InfeasibleConversionError
from .monotones import _tails, entanglement_monotone
from .numeric import DEFAULT_TOL
from .schmidt import (BipartiteState, SchmidtVector, _lifted, majorizes,
                      schmidt_decompose, state_from_schmidt)

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

    ``rows[c]`` is the row of column c's nonzero entry and ``squared[c]``
    its squared magnitude.
    """

    rows: tuple
    squared: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        squared = tuple(Fraction(s) for s in self.squared)
        if len(rows) != len(squared):
            raise ProtocolError("monomial row/entry length mismatch")
        if any(s < 0 for s in squared):
            raise ProtocolError("negative squared magnitude in monomial")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "squared", squared)

    @property
    def n(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=complex)
        for col, (row, sq) in enumerate(zip(self.rows, self.squared)):
            mat[row, col] = math.sqrt(float(sq))
        return mat

    def outcome(self, probs: tuple):
        """(probability, sorted post squared coefficients) on a diagonal
        state with exact squared coefficients ``probs``; post is None for
        a probability-0 outcome."""
        p = sum(s * x for s, x in zip(self.squared, probs))
        if p == 0:
            return Fraction(0), None
        post = sorted((s * x / p for s, x in zip(self.squared, probs)),
                      reverse=True)
        return p, tuple(post)


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
class LocalMeasurement:
    """Generalized measurement on one party; operators must satisfy
    sum K^dag K = identity.  ``exact`` optionally carries the monomial
    description of each operator for rational bookkeeping; without
    ``operators`` the dense operators are derived from it."""

    party: str
    operators: tuple = ()
    exact: tuple | None = None
    label: str = ""

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ProtocolError(f"party must be 'A' or 'B', got {self.party!r}")
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)
        if not ops and self.exact:
            ops = tuple(mono.matrix() for mono in self.exact)
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

    @property
    def n(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Local basis change on one party, optionally applied only when the
    outcome history so far satisfies ``condition`` (say an OutcomeIs)."""

    party: str
    matrix: np.ndarray
    condition: object = None
    label: str = ""

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ProtocolError(f"party must be 'A' or 'B', got {self.party!r}")
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ProtocolError("unitary must be square")
        if not np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]),
                           atol=1e-9):
            raise ProtocolError("matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


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
    return _outcomes(state, party, ops)


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
    """One MeasurementOutcome per operator, the checks already passed."""
    outcomes = []
    for idx, op in enumerate(ops):
        branch = _apply_operator(state.amplitudes, party, op)
        p = float(np.linalg.norm(branch)) ** 2
        if p < PRUNE_EPS:
            outcomes.append(MeasurementOutcome(idx, p, None))
        else:
            outcomes.append(MeasurementOutcome(
                idx, p, BipartiteState(branch / math.sqrt(p))))
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
    condition holds on ``history`` acts on a BipartiteState, while a
    SchmidtVector passes every unitary through as the same object."""
    steps = protocol.steps
    snapshots = []
    while pos < len(steps) and not isinstance(steps[pos], LocalMeasurement):
        step = steps[pos]
        if isinstance(step, LocalUnitary) and isinstance(
                state, BipartiteState) and (
                step.condition is None or step.condition(history)):
            state = BipartiteState(_apply_operator(state.amplitudes,
                                                   step.party, step.matrix))
        snapshots.append(state)
        pos += 1
    return snapshots, pos


def _measure(step, state, tol, interned, checked):
    """One MeasurementOutcome per outcome of ``step``: a BipartiteState
    as apply_measurement gives them, a SchmidtVector from the step's exact
    monomial data, equal post vectors becoming the one object kept in
    ``interned``.  A step's operators are checked the first time a
    BipartiteState meets it and then added to ``checked``: every state of
    one run has the same shape, so that check holds for the whole run."""
    if isinstance(state, BipartiteState):
        if step not in checked:
            _checked_operators(state, step.party, step.operators, tol)
            checked.add(step)
        return _outcomes(state, step.party, step.operators)
    if step.exact is None:
        raise ProtocolError(
            "measurement lacks exact monomial data; "
            "use the amplitude-level exhaustive_run instead")
    results = []
    for idx, mono in enumerate(step.exact):
        p, post = mono.outcome(state.probs)
        if post is not None and post not in interned:
            interned[post] = SchmidtVector(post)
        results.append(MeasurementOutcome(idx, p, interned.get(post)))
    return results


def _enumerate(protocol, initial, one, branch_cap, tol=DEFAULT_TOL):
    """Every unpruned branch in history order, one level at a time, with
    probabilities multiplied left to right from ``one``.  A BipartiteState
    belongs to one branch, but equal SchmidtVectors are one object shared
    by many, so each of those is measured, or advanced, once per level."""
    steps = protocol.steps
    frontier, pos, checked = [((), one, [initial])], 0, set()
    while frontier and pos < len(steps):
        grown, shared, interned = [], {}, {}   # shared: id(state) -> result
        if isinstance(steps[pos], LocalMeasurement):
            for history, prob, states in frontier:
                outcomes = shared.get(id(states[-1]))
                if outcomes is None:
                    outcomes = _measure(steps[pos], states[-1], tol,
                                        interned, checked)
                    if isinstance(states[-1], SchmidtVector):
                        shared[id(states[-1])] = outcomes
                for out in outcomes:
                    if out.post_state is not None:
                        grown.append((history + (out.index,),
                                      prob * out.probability,
                                      states + [out.post_state]))
            pos += 1
        else:
            for history, prob, states in frontier:
                advanced = shared.get(id(states[-1]))
                if advanced is None:
                    advanced = _advance(protocol, pos, states[-1], history)
                    if isinstance(states[-1], SchmidtVector):
                        shared[id(states[-1])] = advanced
                snapshots, end = advanced
                grown.append((history, prob, states + snapshots))
            pos = end
        if len(grown) > branch_cap:
            raise BranchLimitError(
                f"branch count {len(grown)} exceeds cap {branch_cap}")
        frontier = grown
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
    exact monomial data (true of protocols built by this module), and
    local unitaries never change Schmidt coefficients, so they and the
    announcements pass through.  The initial vector must be exact.

    Equal post-measurement vectors of one step are one shared object, so
    the branches of a deterministic stage, which all land on the same
    vector, carry a single state per step boundary.
    """
    if not initial.is_exact:
        raise ProtocolError("exact run requires an exact initial vector")
    return _enumerate(protocol, initial, Fraction(1), branch_cap)


def success_probability(branches, predicate=None):
    """Total probability of branches whose history satisfies the predicate
    (all branches when predicate is None)."""
    return sum(b.probability for b in branches
               if predicate is None or predicate(b.history))


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


def _t_transform_chain(target, start):
    """T-transform chain from ``start`` down to ``target``.

    Both are exact sorted tuples with equal sums and target majorized by
    start.  Each step moves weight between exactly two positions (j, k),
    j < k, keeping the vector sorted; at most n - 1 steps are needed.
    Returns records (before, after, j, k) in construction order, walking
    from ``start`` toward ``target``.
    """
    records = []
    v = list(start)
    a = list(target)
    guard = len(v) + 1
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
        records.append((tuple(v), tuple(nxt), j, k))
        v = nxt
    return records


def _mixing_step(x, y, j, k, n, meas_index):
    """Two-outcome measurement turning sorted ``x`` into sorted ``y``
    (which differ only at positions j < k, with y_j > x_j >= x_k > y_k
    and equal pair sums), plus the outcome-1 correction on B.

    Outcome probabilities are exactly t and 1 - t with
    t = (x_j - y_k)/(y_j - y_k); both branches land exactly on ``y``.
    """
    t = (x[j] - y[k]) / (y[j] - y[k])
    u = 1 - t
    sq1 = [t] * n
    sq1[j] = t * y[j] / x[j]
    sq1[k] = t * y[k] / x[k]
    rows1 = tuple(range(n))
    sq2 = [u] * n
    sq2[j] = u * y[k] / x[j]   # column j feeds row k
    sq2[k] = u * y[j] / x[k]   # column k feeds row j
    rows2 = list(range(n))
    rows2[j], rows2[k] = k, j
    meas = LocalMeasurement(
        "A", exact=(ExactMonomial(rows1, tuple(sq1)),
                    ExactMonomial(tuple(rows2), tuple(sq2))),
        label=f"balance levels {j + 1},{k + 1}")
    correction = LocalUnitary(
        "B", np.eye(n, dtype=complex)[rows2],
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

    The chain is built in exact rational arithmetic, on the dyadic lift
    of a float vector, so majorization must hold exactly there;
    violations raise MajorizationError.
    """
    if not majorizes(alpha, gamma):
        raise MajorizationError("gamma does not majorize alpha")
    n = max(alpha.n, gamma.n)
    a = _lifted(alpha).padded(n).probs
    g = _lifted(gamma).padded(n).probs
    steps = []
    meas_index = 0
    # chain records run start -> target; execution undoes them in reverse
    for before, after, j, k in reversed(_t_transform_chain(a, g)):
        steps.extend(_mixing_step(after, before, j, k, n, meas_index))
        meas_index += 1
    return LoccProtocol(tuple(steps), success_predicate=None)


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
    accumulated since the parent measurement and the outcome-probability
    vector of the pending measurement (None once the protocol ends), with
    its running sums and the outcome each pick falls back to.  Asking for
    a node expands its unexpanded ancestors first.  ``nbytes`` counts the
    distinct amplitude matrices kept; a node that would take it past
    MAX_TREE_BYTES raises ValueError instead.
    """

    def __init__(self, protocol, initial, tol):
        self._protocol = protocol
        self._tol = tol
        self._nodes = {}
        self._checked = set()   # measurement steps whose operators passed
        self.nbytes = initial.amplitudes.nbytes
        self._root = self._make_node((), 0, initial)

    class _Node:
        __slots__ = ("states", "probs", "cumulative", "fallback", "posts",
                     "next_pos")

        def __init__(self, states, outcomes, next_pos):
            self.states = states
            self.next_pos = next_pos
            if outcomes is None:
                self.probs = self.posts = self.cumulative = self.fallback = None
                return
            self.probs = np.array([out.probability for out in outcomes])
            self.posts = posts = [out.post_state for out in outcomes]
            # running sums in order, as a per-trial ``acc += p`` loop has them
            self.cumulative = np.cumsum(self.probs)
            self.fallback = []
            for idx in range(len(posts)):
                while posts[idx] is None:   # never land on a pruned branch
                    idx -= 1
                self.fallback.append(idx)

    def _make_node(self, history, pos, state):
        steps = self._protocol.steps
        snapshots, pos = _advance(self._protocol, pos, state, history)
        states = (state, *snapshots)
        outcomes = None
        if pos < len(steps):
            outcomes = _measure(steps[pos], states[-1], self._tol, {},
                                self._checked)
        # ``state`` is already counted, and an announcement repeats a state
        fresh = {id(s): s.amplitudes.nbytes for s in (
            *snapshots, *(out.post_state for out in outcomes or ()))
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
            post = parent.posts[history[-1]]
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
    matrix.  Within a block, the rows are grouped per tree node.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    first, counts = {}, {}
    for lo in range(0, trials, _DRAW_BLOCK):
        uniforms = rng.random((min(_DRAW_BLOCK, trials - lo), n_meas))
        pending = [((), np.arange(len(uniforms)))]
        while pending:
            history, rows = pending.pop()
            node = tree.node(history)
            if node.probs is None:
                t = lo + int(rows[0])
                if t < first.get(history, trials):
                    first[history] = t
                counts[history] = counts.get(history, 0) + len(rows)
                continue
            # the first outcome whose running sum exceeds u, else the last
            picks = np.searchsorted(node.cumulative,
                                    uniforms[rows, len(history)], side="right")
            np.minimum(picks, len(node.probs) - 1, out=picks)
            sizes = np.bincount(picks, minlength=len(node.probs))
            for idx in np.flatnonzero(sizes).tolist():
                child = history + (node.fallback[idx],)
                pending.append((child, rows[picks == idx]))
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
