"""JSON interfaces: state descriptors, plan documents, run reports.

State files carry either squared Schmidt coefficients or a complex
amplitude matrix; rationals travel as strings ("108/144" or "0.4") and
parse exactly in rational mode.  Plan documents round-trip: the output
of the plan command is accepted anywhere a plan is an input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .conversion import (Breakpoints, ConversionPlan, DiagonalOperator,
                         InfeasibleConversionError, breakpoints,
                         intermediate_state, measurement_operators)
from .numeric import DEFAULT_TOL, RATIONAL, parse_scalar, scalar_to_json
from .schmidt import BipartiteState, SchmidtVector, schmidt_decompose

__all__ = [
    "StateFileError",
    "LoadedState",
    "parse_state_document",
    "load_state_file",
    "plan_to_dict",
    "plan_from_dict",
    "report_to_dict",
    "dumps",
]


class StateFileError(ValueError):
    """A state document is structurally invalid."""


@dataclass(frozen=True, eq=False)
class LoadedState:
    """Parsed state file: always a Schmidt vector, plus the amplitude
    matrix when one was supplied."""

    label: str | None
    schmidt: SchmidtVector
    state: BipartiteState | None


def _reject_constant(name):
    raise StateFileError(f"non-finite number {name} is not allowed")


def _loads(text: str):
    # floats arrive as strings so rational mode can parse them exactly;
    # the non-standard literals NaN and (-)Infinity are refused
    try:
        return json.loads(text, parse_float=str,
                          parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise StateFileError(f"invalid JSON: {err}") from err


def parse_state_document(doc, *, mode=RATIONAL, tol=DEFAULT_TOL,
                         trim=False) -> LoadedState:
    """Interpret one already-parsed state document (a dict)."""
    if not isinstance(doc, dict):
        raise StateFileError("state document must be a JSON object")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("label must be a string")
    has_sq = "schmidt_sq" in doc
    has_amp = "amplitudes" in doc
    if has_sq == has_amp:
        raise StateFileError(
            'exactly one of "schmidt_sq" or "amplitudes" must be present')
    if has_sq:
        values = doc["schmidt_sq"]
        if not isinstance(values, list) or not values:
            raise StateFileError('"schmidt_sq" must be a non-empty array')
        try:
            sv = SchmidtVector.from_values(values, mode=mode, trim=trim,
                                           tol=tol)
        except ValueError as err:
            raise StateFileError(f"bad Schmidt vector: {err}") from err
        return LoadedState(label, sv, None)
    rows = doc["amplitudes"]
    if not isinstance(rows, list) or not rows:
        raise StateFileError('"amplitudes" must be a non-empty array')
    try:
        matrix = [[complex(float(parse_scalar(re, "float")),
                           float(parse_scalar(im, "float")))
                   for re, im in row] for row in rows]
        state = BipartiteState.from_amplitudes(matrix)
    except (TypeError, ValueError) as err:
        raise StateFileError(f"bad amplitude matrix: {err}") from err
    sv = schmidt_decompose(state, trim=trim, tol=tol)
    return LoadedState(label, sv, state)


def load_state_file(path, *, mode=RATIONAL, tol=DEFAULT_TOL,
                    trim=False) -> LoadedState:
    with open(path, encoding="utf-8") as fh:
        doc = _loads(fh.read())
    return parse_state_document(doc, mode=mode, tol=tol, trim=trim)


def _scalars_out(values):
    return [scalar_to_json(v) for v in values]


def plan_to_dict(plan: ConversionPlan) -> dict:
    doc = {
        "source": _scalars_out(plan.source.probs),
        "target": _scalars_out(plan.target.probs),
        "probability": scalar_to_json(plan.probability),
    }
    if plan.breakpoints is None:
        doc.update(breakpoints=None, intermediate=None,
                   success_squared=None, failure_squared=None)
    else:
        doc["breakpoints"] = {
            "boundaries": list(plan.breakpoints.boundaries),
            "ratios": _scalars_out(plan.breakpoints.ratios),
        }
        doc["intermediate"] = _scalars_out(plan.intermediate.probs)
        doc["success_squared"] = _scalars_out(plan.success_operator.squared)
        doc["failure_squared"] = _scalars_out(plan.failure_operator.squared)
    return doc


def plan_from_dict(doc, *, mode=RATIONAL, tol=DEFAULT_TOL) -> ConversionPlan:
    """Rebuild a plan from its JSON document (round-trip of plan_to_dict)."""
    if not isinstance(doc, dict):
        raise StateFileError("plan document must be a JSON object")

    def scalars(values):
        return tuple(parse_scalar(v, mode) for v in values)

    try:
        source = SchmidtVector.from_values(doc["source"], mode=mode, tol=tol)
        target = SchmidtVector.from_values(doc["target"], mode=mode, tol=tol)
        probability = parse_scalar(doc["probability"], mode)
        bp, bp_doc = None, doc.get("breakpoints")
        if bp_doc is not None:
            bp = Breakpoints(tuple(int(b) for b in bp_doc["boundaries"]),
                             scalars(bp_doc["ratios"]))
            gamma = SchmidtVector(scalars(doc["intermediate"]))
            success = DiagonalOperator(scalars(doc["success_squared"]))
            failure = DiagonalOperator(scalars(doc["failure_squared"]))
    except KeyError as err:
        raise StateFileError(f"plan document missing key {err}") from err
    except TypeError as err:
        raise StateFileError(f"malformed plan document: {err}") from err
    # An exact pair fixes its breakpoints (none when infeasible).  A float
    # document keeps its own: its 12-digit rounding can move a near-tie
    # boundary until float mode plans on exact values (ROADMAP item 4).
    if source.is_exact and target.is_exact:
        try:
            want_bp = breakpoints(source, target, tol=tol)
        except InfeasibleConversionError:
            want_bp = None
        if bp != want_bp:
            raise StateFileError(
                "plan document is internally inconsistent: breakpoints")
    if bp is None:
        if probability != 0:
            raise StateFileError("a plan without breakpoints has "
                                 "probability 0")
        return ConversionPlan(source, target, None, None, None, None,
                              probability)
    # the document's own values are kept; they must match the breakpoints
    want_success, want_failure = measurement_operators(bp)
    for key, got, want in (
            ("intermediate", gamma.probs,
             intermediate_state(bp, target, tol=tol).probs),
            ("success_squared", success.squared, want_success.squared),
            ("failure_squared", failure.squared, want_failure.squared),
            ("probability", (probability,), bp.ratios[:1])):
        if len(got) != len(want) or (got != want and not all(
                abs(float(x) - float(y)) <= max(tol, 1e-9)
                for x, y in zip(got, want))):
            raise StateFileError(
                f"plan document is internally inconsistent: {key}")
    return ConversionPlan(source, target, bp, gamma, success, failure,
                          probability)


def report_to_dict(report) -> dict:
    from .numeric import round12
    return {
        "trials": report.trials,
        "successes": report.successes,
        "empirical": round12(report.empirical_probability),
        "std_error": round12(report.std_error),
        "predicted": (None if report.predicted is None
                      else scalar_to_json(report.predicted)),
        "seed": report.seed,
        "audit": [{"step": s, "k": k, "avg_E": round12(v)}
                  for s, k, v in report.monotone_audit],
    }


def dumps(doc) -> str:
    """Stable JSON rendering used by all commands.

    Keys are sorted and stray scalar types (rationals, numpy numbers)
    serialize through the same rule as everything else.
    """
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=scalar_to_json) + "\n"
