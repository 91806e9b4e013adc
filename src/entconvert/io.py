"""JSON interfaces: state descriptors, plan documents, run reports.

State files carry either squared Schmidt coefficients or a complex
amplitude matrix; rationals travel as strings ("108/144" or "0.4") and
parse exactly in rational mode.  Plan documents round-trip: the output
of the plan command is accepted anywhere a plan is an input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .conversion import ConversionPlan, build_plan
from .numeric import (DEFAULT_TOL, RATIONAL, parse_scalar, round12,
                      scalar_to_json)
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


def plan_to_dict(plan: ConversionPlan) -> dict:
    """JSON image of a plan; one built from float inputs renders every
    value, exact ones included, as a 12-significant-digit float."""
    exact = plan.is_exact

    def out(values):
        return [scalar_to_json(v if exact else float(v)) for v in values]

    doc = {
        "source": out(plan.source.probs),
        "target": out(plan.target.probs),
        "probability": out((plan.probability,))[0],
    }
    if plan.breakpoints is None:
        doc.update(breakpoints=None, intermediate=None,
                   success_squared=None, failure_squared=None)
    else:
        doc["breakpoints"] = {
            "boundaries": list(plan.breakpoints.boundaries),
            "ratios": out(plan.breakpoints.ratios),
        }
        doc["intermediate"] = out(plan.intermediate.probs)
        doc["success_squared"] = out(plan.success_operator.squared)
        doc["failure_squared"] = out(plan.failure_operator.squared)
    return doc


def plan_from_dict(doc, *, mode=RATIONAL, tol=DEFAULT_TOL) -> ConversionPlan:
    """Rebuild a plan from its JSON document (round-trip of plan_to_dict).

    The plan is built anew from the document's source and target, and
    every other field must agree with it: the boundaries always exactly,
    the values exactly in an exact document and within max(tol, 1e-9)
    in a float one, whose values were rounded on the way out.
    """
    if not isinstance(doc, dict):
        raise StateFileError("plan document must be a JSON object")

    def scalars(values):
        return tuple(parse_scalar(v, mode) for v in values)

    try:
        source = SchmidtVector.from_values(doc["source"], mode=mode, tol=tol)
        target = SchmidtVector.from_values(doc["target"], mode=mode, tol=tol)
        got, bp_doc = {}, doc.get("breakpoints")
        if bp_doc is not None:
            got["boundaries"] = tuple(int(b) for b in bp_doc["boundaries"])
            got["ratios"] = scalars(bp_doc["ratios"])
            for key in ("intermediate", "success_squared", "failure_squared"):
                got[key] = scalars(doc[key])
        got["probability"] = scalars((doc["probability"],))
    except KeyError as err:
        raise StateFileError(f"plan document missing key {err}") from err
    except TypeError as err:
        raise StateFileError(f"malformed plan document: {err}") from err
    plan, slack = build_plan(source, target), max(tol, DEFAULT_TOL)
    want = {"probability": (plan.probability,)}
    if plan.breakpoints is not None:
        want.update(boundaries=plan.breakpoints.boundaries,
                    ratios=plan.breakpoints.ratios,
                    intermediate=plan.intermediate.probs,
                    success_squared=plan.success_operator.squared,
                    failure_squared=plan.failure_operator.squared)

    def agree(key):
        x, y = got.get(key), want.get(key)
        return x == y or (not plan.is_exact and x is not None
                          and y is not None
                          and len(x) == len(y) and all(
                              abs(float(a) - float(b)) <= slack
                              for a, b in zip(x, y)))

    # the pair fixes its breakpoints (none when infeasible)
    if not (agree("boundaries") and agree("ratios")):
        raise StateFileError(
            "plan document is internally inconsistent: breakpoints")
    for key in got:
        if not agree(key):
            raise StateFileError(
                f"plan document is internally inconsistent: {key}")
    return plan


def report_to_dict(report) -> dict:
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
