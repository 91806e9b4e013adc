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
from .numeric import (DEFAULT_TOL, FLOAT, RATIONAL, parse_ratios,
                      parse_scalar, round12, scalar_to_json, values_to_json)
from .schmidt import BipartiteState, SchmidtVector, schmidt_decompose

__all__ = [
    "StateFileError",
    "LoadedState",
    "parse_state_document",
    "load_state_file",
    "plan_to_dict",
    "plan_from_dict",
    "report_to_dict",
    "Audit",
    "dumps",
]


class StateFileError(ValueError):
    """A state document is structurally invalid."""


class Audit:
    """A run's audit as the engines' ``levels``, rendered as a JSON array
    of {"step", "k", "avg_E"} objects, avg_E = round12(numerator k - 1 /
    denominator), step-major if ``step_major``, else k-major; a plain
    class, as a dataclass slows the import."""

    def __init__(self, levels, step_major):
        self.levels, self.step_major = levels, step_major


_CONTAINERS = (list, tuple, dict, Audit)


@dataclass(frozen=True, eq=False)
class LoadedState:
    """Parsed state file: always a Schmidt vector, plus the amplitude
    matrix when one was supplied."""

    label: str | None
    schmidt: SchmidtVector
    state: BipartiteState | None


def _reject_constant(name):
    raise StateFileError(f"non-finite number {name} is not allowed")


# floats arrive as strings so rational mode can parse them exactly; the
# non-standard literals NaN and (-)Infinity are refused
_DECODER = json.JSONDecoder(parse_float=str, parse_constant=_reject_constant)


def _loads(text: str):
    try:
        if text.startswith("\ufeff"):   # as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except StateFileError:
        raise
    except json.JSONDecodeError as err:
        raise StateFileError(f"invalid JSON: {err}") from err
    except RecursionError as err:
        raise StateFileError("invalid JSON: nested too deeply") from err
    except ValueError as err:   # an integer past Python's digit limit
        raise StateFileError("invalid JSON: integer too long") from err


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
        values = _array(doc["schmidt_sq"], '"schmidt_sq"')
        try:
            sv = SchmidtVector.from_values(values, mode=mode, trim=trim,
                                           tol=tol)
        except ValueError as err:
            raise StateFileError(f"bad Schmidt vector: {err}") from err
        return LoadedState(label, sv, None)
    rows = _array(doc["amplitudes"], '"amplitudes"')
    for i, row in enumerate(rows):
        for j, pair in enumerate(row if isinstance(row, list) else [row]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise StateFileError(f'"amplitudes" row {i}, column {j} '
                                     'must be an [re, im] pair')
    try:
        matrix = [[complex(*parse_ratios((re, im), FLOAT)) for re, im in row]
                  for row in rows]
        state = BipartiteState(matrix)
    except (TypeError, ValueError) as err:
        raise StateFileError(f"bad amplitude matrix: {err}") from err
    sv = schmidt_decompose(state, trim=trim, tol=tol)
    return LoadedState(label, sv, state)


def _array(values, name):
    """``values``, refused as ``name`` unless a non-empty JSON array."""
    if not isinstance(values, list) or not values:
        raise StateFileError(f"{name} must be a non-empty array")
    return values


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
        "source": values_to_json(plan.source, exact),
        "target": values_to_json(plan.target, exact),
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
        doc["intermediate"] = values_to_json(plan.intermediate, exact)
        doc["success_squared"] = values_to_json(plan.success_operator, exact)
        doc["failure_squared"] = values_to_json(plan.failure_operator, exact)
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
        source, target = (SchmidtVector.from_values(
            _array(doc[key], f"malformed plan document: {key}"), mode=mode,
            tol=tol) for key in ("source", "target"))
        got, bp_doc = {}, doc.get("breakpoints")
        if bp_doc is not None:
            if not isinstance(bp_doc, dict):
                raise StateFileError("malformed plan document: breakpoints "
                                     "must be an object or null")
            bounds = bp_doc["boundaries"]
            if not (isinstance(bounds, list)
                    and all(type(b) is int for b in bounds)):
                raise StateFileError(
                    "malformed plan document: breakpoints.boundaries must "
                    "be an array of integers")
            got["boundaries"] = tuple(bounds)
            got["ratios"] = scalars(_array(
                bp_doc["ratios"],
                "malformed plan document: breakpoints.ratios"))
            for key in ("intermediate", "success_squared", "failure_squared"):
                got[key] = scalars(_array(doc[key],
                                          f"malformed plan document: {key}"))
        got["probability"] = scalars((doc["probability"],))
    except KeyError as err:
        raise StateFileError(f"plan document missing key {err}") from err
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
        "audit": Audit(report.levels, True),
    }


def dumps(doc) -> str:
    """Stable JSON rendering used by all commands: ``json.dumps(doc,
    indent=2, sort_keys=True, default=scalar_to_json)`` and a newline,
    made by json's C encoder; an Audit renders as its rows as dicts, a
    level at a time (_audit).  The pieces go into one list, joined
    once."""
    out = []
    _render(doc, "", out)
    out.append("\n")
    return "".join(out)


_ENCODERS = {}   # item separator -> encoder; one per indent depth


def _encode(sep, doc):   # unindented, so by json's C encoder
    if sep not in _ENCODERS:
        _ENCODERS[sep] = json.JSONEncoder(
            separators=(sep, ": "), sort_keys=True, default=scalar_to_json)
    return _ENCODERS[sep].encode(doc)


def _render(doc, pad, out):
    """Appends the pieces of ``doc`` at indent ``pad`` to ``out``: one
    encoder call, the newline and indent in its item separator (encoded
    strings escape newlines), for a container of scalars, or per level
    of an Audit (_audit)."""
    sep = ",\n" + (inner := pad + "  ")
    if isinstance(doc, Audit):
        return _audit(doc, pad, out)
    if not isinstance(doc, _CONTAINERS) or not doc:
        out.append(_encode(sep, doc))
        return
    kinds = set(map(type, doc.values() if isinstance(doc, dict) else doc))
    if not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        text = _encode(sep, doc)
        out += (text[0], "\n", inner, text[1:-1], "\n", pad, text[-1])
        return
    # each container stands in as 0, then is rendered on its own
    if isinstance(doc, dict):
        text = _encode(sep, {k: 0 if isinstance(v, _CONTAINERS) else v
                             for k, v in doc.items()})
        doc = [v for _, v in sorted(doc.items())]
    else:
        text = _encode(sep, [0 if isinstance(v, _CONTAINERS) else v
                             for v in doc])
    out += (text[0], "\n", inner)
    for i, (part, v) in enumerate(zip(text[1:-1].split(sep), doc)):
        if i:
            out.append(sep)
        if isinstance(v, _CONTAINERS):
            out.append(part[:-1])
            _render(v, inner, out)
        else:
            out.append(part)
    out += ("\n", pad, text[-1])


def _audit(audit, pad, out):   # the array of an Audit; see dumps
    levels = audit.levels
    if not levels or not (n := len(levels[0][0][0])):
        out.append("[]")
        return
    # each level's averages rounded once, and all encoded in one call
    texts = _encode("\n", [round12(x / den) for (nums, den), _ in levels
                           for x in nums])[1:-1].split("\n")
    sep, key = ",\n" + (inner := pad + "  "), ",\n" + inner + "  "
    # the row of one (level, k), its step a NUL, which no encoded text has
    row = f'{{{key[1:]}"avg_E": %s{key}"k": %d{key}"step": \0\n{inner}}}'
    # per level, its step boundaries as text
    count = map(str, range(sum(span for _, span in levels)))
    steps = [[next(count) for _ in range(span)] for _, span in levels]
    out.append("[\n" + inner)
    if audit.step_major:
        # a level's steps differ in the step alone: its rows, once, in
        # pieces joined by each step in turn
        for i, level in enumerate(steps):
            pieces = sep.join([row % (text, k) for k, text in enumerate(
                texts[i * n:i * n + n], 1)]).split("\0")
            for step in level:
                out += (step.join(pieces), sep)
    else:
        # the rows of one (level, k) differ in the step alone
        for k in range(n):
            for i, level in enumerate(steps):
                head, tail = (row % (texts[i * n + k], k + 1)).split("\0")
                out += (head + (tail + sep + head).join(level) + tail, sep)
    out[-1] = "\n" + pad + "]"
