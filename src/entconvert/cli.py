"""Command-line interface.

Subcommands: prob, plan, simulate, monotones, compare, tensor, demo.
Machine-readable JSON goes to stdout (demos print aligned text tables);
--out writes the same document to a file.  Exit codes: 0 success,
1 invalid input, 2 infeasible request.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import io as eio
from .conversion import (InfeasibleConversionError, build_plan,
                         multi_copy_bound, optimal_probability,
                         optimal_probability_detail,
                         tensor_conversion_probability)
from .locc import (_check_plan_audit_size, build_full_protocol,
                   merged_run_exact, merged_sample_exact)
from .monotones import entropy_of_entanglement, monotone_profile
from .numeric import FLOAT, RATIONAL, round12, scalar_to_json
from .ordering import (INTRANSITIVE_TRIPLE, SUPERMULTIPLICATIVE_PAIR,
                       compare, find_cycle, nonadditivity_search)
from .schmidt import (InvalidStateError, SchmidtVector, _lifted, _typed,
                      tensor_power)

DEMO_NAMES = ("paper-cycle", "non-additivity", "lo-popescu", "multi-copy")


def _tolerance(text):
    """--tolerance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return value


def _common_flags(parser):
    parser.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL,
                        help="numeric mode for parsing inputs "
                             "(default: rational, exact where possible)")
    parser.add_argument("--tolerance", type=_tolerance, default=1e-9,
                        help="float slack on load (negative entries, "
                             "--trim-zeros) and, in simulate, when a float "
                             "plan document is compared with its recomputed "
                             "plan; a finite number >= 0 (default 1e-9)")
    parser.add_argument("--trim-zeros", action="store_true",
                        help="drop trailing (near-)zero Schmidt entries on load")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the output document to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entconvert",
        description="Optimal single-copy conversion between bipartite "
                    "pure entangled states under LOCC.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="optimal conversion probability")
    p.add_argument("source")
    p.add_argument("target")
    _common_flags(p)

    p = sub.add_parser("plan", help="full conversion plan as JSON")
    p.add_argument("source")
    p.add_argument("target")
    _common_flags(p)

    p = sub.add_parser("simulate", help="run the optimal protocol")
    p.add_argument("source", nargs="?")
    p.add_argument("target", nargs="?")
    p.add_argument("--plan", metavar="PATH",
                   help="use a previously saved plan document instead of "
                        "source/target state files")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate every branch instead of sampling")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (must be >= 1 when "
                        "sampling); sampling runs in one thread and "
                        "results are identical for any value")
    p.add_argument("--no-fallback", action="store_true",
                   help="accepted for compatibility; no effect, since "
                        "--exhaustive is never capped")
    _common_flags(p)

    p = sub.add_parser("monotones", help="monotone profile and entropy")
    p.add_argument("state")
    _common_flags(p)

    p = sub.add_parser("compare", help="two-way conversion comparison")
    p.add_argument("first")
    p.add_argument("second")
    _common_flags(p)

    p = sub.add_parser("tensor", help="joint many-copy conversion probability")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--copies", type=int, default=2)
    _common_flags(p)

    p = sub.add_parser("demo", help="built-in worked examples")
    p.add_argument("name", choices=DEMO_NAMES)
    _common_flags(p)

    return parser


def _emit(text: str, args) -> None:
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path, args) -> eio.LoadedState:
    return eio.load_state_file(path, mode=args.mode, tol=args.tolerance,
                               trim=args.trim_zeros)


def _prob_pair(value):
    """JSON pair for a probability: exact string where possible + decimal."""
    return scalar_to_json(value), round12(float(value))


def cmd_prob(args) -> int:
    alpha = _load(args.source, args).schmidt
    beta = _load(args.target, args).schmidt
    p, minimizer = optimal_probability_detail(alpha, beta)
    exact, decimal = _prob_pair(p)
    feasible = decimal > 0.0
    doc = {
        "probability": exact,
        "probability_decimal": decimal,
        "minimizer": minimizer,
        "feasible": feasible,
        "reason": (None if feasible else
                   "target has more nonzero Schmidt coefficients than source"),
        "source_monotones": [scalar_to_json(v) for v in
                             monotone_profile(alpha).values],
        "target_monotones": [scalar_to_json(v) for v in
                             monotone_profile(beta).values],
    }
    _emit(eio.dumps(doc), args)
    return 0


def cmd_plan(args) -> int:
    alpha = _load(args.source, args).schmidt
    beta = _load(args.target, args).schmidt
    plan = build_plan(alpha, beta)
    _emit(eio.dumps(eio.plan_to_dict(plan)), args)
    return 0


def _resolve_plan(args):
    if args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            doc = eio._loads(fh.read())
        return eio.plan_from_dict(doc, mode=args.mode, tol=args.tolerance)
    if not args.source or not args.target:
        raise InvalidStateError(
            "simulate needs either SOURCE and TARGET files or --plan")
    alpha = _load(args.source, args).schmidt
    beta = _load(args.target, args).schmidt
    return build_plan(alpha, beta)


def _exhaustive_doc(plan, protocol, initial) -> dict:
    """The exhaustive report: histories merged, never capped."""
    run = merged_run_exact(protocol, initial)
    exact, decimal = _prob_pair(_typed(run.success_probability, plan.source))
    return {
        "mode": "exhaustive",
        "branches": run.branches,
        "success_probability": exact,
        "success_probability_decimal": decimal,
        "predicted": scalar_to_json(plan.probability),
        "audit": [{"step": s, "k": k, "avg_E": round12(v)}
                  for k, avgs in enumerate(run.float_table(), start=1)
                  for s, v in enumerate(avgs)],
    }


def cmd_simulate(args) -> int:
    plan = _resolve_plan(args)
    if not plan.is_feasible:
        raise InfeasibleConversionError(
            "conversion probability is 0 (target has more nonzero Schmidt "
            "coefficients than source); nothing to simulate")
    if not args.exhaustive:
        if args.trials < 1:
            raise ValueError("trials must be positive")
        if args.workers < 1:
            raise ValueError("workers must be positive")
    _check_plan_audit_size(plan)
    protocol = build_full_protocol(plan)
    # every run is exact: a float plan's on the dyadic lift it was planned on
    initial = _lifted(plan.source)
    if args.exhaustive:
        doc = _exhaustive_doc(plan, protocol, initial)
    else:
        report = merged_sample_exact(protocol, initial, args.trials,
                                     args.seed, predicted=plan.probability)
        doc = {"mode": "monte_carlo", **eio.report_to_dict(report)}
    _emit(eio.dumps(doc), args)
    return 0


def cmd_monotones(args) -> int:
    loaded = _load(args.state, args)
    profile = monotone_profile(loaded.schmidt)
    doc = {
        "label": loaded.label,
        "n": loaded.schmidt.n,
        "schmidt_sq": [scalar_to_json(v) for v in loaded.schmidt.probs],
        "monotones": [scalar_to_json(v) for v in profile.values],
        "entropy_bits": round12(entropy_of_entanglement(loaded.schmidt)),
    }
    _emit(eio.dumps(doc), args)
    return 0


def cmd_compare(args) -> int:
    first = _load(args.first, args).schmidt
    second = _load(args.second, args).schmidt
    result = compare(first, second)
    doc = {
        "p_forward": scalar_to_json(result.p_forward),
        "p_backward": scalar_to_json(result.p_backward),
        "verdict": result.verdict,
    }
    _emit(eio.dumps(doc), args)
    return 0


def cmd_tensor(args) -> int:
    alpha = _load(args.source, args).schmidt
    beta = _load(args.target, args).schmidt
    if args.copies < 1:
        raise InvalidStateError("--copies must be a positive integer")
    # decided on exact values: float inputs through their dyadic lifts
    a, b = _lifted(alpha), _lifted(beta)
    p1 = optimal_probability(a, b)
    pn = tensor_conversion_probability(a, b, args.copies)
    power = p1 ** args.copies
    shown = [scalar_to_json(_typed(p, alpha, beta)) for p in (p1, power, pn)]
    doc = {
        "copies": args.copies,
        "single_copy": shown[0],
        "single_copy_power": shown[1],
        "joint": shown[2],
        "joint_beats_power": pn > power,
    }
    _emit(eio.dumps(doc), args)
    return 0


def _fmt_prob(p) -> str:
    return f"{scalar_to_json(p)} (~{float(p):.6f})"


def _demo_cycle() -> str:
    states = INTRANSITIVE_TRIPLE
    lines = ["Intransitivity of the pairwise conversion ordering", ""]
    raw = ((108, 12, 12, 12), (66, 66, 6, 6), (47, 47, 47, 3))
    for i, nums in enumerate(raw, start=1):
        entries = ", ".join(f"{x}/144" for x in nums)
        lines.append(f"  state {i}: ({entries})")
    lines.append("")
    lines.append("  directed optimal conversion probabilities:")
    for a in range(3):
        for b in range(3):
            if a != b:
                p = optimal_probability(states[a], states[b])
                lines.append(f"    P({a + 1} -> {b + 1}) = {_fmt_prob(p)}")
    cyc = find_cycle(states)
    lines.append("")
    for a, b in zip(cyc, cyc[1:]):
        lines.append(f"  state {a + 1} is strictly less entangled than "
                     f"state {b + 1}")
    pretty = " < ".join(str(i + 1) for i in cyc)
    lines.append(f"  cycle: {pretty}")
    lines.append("")
    return "\n".join(lines)


def _demo_nonadditivity() -> str:
    alpha, beta = SUPERMULTIPLICATIVE_PAIR
    found = nonadditivity_search([(alpha, beta)])
    inst = found[0]
    lines = [
        "Two-copy conversion beats two independent single copies",
        "",
        f"  source: ({', '.join(str(p) for p in alpha.probs)})",
        f"  target: ({', '.join(str(p) for p in beta.probs)})",
        "",
        f"  single copy:        P = {_fmt_prob(inst.p_single)}",
        f"  two independent:    P^2 = {_fmt_prob(inst.p_single_squared)}",
        f"  two jointly:        P(2 copies) = {_fmt_prob(inst.p_pair)}",
        "",
        "  joint processing strictly wins.",
        "",
    ]
    return "\n".join(lines)


def _demo_lo_popescu() -> str:
    bell = SchmidtVector((Fraction(1, 2), Fraction(1, 2)))
    lines = [
        "Two-level target: optimal probability is min(1, 2*alpha_min)",
        "",
        "  alpha_min    P(source -> balanced pair)    2*alpha_min",
    ]
    for num in range(1, 11):
        amin = Fraction(num, 20)
        source = SchmidtVector((1 - amin, amin))
        p = optimal_probability(source, bell)
        expect = min(Fraction(1), 2 * amin)
        assert p == expect
        lines.append(f"  {str(amin):>9}    {str(p):>12}"
                     f"{'':14}{str(2 * amin):>11}")
    lines.append("")
    lines.append("  matches the closed form at every grid point.")
    lines.append("")
    return "\n".join(lines)


def _demo_multi_copy() -> str:
    alpha = SchmidtVector((Fraction(4, 5), Fraction(1, 5)))
    beta = SchmidtVector((Fraction(1, 2), Fraction(1, 2)))
    bound = multi_copy_bound(alpha, beta)
    p_double = optimal_probability(alpha, tensor_power(beta, 2))
    lines = [
        "Extracting several target copies from one source copy",
        "",
        f"  source: ({', '.join(str(p) for p in alpha.probs)}),"
        f"  target: ({', '.join(str(p) for p in beta.probs)})",
        f"  single copy: P = {_fmt_prob(optimal_probability(alpha, beta))}",
        "",
        "  the source has 2 nonzero coefficients; a pair of targets needs 4,",
        f"  so P(source -> target x target) = {_fmt_prob(p_double)} exactly,",
        "  and the same holds for every larger number of target copies.",
        "",
        "  with fewer source levels than the square of the target's, the",
        "  expected target yield per source copy can never beat the",
        f"  one-at-a-time ceiling m_max = {_fmt_prob(bound.m_max)}"
        f"  (regime: {bound.regime})",
        "",
    ]
    return "\n".join(lines)


def cmd_demo(args) -> int:
    text = {
        "paper-cycle": _demo_cycle,
        "non-additivity": _demo_nonadditivity,
        "lo-popescu": _demo_lo_popescu,
        "multi-copy": _demo_multi_copy,
    }[args.name]()
    _emit(text, args)
    return 0


_HANDLERS = {
    "prob": cmd_prob,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "monotones": cmd_monotones,
    "compare": cmd_compare,
    "tensor": cmd_tensor,
    "demo": cmd_demo,
}
_PARSER = build_parser()   # parse_args leaves it unchanged, so build once


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unparsable arguments; that code is reserved
        # for infeasible requests here, so bad arguments report as 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except InfeasibleConversionError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 2
    except (eio.StateFileError, InvalidStateError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
