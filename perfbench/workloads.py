"""Seeded inputs for the two benchmark workloads.

``build(workload, seed)`` returns the state files and the op list of one
pass.  Everything is drawn from one ``random.Random`` keyed by the workload
and the seed, so the same seed gives byte-identical files and ops.  A state is a random integer vector
normalised over Fractions, written as exact strings; the program only
ever sees these files.

Where an op's cost grows like 2**m with the protocol's measurement count
m, pairs are drawn until m hits a fixed ladder (counted by the stdlib
reference, not by the program).  Otherwise one unlucky seed with a few
m = n - 1 pairs would set the pass time, and seeds would not compare.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference

WORKLOADS = ("query", "simulate")

# Why each workload exists; BENCHMARK.json carries a one-line form.  The
# exhaustive, sampled and float simulations share one workload, and float
# planning rides with the query path: on a shared 2-vCPU Xeon host a run
# must last about a minute for its timings to steady, and a full
# measurement (ten seeds per workload, twice, plus traced runs) should fit
# in an hour.
RATIONALE = {
    "query": (
        "prob, compare, plan and monotones on exact pairs at 32 sizes from "
        "n = 4 to 256, tensor --copies 2|3 at n in {3, 4, 8}, and --mode "
        "float prob and plan at 16 sizes from n = 16 to 256: the read-only "
        "path through cli/io/conversion/monotones/ordering/schmidt in both "
        "numeric modes.  It never touches locc, so it is the control for "
        "every locc change, and its n > 100 ops expose the O(n^2) "
        "monotone_profile."),
    "simulate": (
        "Every route through locc.  (1) simulate --exhaustive --no-fallback "
        "on exact pairs at n in {6, 8, 10} with measurement count m from 1 "
        "to 3, so up to 2^(m+1) = 16 branches: exact enumeration and the "
        "monotone audit; larger m and n >= 16 take from 0.05 s (m = 4) to "
        "hours per op today, and the 2^m redundancy shows in "
        "locc.distinct_ratio.  (2) simulate --trials 1000|2000 --seed s "
        "(Monte-Carlo) on exact pairs at n in {3..8} with m from 1 to 3: the "
        "per-trial sampler loop and the audit's SVDs.  (3) --mode float "
        "simulate --exhaustive --no-fallback at n in {4, 6}, the only "
        "route to the amplitude engine: n = 4 pairs are unrestricted, so "
        "float mode's exit-1 refusals show at their natural rate; the n = 6 "
        "pair is a certain conversion (one segment), because on "
        "multi-segment pairs rounding decides whether an op takes 2 ms or "
        "500 ms, which would make the run time a coin toss.  n = 8 (one "
        "certain pair took 0.6 s, a fifth of a pass) is left out so that "
        "every op gets many runs at full CPU speed."),
}


def log_grid(lo, hi, count):
    """``count`` sizes spaced evenly in log from lo to hi, both included."""
    return tuple(round(lo * (hi / lo) ** (i / (count - 1)))
                 for i in range(count))


# Every workload has at least 100 ops per pass, each on its own pair, so
# that p90 has ten ops beyond it and no single pair sets a percentile.  A
# pass takes 1 to 1.5 s at full speed on a 2-vCPU Xeon, and no op takes
# more than 0.1 s, so that within a run every op gets many runs at the
# moments the shared host gives the CPU its full speed.
# Sizes sit on a fixed grid, the same for every seed: with a few distinct
# sizes the median op would fall on the edge between two of them and
# jump from seed to seed.
QUERY_SIZES = log_grid(4, 256, 32)
TENSOR_SIZES = (3, 4, 8)
TENSOR_PAIRS = 3
EXHAUSTIVE_SIZES = (6, 8, 10)
EXHAUSTIVE_PAIRS = (8, 5, 2)  # per n, for m = 1, 2, ...: fewer where
                              # an op costs more (2^(m+1) branches)
SAMPLE_SIZES = (3, 4, 5, 6, 7, 8)
SAMPLE_MAX_M = 3
SAMPLE_PAIRS = 2               # per (n, m)
SAMPLE_TRIALS = (1000, 2000)
FLOAT_PLAN_SIZES = log_grid(16, 256, 16)
FLOAT_FREE_PAIRS = 24          # unrestricted n = 4 pairs
FLOAT_CERTAIN = ((6, 1),)      # (n, pairs) of certain conversions

DRAW_LIMIT = 20000


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` names state files relative to the input
    directory; ``states`` holds the exact vectors behind them in order."""

    kind: str
    argv: tuple
    states: tuple
    copies: int = 0
    trials: int = 0


def vector(rng, n, top=1000):
    """Random sorted squared Schmidt coefficients with no zero entry."""
    xs = sorted((rng.randint(1, top) for _ in range(n)), reverse=True)
    total = sum(xs)
    return tuple(Fraction(x, total) for x in xs)


def measurements(a, b):
    """T-transforms in the optimal protocol's deterministic stage."""
    return reference.chain_length(a, reference.intermediate(a, b))


def pair(rng, n, *, certain=False):
    """Random (source, target) of size n; with ``certain``, drawn until the
    conversion is certain with n - 1 measurements (target majorizes
    source; a single segment)."""
    for _ in range(DRAW_LIMIT):
        a, b = vector(rng, n), vector(rng, n)
        if not certain or (reference.closed_form(a, b)[0] == 1
                           and measurements(a, b) == n - 1):
            return a, b
    raise RuntimeError(f"no certain pair with n={n} in {DRAW_LIMIT} draws")


def ladder(rng, n, quotas):
    """quotas[m - 1] random pairs of size n whose protocol has m
    measurements, for each m, in order of m.  Each draw fills whichever
    rung it fits."""
    rungs = {m: [] for m in range(1, len(quotas) + 1)}
    for _ in range(DRAW_LIMIT):
        if all(len(rungs[m]) == q for m, q in enumerate(quotas, start=1)):
            return [p for m in rungs for p in rungs[m]]
        a, b = vector(rng, n), vector(rng, n)
        m = measurements(a, b)
        if m in rungs and len(rungs[m]) < quotas[m - 1]:
            rungs[m].append((a, b))
    raise RuntimeError(f"ladder {quotas} at n={n} not filled in "
                       f"{DRAW_LIMIT} draws")


class _Builder:
    def __init__(self):
        self.files = {}
        self.names = {}
        self.ops = []

    def state(self, v):
        name = self.names.get(v)
        if name is None:
            name = self.names[v] = f"s{len(self.files):03d}.json"
            self.files[name] = json.dumps({"schmidt_sq": [str(x) for x in v]})
        return name

    def add(self, kind, args, states, flags=(), **extra):
        names = [self.state(v) for v in states]
        self.ops.append(Op(kind, (args[0], *names, *args[1:], *flags),
                           tuple(states), **extra))


def _query(rng, out):
    for n in QUERY_SIZES:
        a, b = pair(rng, n)
        out.add("prob", ["prob"], (a, b))
        out.add("compare", ["compare"], (a, b))
        out.add("plan", ["plan"], (a, b))
        out.add("monotones", ["monotones"], (a,))
    for n in TENSOR_SIZES:
        for _ in range(TENSOR_PAIRS):
            a, b = pair(rng, n)
            for copies in (2, 3):
                out.add("tensor", ["tensor", "--copies", str(copies)], (a, b),
                        copies=copies)
    flags = ("--mode", "float")
    for n in FLOAT_PLAN_SIZES:
        a, b = pair(rng, n)
        out.add("float-prob", ["prob"], (a, b), flags)
        out.add("float-plan", ["plan"], (a, b), flags)


def _simulate(rng, out):
    _exhaustive(rng, out)
    _sample(rng, out)
    _float_simulate(rng, out)


def _exhaustive(rng, out):
    for n in EXHAUSTIVE_SIZES:
        for states in ladder(rng, n, EXHAUSTIVE_PAIRS):
            out.add("exhaustive",
                    ["simulate", "--exhaustive", "--no-fallback"],
                    states)


def _sample(rng, out):
    for n in SAMPLE_SIZES:
        quotas = (SAMPLE_PAIRS,) * min(n - 1, SAMPLE_MAX_M)
        for i, states in enumerate(ladder(rng, n, quotas)):
            trials = SAMPLE_TRIALS[i % len(SAMPLE_TRIALS)]
            out.add("sample", ["simulate", "--trials", str(trials), "--seed",
                               str(rng.randrange(2**31))],
                    states, trials=trials)


def _float_simulate(rng, out):
    flags = ("--mode", "float")
    sim = ["simulate", "--exhaustive", "--no-fallback"]
    for _ in range(FLOAT_FREE_PAIRS):
        out.add("float-simulate", sim, pair(rng, 4), flags)
    for n, count in FLOAT_CERTAIN:
        for _ in range(count):
            out.add("float-simulate", sim, pair(rng, n, certain=True), flags)


_MAKERS = {"query": _query, "simulate": _simulate}


def build(workload, seed):
    """(files, ops) of one pass: files maps name -> JSON text."""
    out = _Builder()
    _MAKERS[workload](random.Random(f"{workload}:{seed}"), out)
    return out.files, out.ops


def main(argv=None):
    """Set-up as a CLI user pays it: a fresh interpreter imports the CLI
    and writes one workload's state files.  Prints the two timings."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    started = time.perf_counter()
    import entconvert.cli  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    files, _ = build(args.workload, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - started,
                      "inputs_s": done - imported}))


if __name__ == "__main__":
    main()
