"""Stdlib reference for what the benchmark checks and how it picks inputs.

Nothing here imports the package under test.  The closed form is the
minimum tail ratio over Fractions; the intermediate state and the
T-transform chain follow their textbook definitions (Vidal's segment
construction, Nielsen's majorization chain) so the benchmark can both
check outputs and stratify generated pairs by the work they cause.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def tails(v):
    """Suffix sums: tails(v)[l - 1] = sum of v[i] for i >= l (1-based l)."""
    out = []
    run = Fraction(0)
    for x in reversed(v):
        run += x
        out.append(run)
    return out[::-1]


def closed_form(alpha, beta):
    """(P, l) with P = min over l of tail_alpha(l) / tail_beta(l).

    Tails where beta carries no weight impose no constraint; l is the
    smallest minimizer.
    """
    n = max(len(alpha), len(beta))
    a = list(alpha) + [Fraction(0)] * (n - len(alpha))
    b = list(beta) + [Fraction(0)] * (n - len(beta))
    best = best_l = None
    for l, (ta, tb) in enumerate(zip(tails(a), tails(b)), start=1):
        if tb == 0:
            continue
        ratio = ta / tb
        if best is None or ratio < best:
            best, best_l = ratio, l
    return best, best_l


def intermediate(alpha, beta):
    """State the deterministic stage aims for: each segment of beta scaled
    by its tail ratio.  Segments come from repeatedly taking the smallest
    minimizer of the tail ratio over the still unresolved head range.
    Equal-length vectors with nonzero entries only."""
    gamma = list(beta)
    upper = len(beta)
    while upper > 0:
        best = best_l = None
        ta = tb = Fraction(0)
        for l in range(upper, 0, -1):
            ta += alpha[l - 1]
            tb += beta[l - 1]
            ratio = ta / tb
            if best is None or ratio <= best:
                best, best_l = ratio, l
        for i in range(best_l - 1, upper):
            gamma[i] = best * beta[i]
        upper = best_l - 1
    return gamma


def chain_length(alpha, gamma):
    """Number of T-transforms that carry gamma down to alpha (alpha is
    majorized by gamma).  Each moves weight between the last position where
    gamma exceeds alpha and the first later one where it falls short."""
    v = list(gamma)
    a = list(alpha)
    steps = 0
    while v != a:
        j = max(i for i in range(len(v)) if a[i] < v[i])
        k = next(i for i in range(j + 1, len(v)) if a[i] > v[i])
        delta = min(v[j] - a[j], a[k] - v[k])
        v[j] -= delta
        v[k] += delta
        steps += 1
    return steps


def tensor_power(v, copies):
    """Sorted squared Schmidt coefficients of ``copies`` copies of v."""
    return sorted((math.prod(c) for c in itertools.product(v, repeat=copies)),
                  reverse=True)


def entropy_bits(v):
    return -sum(float(p) * math.log2(float(p)) for p in v if p > 0)


def within_sigmas(empirical, p, trials, sigmas=5):
    """True when a sampled frequency lies within ``sigmas`` binomial
    standard errors of the exact probability p."""
    sd = math.sqrt(float(p * (1 - p)) / trials)
    return abs(empirical - float(p)) <= sigmas * sd
