"""Shared random-object generators for the test suite.

Everything takes an explicit numpy Generator so each test controls its
own seed.  Rational vectors are built from random integer loads, which
keeps every downstream identity checkable in exact arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from entconvert import (BipartiteState, DensityOperator,
                        InfeasibleConversionError, InvalidStateError,
                        SchmidtVector)


def rand_rational_schmidt(rng, n, max_part=60):
    """Random exact Schmidt vector with n strictly positive entries."""
    parts = [int(rng.integers(1, max_part + 1)) for _ in range(n)]
    total = sum(parts)
    vals = sorted((Fraction(p, total) for p in parts), reverse=True)
    return SchmidtVector(tuple(vals))


def rand_float_schmidt(rng, n):
    raw = rng.random(n) + 1e-3
    raw = raw / raw.sum()
    raw = np.sort(raw)[::-1]
    return SchmidtVector(tuple(float(v) for v in raw))


def rand_majorized_below(rng, sv, steps=3):
    """Vector exactly majorized by ``sv``: a few rational T-transforms.

    Each step mixes two entries toward each other with a rational weight,
    which can only flatten the distribution, so the original majorizes
    every intermediate (and hence the result).
    """
    v = list(sv.probs)
    for _ in range(steps):
        i, j = rng.choice(len(v), size=2, replace=False)
        lam = Fraction(int(rng.integers(0, 6)), 10)  # in [0, 1/2]
        vi, vj = v[i], v[j]
        v[i] = (1 - lam) * vi + lam * vj
        v[j] = lam * vi + (1 - lam) * vj
        v.sort(reverse=True)
    return SchmidtVector(tuple(v))


def haar_unitary(rng, n):
    """Haar-ish random unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rand_state(rng, n_a, n_b):
    amp = rng.standard_normal((n_a, n_b)) + 1j * rng.standard_normal((n_a, n_b))
    return BipartiteState(amp / np.linalg.norm(amp))


def rand_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    return DensityOperator(rho)


def rand_kraus(rng, n, outcomes):
    """Random complete measurement: K_m = G_m S^{-1/2}, S = sum G^dag G."""
    gs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
          for _ in range(outcomes)]
    s = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(s)
    s_isqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return [g @ s_isqrt for g in gs]


# Fraction references for the exact core: the loops the package ran on
# Fraction entries before it moved them onto integer numerators.  Inputs
# are exact SchmidtVectors; results are plain Fractions.

def ref_optimal_probability_detail(alpha, beta):
    """(min_l tail_a(l) / tail_b(l), smallest minimizing l)."""
    n = max(alpha.n, beta.n)
    a = alpha.probs + (Fraction(0),) * (n - alpha.n)
    b = beta.probs + (Fraction(0),) * (n - beta.n)
    best = best_l = None
    run_a = run_b = Fraction(0)
    tails = [None] * n
    for i in range(n - 1, -1, -1):
        run_a += a[i]
        run_b += b[i]
        tails[i] = (run_a, run_b)
    for l in range(1, n + 1):
        ta, tb = tails[l - 1]
        if tb > 0 and (best is None or ta / tb < best):
            best, best_l = ta / tb, l
    if best is None:
        raise InvalidStateError("target state carries no weight")
    return best, best_l


def ref_nonzero_count(sv):
    return sum(p > 0 for p in sv.probs)


def ref_breakpoints(alpha, beta):
    """(boundaries, ratios) by rescanning the head range per segment."""
    n = max(alpha.n, beta.n)
    a = alpha.probs + (Fraction(0),) * (n - alpha.n)
    b = beta.probs + (Fraction(0),) * (n - beta.n)
    while n > 1 and a[n - 1] <= 0 and b[n - 1] <= 0:
        n -= 1
    if ref_nonzero_count(alpha) < ref_nonzero_count(beta):
        raise InfeasibleConversionError(
            "target has more nonzero Schmidt coefficients than source; "
            "conversion probability is 0")
    boundaries, ratios, upper = [n + 1], [], n
    while True:
        best = best_l = None
        run_a = run_b = Fraction(0)
        for l in range(upper, 0, -1):
            run_a += a[l - 1]
            run_b += b[l - 1]
            if run_b > 0 and (best is None or run_a / run_b <= best):
                best, best_l = run_a / run_b, l
        if best is None:
            raise InfeasibleConversionError(
                "no admissible tail ratio in the remaining range")
        boundaries.append(best_l)
        ratios.append(best)
        if best_l == 1:
            return tuple(boundaries), tuple(ratios)
        upper = best_l - 1


def ref_majorizes(x, y):
    """True when y majorizes x, by Fraction head sums."""
    n = max(x.n, y.n)
    xs = x.probs + (Fraction(0),) * (n - x.n)
    ys = y.probs + (Fraction(0),) * (n - y.n)
    hx = hy = Fraction(0)
    for a, b in zip(xs, ys):
        hx += a
        hy += b
        if hy < hx:
            return False
    return True


def ref_tensor_power(sv, copies):
    """Entries of ``copies`` copies: all products, sorted descending."""
    products = [math.prod(combo)
                for combo in itertools.product(sv.probs, repeat=copies)]
    return tuple(sorted(products, reverse=True))
