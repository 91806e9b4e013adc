"""Scalar plumbing shared across the package.

Two numeric modes coexist: exact rationals (``fractions.Fraction``) for
closed-form probability work, and double-precision floats for
amplitude-level simulation.  The helpers here parse external values into
one of the two modes and keep mode detection in a single place.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral

DEFAULT_TOL = 1e-9
# Largest decimal exponent a scalar string may carry: Fraction builds
# 10**exponent, whose cost grows fast with it.  Equal to Python's default
# limit on integer string digits, which already bounds the mantissa.
MAX_DECIMAL_EXPONENT = 4300

RATIONAL = "rational"
FLOAT = "float"


def parse_scalar(value, mode: str = RATIONAL):
    """Parse one numeric entry from user input (JSON payloads, CLI args).

    Strings may be fractions ("108/144") or decimal literals ("0.4"); in
    rational mode both parse exactly (so "0.4" becomes 2/5).  Integers are
    exact in either mode.  A Python float stays a float: whoever produced
    it has already committed to the float representation.  A decimal
    exponent beyond MAX_DECIMAL_EXPONENT in magnitude is refused before
    parsing.
    """
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown numeric mode {mode!r}")
    if isinstance(value, bool):
        raise ValueError(f"boolean is not a valid scalar: {value!r}")
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        exact = value
    elif isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text:
            _check_exponent(text, value)
        num, _, den = text.partition("/")
        try:
            if (num.isascii() and num.isdigit() and den.isascii()
                    and den.isdigit()):
                # "digits/digits" needs none of Fraction's string parsing,
                # and a float is the correctly rounded integer quotient
                if mode == FLOAT:
                    return int(num) / int(den)
                exact = Fraction(int(num), int(den))
            else:
                exact = Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"cannot parse scalar {value!r}") from err
        except OverflowError as err:
            raise ValueError(f"scalar {value!r} is too large for a float") \
                from err
    elif isinstance(value, Integral):
        exact = Fraction(int(value))
    else:
        raise ValueError(f"cannot parse scalar of type {type(value).__name__}")
    if mode == RATIONAL:
        return exact
    try:
        return float(exact)
    except OverflowError as err:
        raise ValueError(f"scalar {value!r} is too large for a float") from err


def _check_exponent(text, value):
    try:
        exponent = int(text.lower().rpartition("e")[2])
    except ValueError:
        return   # no exponent that Fraction would read
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"exponent of scalar {value!r} exceeds "
                         f"{MAX_DECIMAL_EXPONENT} in magnitude")


def is_exact_scalar(value) -> bool:
    return isinstance(value, (Fraction, Integral)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact_scalar(v) for v in values)


def round12(x: float) -> float:
    """Round a float to 12 significant digits (report formatting)."""
    return float(f"{float(x):.12g}")


def scalar_to_json(value):
    """JSON image of a scalar: rationals as strings, floats 12-sig-digit."""
    if isinstance(value, float):
        return round12(value)
    if isinstance(value, Fraction):
        return str(value)
    if is_exact_scalar(value):
        return str(Fraction(int(value)))
    return round12(value)
