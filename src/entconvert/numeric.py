"""Scalar plumbing shared across the package.

Two numeric modes coexist: exact rationals (``fractions.Fraction``) for
closed-form probability work, and double-precision floats for
amplitude-level simulation.  The helpers here parse external values into
one of the two modes and keep mode detection in a single place.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

DEFAULT_TOL = 1e-9
# Largest decimal exponent a scalar string may carry: Fraction builds
# 10**exponent, whose cost grows fast with it.  Equal to Python's default
# limit on integer string digits, which already bounds the mantissa.
MAX_DECIMAL_EXPONENT = 4300

RATIONAL = "rational"
FLOAT = "float"


def parse_ratios(values, mode: str = RATIONAL) -> list:
    """Parse numeric entries from user input (JSON payloads, CLI args).

    Strings may be fractions ("108/144") or decimal literals ("0.4"); in
    rational mode both parse exactly, to integers (numerator, denominator
    > 0) not always in lowest terms ("0.4" gives (2, 5)), as integers do.
    Float mode gives each exact value's correctly rounded float.  A Python
    float stays a float: whoever produced it has already committed to the
    float representation.  A decimal exponent beyond MAX_DECIMAL_EXPONENT
    in magnitude is refused before parsing.
    """
    exact = mode == RATIONAL
    ratios = []
    for value in values:
        if not exact and mode != FLOAT:
            raise ValueError(f"unknown numeric mode {mode!r}")
        if isinstance(value, str):
            # "digits/digits" needs none of Fraction's string parsing
            num, _, den = value.partition("/")
            fast = num.isdigit() and den.isdigit() and value.isascii()
            if not fast and ("e" in value or "E" in value):
                _check_exponent(value)
            try:
                ratio = ((int(num), int(den)) if fast
                         else Fraction(value.strip()).as_integer_ratio())
            except (ValueError, ZeroDivisionError) as err:
                raise ValueError(f"cannot parse scalar {value!r}") from err
            if not ratio[1]:   # "n/0", which Fraction refuses too
                raise ValueError(f"cannot parse scalar {value!r}")
        elif isinstance(value, bool):
            raise ValueError(f"boolean is not a valid scalar: {value!r}")
        elif isinstance(value, float):
            ratio = value
        elif isinstance(value, Fraction):
            ratio = value.as_integer_ratio()
        elif isinstance(value, Integral):
            ratio = int(value), 1
        else:
            raise ValueError(
                f"cannot parse scalar of type {type(value).__name__}")
        if not exact and type(ratio) is tuple:
            try:   # the correctly rounded quotient, as float(Fraction) is
                ratio = ratio[0] / ratio[1]
            except OverflowError as err:
                raise ValueError(
                    f"scalar {value!r} is too large for a float") from err
        ratios.append(ratio)
    return ratios


def parse_scalar(value, mode: str = RATIONAL):
    """One entry parsed by parse_ratios: a Fraction in rational mode (a
    Python float stays a float), a float in float mode."""
    ratio, = parse_ratios((value,), mode)
    return ratio if isinstance(ratio, float) else Fraction(*ratio)


def _check_exponent(value):
    try:
        exponent = int(value.lower().rpartition("e")[2])
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


def values_to_json(held, exact=True):
    """scalar_to_json of each value of a _Scaled object, as a 12-digit
    float unless ``exact``; made from its integers, with no Fraction, if
    those are all it holds."""
    values = vars(held).get(held._lazy)
    if values is not None:
        return [scalar_to_json(v if exact else float(v)) for v in values]
    nums, den = held._scaled
    if not exact:
        return [round12(x / den) for x in nums]
    return [str(x // g) if g == den else f"{x // g}/{den // g}"
            for x, g in zip(nums, map(math.gcd, nums, [den] * len(nums)))]


class _Lazy:
    """Base of a frozen dataclass whose field named by ``_lazy`` may be
    left unset where the attribute named by ``_source`` is set: the field
    is then made by ``_derive()`` on first read, and kept."""

    _lazy = _source = None

    def __getattr__(self, name):   # only for an attribute not set
        if name != self._lazy or self._source not in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = self._derive()
        return value


class _Scaled(_Lazy):
    """A _Lazy whose exact tuple field may be held as integers over one
    denominator, ``_scaled = (nums, den)``, and made into Fractions only
    when first read."""

    _source = "_scaled"

    @classmethod
    def _from_scaled(cls, nums, den, **attrs):
        """The field as nums[i] / den, unchecked; ``attrs`` set as is."""
        obj = object.__new__(cls)
        obj.__dict__.update(attrs, _scaled=(nums, den))
        return obj

    def _derive(self):
        nums, den = self._scaled
        # list-fed: a tuple grown from an iterator lands on another size's
        # free list, which raises peak RSS
        return tuple(list(map(Fraction, nums, [den] * len(nums))))
