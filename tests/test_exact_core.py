"""The exact core against its Fraction reference.

Exact vectors are planned on integer numerators over one common
denominator.  Every result must equal what the plain Fraction loops in
``util`` give, on pairs with unequal lengths, ties, zero tails and
entries over unrelated denominators; the loops themselves must not add
or multiply the entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvert import (InfeasibleConversionError, InvalidStateError,
                        SchmidtVector, breakpoints, majorizes,
                        optimal_probability, optimal_probability_detail,
                        tensor_power)
from entconvert.numeric import FLOAT, RATIONAL, parse_scalar
from util import (ref_breakpoints, ref_majorizes, ref_nonzero_count,
                  ref_optimal_probability_detail, ref_tensor_power)

F = Fraction


@st.composite
def exact_vectors(draw, max_n=16):
    """Exact vector of 1..max_n levels: loads over drawn denominators,
    normalized.  A single denominator with a narrow load range gives many
    ties; a zero lower bound gives zero tails."""
    n = draw(st.integers(1, max_n))
    top = draw(st.sampled_from((3, 40)))
    low = draw(st.sampled_from((0, 1)))
    loads = [draw(st.integers(1, top))] + draw(
        st.lists(st.integers(low, top), min_size=n - 1, max_size=n - 1))
    dens = draw(st.sampled_from(((1,), (2, 3, 5), tuple(range(1, 61)))))
    values = [F(x, draw(st.sampled_from(dens))) for x in loads]
    total = sum(values)
    return SchmidtVector(tuple(sorted((v / total for v in values),
                                      reverse=True)))


@given(exact_vectors(), exact_vectors())
@settings(max_examples=300, deadline=None)
def test_exact_core_matches_fraction_reference(alpha, beta):
    p, l = optimal_probability_detail(alpha, beta)
    assert (p, l) == ref_optimal_probability_detail(alpha, beta)
    assert type(p) is Fraction
    try:
        expected = ref_breakpoints(alpha, beta)
    except InfeasibleConversionError as err:
        with pytest.raises(InfeasibleConversionError, match=str(err)):
            breakpoints(alpha, beta)
    else:
        bp = breakpoints(alpha, beta)
        assert (bp.boundaries, bp.ratios) == expected
        assert all(type(r) is Fraction for r in bp.ratios)
    assert majorizes(alpha, beta) == ref_majorizes(alpha, beta)
    assert majorizes(beta, alpha) == ref_majorizes(beta, alpha)
    for sv in (alpha, beta):
        assert sv.nonzero_count() == ref_nonzero_count(sv)


@given(exact_vectors(max_n=8), st.sampled_from((2, 3)))
@settings(max_examples=60, deadline=None)
def test_tensor_power_matches_fraction_reference(sv, copies):
    power = tensor_power(sv, copies)
    assert power.probs == ref_tensor_power(sv, copies)
    assert all(type(p) is Fraction for p in power.probs)
    assert power.is_exact


def test_tensor_power_keeps_input_when_one_copy():
    sv = SchmidtVector((F(2, 3), F(1, 3)))
    assert tensor_power(sv, 1) is sv


@pytest.mark.parametrize("probs, message", [
    ((F(3, 2), F(-1, 2)), "negative squared coefficient -1/2"),
    ((F(1, 4), F(3, 4)), "entries not sorted non-increasing: 1/4 < 3/4"),
    ((F(1, 2), F(1, 4)), "exact entries sum to 3/4, not 1"),
    ((F(1, 4), F(-1, 4), F(1)), "negative squared coefficient -1/4"),
    ((), "a Schmidt vector needs at least one entry"),
])
def test_exact_rejection_messages(probs, message):
    with pytest.raises(InvalidStateError) as info:
        SchmidtVector(probs)
    assert str(info.value) == message


def test_exact_vector_equality_and_copies_see_entries_alone():
    sv = SchmidtVector((F(108, 144), F(1, 4)))
    again = SchmidtVector((F(3, 4), F(1, 4)))
    assert sv == again and hash(sv) == hash(again)
    assert repr(sv) == "SchmidtVector(probs=(Fraction(3, 4), Fraction(1, 4)))"
    import copy
    import dataclasses
    import pickle
    for clone in (pickle.loads(pickle.dumps(sv)), copy.deepcopy(sv),
                  dataclasses.replace(sv)):
        assert clone == sv and clone.is_exact
        assert optimal_probability(clone, sv) == 1


@pytest.mark.parametrize("text", [
    " 108/144 ", "01/2", "0/5", "1/0", "-1/2", "+1/2", "1.5/2", "٣/٤",
    "1e3/2", "1/2/3", " / ", "1 /2", "0x1/2", "1/-2", "0.4", "-0",
    "1" * 4301 + "/2", "2/" + "1" * 4301])
def test_parse_scalar_equals_fraction(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as info:
            parse_scalar(text)
        assert str(info.value) == f"cannot parse scalar {text!r}"
        return
    parsed = parse_scalar(text)
    assert type(parsed) is Fraction and parsed == expected
    assert parse_scalar(text, FLOAT) == float(expected)


def test_parse_scalar_keeps_exponent_guard():
    with pytest.raises(ValueError, match="exponent of scalar '1e4301'"):
        parse_scalar("1e4301", RATIONAL)


def test_exact_core_does_no_entry_arithmetic():
    used = []

    class Counted(Fraction):
        def __add__(self, other):
            used.append("+")
            return Fraction.__add__(self, other)

        def __radd__(self, other):
            used.append("+")
            return Fraction.__radd__(self, other)

        def __mul__(self, other):
            used.append("*")
            return Fraction.__mul__(self, other)

        def __rmul__(self, other):
            used.append("*")
            return Fraction.__rmul__(self, other)

    def counted(*values):
        return SchmidtVector(tuple(Counted(v) for v in values))

    alpha = counted(F(1, 2), F(3, 10), F(1, 5))
    beta = counted(F(2, 5), F(2, 5), F(1, 5))
    wide = counted(*(F(1, 64),) * 64)
    used.clear()
    assert optimal_probability_detail(alpha, beta) == (F(5, 6), 2)
    assert breakpoints(alpha, beta).ratios == (F(5, 6), F(5, 4))
    assert majorizes(alpha, beta) is False
    assert majorizes(wide, alpha) is True
    assert used == []
