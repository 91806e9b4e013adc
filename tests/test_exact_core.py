"""The exact core against its Fraction reference.

Exact vectors are planned on integer numerators over one common
denominator.  Every result must equal what the plain Fraction loops in
``util`` give, on pairs with unequal lengths, ties, zero tails and
entries over unrelated denominators; the loops themselves must not add
or multiply the entries.
"""

import copy
import dataclasses
import json
import pickle
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconvert import (ExactMonomial, InfeasibleConversionError,
                        InvalidStateError, SchmidtVector, breakpoints,
                        build_full_protocol, build_plan, conversion, locc,
                        majorizes, optimal_probability,
                        optimal_probability_detail, tensor_power)
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


@pytest.mark.parametrize("k", [4300, 4301, 9000])
def test_rejection_names_an_unprintable_integer_by_its_digits(k):
    # around 10**k, where the digit count changes; past 4,300 digits str
    # refuses the text, and the refusal counts the digits instead
    for x in (10 ** k - 1, 10 ** k, 10 ** k + 1):
        digits = k + (x >= 10 ** k)
        shown = str(x) if digits <= 4300 else f"[{digits}-digit integer]"
        for probs, tail in (((F(1), F(-x)), f"-{shown}"),
                            ((F(1), F(-1, x)), f"-1/{shown}")):
            with pytest.raises(InvalidStateError) as info:
                SchmidtVector(probs)
            assert str(info.value) == f"negative squared coefficient {tail}"


def test_exact_vector_equality_and_copies_see_entries_alone():
    sv = SchmidtVector((F(108, 144), F(1, 4)))
    again = SchmidtVector((F(3, 4), F(1, 4)))
    assert sv == again and hash(sv) == hash(again)
    assert repr(sv) == "SchmidtVector(probs=(Fraction(3, 4), Fraction(1, 4)))"
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


def test_exact_core_does_no_entry_arithmetic(monkeypatch):
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

    # nor does building a protocol: _mixing_steps makes its monomials
    # from the chain's integers, with no Fraction in between
    plan = build_plan(alpha, counted(F(1, 2), F(1, 2)))
    made = []

    class Recorded(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    used.clear()
    for module in (locc, conversion):
        monkeypatch.setattr(module, "Fraction", Recorded)
    protocol = build_full_protocol(plan)
    assert protocol.measurement_count == 2   # one T-transform, the filter
    assert used == [] and made == []


def test_integer_built_monomial_is_the_fraction_built_one():
    rows, nums, den = (2, 0, 1), (3, 0, 12), 12
    eager = ExactMonomial(rows, tuple(F(x, den) for x in nums))
    assert eager._scaled == ((1, 0, 4), 4)
    for read in (hash, repr, pickle.dumps):
        lazy = ExactMonomial._from_scaled(nums, den, rows=rows)
        assert "squared" not in vars(lazy)
        read(lazy)   # whatever is read first, squared is derived alike
        assert lazy == eager and hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager)
        assert pickle.loads(pickle.dumps(lazy)) == eager
    assert pickle.loads(pickle.dumps(ExactMonomial._from_scaled(
        nums, den, rows=rows))).squared == eager.squared
    assert ExactMonomial._from_scaled(nums, den, rows=rows).matrix.tolist() \
        == eager.matrix.tolist()
    with pytest.raises(AttributeError, match="other"):
        ExactMonomial._from_scaled(nums, den, rows=rows).other


def _old_parse_scalar(value, mode):
    """The loader's former per-entry parser: one Fraction per entry."""
    if isinstance(value, bool):
        raise ValueError(f"boolean is not a valid scalar: {value!r}")
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text:
            try:
                exponent = int(text.lower().rpartition("e")[2])
            except ValueError:
                exponent = 0
            if abs(exponent) > 4300:
                raise ValueError(f"exponent of scalar {value!r} exceeds "
                                 "4300 in magnitude")
        num, _, den = text.partition("/")
        try:
            if (num.isascii() and num.isdigit() and den.isascii()
                    and den.isdigit()):
                if mode == FLOAT:
                    return int(num) / int(den)
                exact = Fraction(int(num), int(den))
            else:
                exact = Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"cannot parse scalar {value!r}") from err
    else:
        exact = Fraction(int(value))
    return exact if mode == RATIONAL else float(exact)


def _old_from_values(values, mode, trim, tol=1e-9):
    """The former SchmidtVector.from_values: Fractions sorted, trimmed and
    checked by the constructor."""
    given = [_old_parse_scalar(v, mode) for v in values]
    if not given:
        raise InvalidStateError("a Schmidt vector needs at least one entry")
    for p in given:
        if not isinstance(p, Fraction) and float(p) < -tol:
            raise InvalidStateError(f"negative squared coefficient {p}")
    given = [p if isinstance(p, Fraction) else max(float(p), 0.0)
             for p in given]
    parsed = sorted(given, reverse=True)
    if parsed[-1] < 0:
        raise InvalidStateError("negative squared coefficient "
                                f"{next(p for p in given if p < 0)}")
    if trim:
        keep = len(parsed)
        while keep > 1 and parsed[keep - 1] < tol:
            keep -= 1
        if keep < len(parsed):
            parsed = parsed[:keep]
            total = sum(parsed)
            parsed = [p / total for p in parsed]
    return SchmidtVector(tuple(parsed))


_SPELLINGS = ("108/144", " 1/2 ", "\t3/4\n", "0.25", "2.5e-1", "1e4301",
              "1e-4301", "1E0", "٣/٤", "١/٢", "1_0/2_0", "1/0", "-1/4",
              "-0.5", "+1/2", "0", "0/7", "0.0", "1/2/3", "abc", "",
              "1" * 4301 + "/2", 1, 0, -1, True, 0.5, 0.25, -1e-12)


@st.composite
def loader_entries(draw):
    """Entries as state files (and library callers) spell them: a
    normalized vector written over unreduced, scaled denominators, with
    ties, tiny entries and zeros, or a mix of odd spellings."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(
            st.sampled_from(_SPELLINGS),
            st.builds("{}/{}".format, st.integers(-3, 200),
                      st.integers(0, 200)),
            st.builds("{}e{}".format, st.integers(-50, 50),
                      st.integers(-12, 2)),
            st.integers(-2, 3)), max_size=6))
    loads = draw(st.lists(st.sampled_from((0, 1, 1, 2, 7, F(1, 10 ** 12))),
                          min_size=1, max_size=8))
    scale = draw(st.sampled_from((1, 3, 10 ** 12)))
    total = sum(loads) or 1
    out = []
    for x in loads:
        v = F(x) / total
        k = draw(st.integers(1, 4))
        out.append(draw(st.sampled_from((
            f"{v.numerator * k * scale}/{v.denominator * k * scale}",
            f" {v.numerator}/{v.denominator} ",
            v.numerator if v.denominator == 1 else str(v)))))
    return out


@given(loader_entries(), st.sampled_from((RATIONAL, FLOAT)), st.booleans())
@settings(max_examples=250, deadline=None)
def test_loader_matches_per_entry_fraction_route(values, mode, trim):
    try:
        old = _old_from_values(values, mode, trim)
    except ZeroDivisionError:   # an all-zero head renormalized by 0
        with pytest.raises(InvalidStateError, match="sum to 0"):
            SchmidtVector.from_values(values, mode=mode, trim=trim)
        return
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            SchmidtVector.from_values(values, mode=mode, trim=trim)
        assert (type(info.value), str(info.value)) == (type(err), str(err))
        return
    new = SchmidtVector.from_values(values, mode=mode, trim=trim)
    assert new.is_exact == old.is_exact and new.n == old.n
    assert list(map(repr, new.probs)) == list(map(repr, old.probs))
    assert new._scaled == old._scaled


def test_loaded_vector_makes_its_entries_when_read():
    eager = SchmidtVector((F(3, 4), F(1, 4)))
    loaded = SchmidtVector.from_values(["108/144", "1/4"])
    assert loaded.n == 2 and loaded.nonzero_count() == 2
    assert loaded._scaled == ((3, 1), 4) and "probs" not in vars(loaded)
    for read in (hash, repr, pickle.dumps, copy.copy, copy.deepcopy,
                 dataclasses.replace):
        lazy = SchmidtVector.from_values(["108/144", "1/4"])
        clone = read(lazy)   # whatever is read first, probs come out alike
        assert lazy == eager and hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager)
        if isinstance(clone, SchmidtVector):
            assert clone == eager and clone.is_exact
    clone = pickle.loads(pickle.dumps(SchmidtVector.from_values(["1", "0"])))
    assert clone.probs == (1, 0) and clone.is_exact


def test_query_commands_make_no_fraction_per_entry(tmp_path, monkeypatch):
    from entconvert import cli, io, monotones, schmidt
    n = 256
    for name, step in (("a", 1), ("b", 7)):
        weights = sorted((1 + step * k * k % 97 for k in range(n)),
                         reverse=True)
        (tmp_path / f"{name}.json").write_text(json.dumps({"schmidt_sq": [
            str(F(w, sum(weights))) for w in weights]}))
    made = []

    class Recorded(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    for module in (cli, io, monotones, schmidt):
        # io makes none, and imports none to patch
        monkeypatch.setattr(module, "Fraction", Recorded, raising=False)
    # nor may the parser or a lazily held vector make one, anywhere
    new = Fraction.__new__

    def recorded_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", recorded_new)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    segments = build_plan(io.load_state_file(a).schmidt,
                          io.load_state_file(b).schmidt
                          ).breakpoints.segment_count
    assert segments > 2
    # a plan's tail ratios are Fractions, one per segment; its vectors
    # and filter pair are integers over one denominator
    for argv, exact_entries, allowed in (
            (["prob", a, b], 2 * n - 2, 2),
            (["compare", a, b], 1, 2),
            (["monotones", a], 2 * n - 1, 2),
            (["plan", a, b], 4 * n, segments + 2)):
        made.clear()
        with redirect_stdout(StringIO()) as out:
            assert cli.main(argv) == 0
        # the probabilities alone, though every entry is rendered exactly
        assert len(made) <= allowed, (argv, made)
        assert out.getvalue().count("/") >= exact_entries
