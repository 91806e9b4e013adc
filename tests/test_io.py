"""State documents, plan round-trips, report serialization."""

import copy
import dataclasses
import io
import json
import math
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entconvert import SchmidtVector, breakpoints, build_plan, \
    monte_carlo_run, build_full_protocol, state_from_schmidt
from entconvert.cli import main
from entconvert.io import (Audit, StateFileError, dumps, load_state_file,
                           parse_state_document, plan_from_dict,
                           plan_to_dict, report_to_dict)
from entconvert.numeric import (MAX_DECIMAL_EXPONENT, parse_scalar, round12,
                                scalar_to_json)
from util import rand_rational_schmidt

F = Fraction

ALPHA3 = SchmidtVector((F(1, 2), F(3, 10), F(1, 5)))
BETA3 = SchmidtVector((F(2, 5), F(2, 5), F(1, 5)))


class TestStateDocuments:
    def test_schmidt_sq_exact(self):
        loaded = parse_state_document(
            {"label": "t", "schmidt_sq": ["108/144", "12/144", "12/144",
                                          "12/144"]})
        assert loaded.label == "t"
        assert loaded.schmidt.probs[0] == F(3, 4)
        assert loaded.state is None

    def test_decimal_strings_exact_in_rational_mode(self):
        loaded = parse_state_document({"schmidt_sq": ["0.8", "0.2"]})
        assert loaded.schmidt.probs == (F(4, 5), F(1, 5))

    def test_float_mode(self):
        loaded = parse_state_document({"schmidt_sq": ["0.8", "0.2"]},
                                      mode="float")
        assert not loaded.schmidt.is_exact

    def test_amplitudes(self):
        s = 1 / math.sqrt(2)
        doc = {"amplitudes": [[[s, 0], [0, 0]], [[0, 0], [0, s]]]}
        loaded = parse_state_document(doc)
        assert loaded.state is not None
        assert loaded.schmidt.as_floats() == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("doc", [
        [],                                             # not an object
        {},                                             # neither key
        {"schmidt_sq": ["1"], "amplitudes": [[[1, 0]]]},  # both keys
        {"schmidt_sq": []},                             # empty
        {"schmidt_sq": "0.5"},                          # not an array
        {"schmidt_sq": ["1/2", "1/3"]},                 # bad sum
        {"label": 7, "schmidt_sq": ["1"]},              # non-string label
        {"amplitudes": [[["x", 0]]]},                   # unparsable entry
    ])
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(StateFileError):
            parse_state_document(doc)

    @pytest.mark.parametrize("rows, where", [
        ([[1]], "row 0, column 0 must be an [re, im] pair"),
        ([[[1]]], "row 0, column 0 must be an [re, im] pair"),
        ([[[1, 0], [0, 0, 0]]], "row 0, column 1 must be an [re, im] pair"),
        ([[[1, 0]], 1], "row 1, column 0 must be an [re, im] pair"),
    ])
    def test_amplitude_shape_is_named(self, rows, where):
        with pytest.raises(StateFileError) as info:
            parse_state_document({"amplitudes": rows})
        assert str(info.value) == f'"amplitudes" {where}'

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "nested too deeply"),
        ('{"schmidt_sq": [' + "1" * 5000 + ", 1]}",
         "integer too long"),
        # json.loads refuses a byte order mark, and so does the loader
        ('\ufeff{"schmidt_sq": ["1/2", "1/2"]}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
         "(char 0)"),
    ])
    @pytest.mark.parametrize("command", [
        ["prob", "{doc}", "{ok}"], ["simulate", "--plan", "{doc}"]])
    def test_hostile_json_ends_in_one_error_line(self, tmp_path, capsys,
                                                 text, message, command):
        doc, ok = tmp_path / "hostile.json", tmp_path / "ok.json"
        doc.write_text(text, encoding="utf-8")
        ok.write_text(json.dumps({"schmidt_sq": ["1/2", "1/2"]}))
        assert main([a.format(doc=doc, ok=ok) for a in command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid JSON: {message}\n"

    def test_load_state_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"schmidt_sq": ["4/5", "1/5"]}))
        loaded = load_state_file(path)
        assert loaded.schmidt.probs == (F(4, 5), F(1, 5))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            load_state_file(path)

    @pytest.mark.parametrize("text", [
        '{"schmidt_sq": [NaN, 0.5, 0.5]}',
        '{"schmidt_sq": [Infinity, 0.5]}',
        '{"schmidt_sq": [1, -Infinity]}',
        '{"amplitudes": [[[NaN, 0]]]}',
    ])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_load_rejects_non_finite_literals(self, tmp_path, text, mode):
        path = tmp_path / "nan.json"
        path.write_text(text)
        with pytest.raises(StateFileError, match="non-finite"):
            load_state_file(path, mode=mode)

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "1E+4300",
                                      " 25e-43_00 "])
    def test_exponent_at_the_limit_parses(self, text):
        assert parse_scalar(text) == Fraction(text.strip())

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "2.5E+4301",
                                      "1e5000"])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_exponent_over_the_limit_refused(self, text, mode):
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(text, mode)
        with pytest.raises(StateFileError, match="exponent"):
            parse_state_document({"schmidt_sq": [text, "1"]}, mode=mode)

    def test_exponent_limit_matches_the_digit_limit(self):
        assert MAX_DECIMAL_EXPONENT == sys.int_info.default_max_str_digits

    def test_float_overflow_rejected(self):
        with pytest.raises(StateFileError):
            parse_state_document({"schmidt_sq": ["1e400", "0.5"]},
                                 mode="float")

    def test_trim_on_load(self, tmp_path):
        path = tmp_path / "padded.json"
        path.write_text(json.dumps({"schmidt_sq": ["0.5", "0.5", "0"]}))
        assert load_state_file(path, trim=True).schmidt.n == 2

    @pytest.mark.parametrize("mode, message", [
        ("rational", "exact entries sum to 0, not 1"),
        ("float", "entries sum to 0.0, not 1")])
    def test_trim_of_all_zeros_exits_1(self, tmp_path, capsys, mode,
                                       message):
        # the kept head sums to 0: refused, not renormalized by 0
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"schmidt_sq": ["0", 0, "0.0"]}))
        assert main(["monotones", str(path), "--trim-zeros", "--mode",
                     mode]) == 1
        assert capsys.readouterr().err == \
            f"error: bad Schmidt vector: {message}\n"


class TestPlanRoundTrip:
    def test_roundtrip_preserves_everything(self):
        plan = build_plan(ALPHA3, BETA3)
        doc = json.loads(dumps(plan_to_dict(plan)), parse_float=str)
        back = plan_from_dict(doc)
        assert back.probability == plan.probability == F(5, 6)
        assert back.breakpoints == plan.breakpoints
        assert back.intermediate.probs == plan.intermediate.probs
        assert back.success_operator.squared == plan.success_operator.squared
        assert back.failure_operator.squared == plan.failure_operator.squared
        assert back.source.probs == plan.source.probs

    def test_degenerate_plan_roundtrip(self):
        plan = build_plan(SchmidtVector((F(1, 2), F(1, 2))),
                          SchmidtVector((F(1, 3),) * 3))
        doc = json.loads(dumps(plan_to_dict(plan)), parse_float=str)
        back = plan_from_dict(doc)
        assert back.probability == 0
        assert back.breakpoints is None

    def test_tampered_document_rejected(self):
        plan = build_plan(ALPHA3, BETA3)
        doc = plan_to_dict(plan)
        doc["intermediate"] = ["1/2", "1/4", "1/4"]  # not r_j * beta
        with pytest.raises(StateFileError):
            plan_from_dict(doc)

    @pytest.mark.parametrize("tamper", [
        lambda d: d.update(breakpoints={}),
        lambda d: d.pop("intermediate"),
        lambda d: d.update(breakpoints=[1, 2]),
        lambda d: d["breakpoints"].update(ratios=5),
        lambda d: d.update(success_squared=None),
    ])
    def test_malformed_nested_fields_rejected(self, tamper):
        doc = plan_to_dict(build_plan(ALPHA3, BETA3))
        tamper(doc)
        with pytest.raises(StateFileError):
            plan_from_dict(doc)

    @pytest.mark.parametrize("boundaries", [
        "x", 4, {"4": 2}, [4, 2, 1, 1.5], [4, None, 1], [4, 2, True],
        ["4", 2, 1]])
    def test_boundaries_must_be_an_array_of_integers(self, tmp_path, capsys,
                                                     boundaries):
        # the last two would pass as the plan's own [4, 2, 1] through int()
        doc = plan_to_dict(build_plan(ALPHA3, BETA3))
        doc["breakpoints"]["boundaries"] = boundaries
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--plan", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed plan document: breakpoints.boundaries must be "
            "an array of integers\n")

    @pytest.mark.parametrize("spell", [
        lambda v: v,
        lambda v: f" {v.numerator * 6}/{v.denominator * 6} ",
        lambda v: f"{v.numerator}_0/{v.denominator}_0",
        lambda v: f"{v.numerator}/{v.denominator}".translate(
            str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    ])
    def test_plan_values_take_state_file_spellings(self, spell):
        # one parser reads a plan's values and a state file's entries
        plan = build_plan(ALPHA3, BETA3)
        doc = plan_to_dict(plan)
        for key in ("source", "intermediate", "success_squared"):
            doc[key] = [spell(F(v)) for v in doc[key]]
        doc["probability"] = spell(F(doc["probability"]))
        assert plan_from_dict(doc).probability == F(5, 6)
        for bad in ("1/0", "1e4301", True):
            doc["probability"] = bad
            with pytest.raises(ValueError) as got:
                plan_from_dict(doc)
            with pytest.raises(ValueError) as want:
                SchmidtVector.from_values([bad])
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key, values", [
        ("success_squared", ["1", "1", "1"]),
        ("failure_squared", ["0", "0", "0"]),
        ("probability", "1"),
        ("intermediate", ["1/2", "1/3", "1/6", "0"]),
    ])
    def test_fields_must_match_breakpoints(self, key, values):
        doc = plan_to_dict(build_plan(ALPHA3, BETA3))
        doc[key] = values
        with pytest.raises(StateFileError, match=key):
            plan_from_dict(doc)

    def test_degenerate_plan_needs_probability_zero(self):
        plan = build_plan(SchmidtVector((F(1, 2), F(1, 2))),
                          SchmidtVector((F(1, 3),) * 3))
        doc = plan_to_dict(plan)
        doc["probability"] = "1"
        with pytest.raises(StateFileError):
            plan_from_dict(doc)

    def test_breakpoints_must_match_the_source(self):
        # the 3-level plan with its source flattened: prob() gives 1 there
        doc = plan_to_dict(build_plan(ALPHA3, BETA3))
        doc["source"] = ["1/3", "1/3", "1/3"]
        with pytest.raises(StateFileError, match="breakpoints"):
            plan_from_dict(doc)

    def test_feasible_pair_needs_breakpoints(self):
        doc = plan_to_dict(build_plan(ALPHA3, BETA3))
        doc.update(breakpoints=None, intermediate=None, success_squared=None,
                   failure_squared=None, probability="0")
        with pytest.raises(StateFileError, match="breakpoints"):
            plan_from_dict(doc)

    def test_infeasible_pair_has_no_breakpoints(self):
        # a feasible plan's fields under a source with too small a support
        doc = plan_to_dict(build_plan(SchmidtVector((F(1, 2), F(1, 2))),
                                      SchmidtVector((F(1, 2), F(1, 2)))))
        doc["source"] = ["1", "0"]
        with pytest.raises(StateFileError, match="breakpoints"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_random_exact_plans_round_trip(self, n):
        rng = np.random.default_rng(4100 + n)
        a = rand_rational_schmidt(rng, n)
        b = rand_rational_schmidt(rng, n)
        # a source padded with zeros cannot reach a full-support target
        short = rand_rational_schmidt(rng, n - 1).padded(n)
        for source, target in ((a, b), (b, a), (short, b), (a, short)):
            plan = build_plan(source, target)
            doc = json.loads(dumps(plan_to_dict(plan)), parse_float=str)
            back = plan_from_dict(doc)
            assert back == plan

    def test_float_document_keeps_its_own_values(self):
        plan = build_plan(SchmidtVector((0.5, 0.3, 0.2)),
                          SchmidtVector((0.4, 0.4, 0.2)))
        doc = json.loads(dumps(plan_to_dict(plan)), parse_float=str)
        back = plan_from_dict(doc, mode="float")
        # its own source and target, planned exactly on their binary values
        assert back.source.probs == tuple(float(v) for v in doc["source"])
        assert back.target.probs == tuple(float(v) for v in doc["target"])
        assert back.breakpoints == breakpoints(back.source, back.target)
        assert all(isinstance(r, F) for r in back.breakpoints.ratios)
        assert abs(back.probability - float(doc["probability"])) <= 1e-12
        # its boundaries are checked against those, as an exact document's
        doc["breakpoints"]["boundaries"] = [4, 3, 1]
        with pytest.raises(StateFileError, match="breakpoints"):
            plan_from_dict(doc, mode="float")

    def test_missing_key_rejected(self):
        with pytest.raises(StateFileError):
            plan_from_dict({"source": ["1"]})
        with pytest.raises(StateFileError):
            plan_from_dict([1, 2])


Point = namedtuple("Point", "x y")


class SubDict(dict):
    pass


class SubList(list):
    pass


class SubTuple(tuple):
    pass


# the cases a fast path of dumps could get wrong: values equal across
# types (0.0 and -0.0; 1, 1.0 and True), non-finite floats, Fractions
# (rendered through default), and text with %, control, non-ASCII and
# JSON punctuation characters
_text = st.text(st.sampled_from('ab%s"\\\n\t\x00\x1f}{,: \xe9\u2603\u2028'),
                max_size=4)
_scalars = st.one_of(
    st.sampled_from([0.0, -0.0, 1, 1.0, True, False, None, math.nan,
                     math.inf, -math.inf, F(1, 2), F(-3, 7), F(2)]),
    st.integers(), st.floats(), st.fractions(), _text)


@st.composite
def _tables(draw, values):
    """Rows sharing one key set, each column of one type, then one row
    perhaps missing a key, having an extra or a renamed one, holding a
    value of another type or a container, or empty."""
    keys = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    kinds = [st.integers(), st.floats(), _text]
    rows = draw(st.lists(st.fixed_dictionaries(
        {key: draw(st.sampled_from(kinds)) for key in keys}),
        min_size=1, max_size=4))
    row = draw(st.sampled_from(rows))
    change = draw(st.sampled_from(["none", "missing", "extra", "renamed",
                                   "mixed", "nested", "empty"]))
    if change == "missing":
        del row[keys[0]]
    elif change == "extra":
        row[draw(_text)] = draw(_scalars)
    elif change == "renamed":
        row[draw(_text)] = row.pop(keys[0])
    elif change == "mixed":
        row[keys[-1]] = draw(_scalars)
    elif change == "nested":
        row[keys[-1]] = draw(values)
    elif change == "empty":
        row.clear()
    return rows


def _containers(values):
    lists = st.lists(values, max_size=4)
    return st.one_of(
        lists, lists.map(tuple), lists.map(SubList), lists.map(SubTuple),
        st.tuples(values, values).map(lambda xy: Point(*xy)),
        st.dictionaries(_text, values, max_size=4),
        st.dictionaries(_text, values, max_size=4).map(SubDict),
        st.dictionaries(st.integers(), values, max_size=3),
        _tables(values), _tables(values).map(tuple))


_documents = st.recursive(_scalars, _containers, max_leaves=30)

# an audit's averages: zeros of both signs and ones, tiny values, values
# that round at the 12th digit, and repeats, as floats over 1 or integers
_float_averages = st.sampled_from(
    [0.0, -0.0, 1.0, 5e-324, 1e-300, 2.5e-13, 0.1, 1 / 3, 0.123456789012345])


@st.composite
def _audits(draw):
    """An Audit of 0-4 levels of 0-4 averages each, a level spanning 1-3
    step boundaries, in either order."""
    n = draw(st.integers(0, 4))
    levels = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            den = draw(st.sampled_from([1, 3, 7, 10 ** 30 + 1]))
            values = st.integers(0, den)
        else:
            den, values = 1, _float_averages
        nums = draw(st.lists(values, min_size=n, max_size=n))
        levels.append(((tuple(nums), den), draw(st.integers(1, 3))))
    return Audit(tuple(levels), draw(st.booleans()))


def _audit_rows(audit):
    """The rows an Audit stands for, as the stdlib would render them."""
    boundaries = [[round12(x / den) for x in nums]
                  for (nums, den), span in audit.levels for _ in range(span)]
    ks = range(len(boundaries[0]) if boundaries else 0)
    cells = ([(s, k) for s in range(len(boundaries)) for k in ks]
             if audit.step_major else
             [(s, k) for k in ks for s in range(len(boundaries))])
    return [{"step": s, "k": k + 1, "avg_E": boundaries[s][k]}
            for s, k in cells]


class TestReportSerialization:
    def test_field_names_and_rounding(self):
        plan = build_plan(SchmidtVector((F(4, 5), F(1, 5))),
                          SchmidtVector((F(1, 2), F(1, 2))))
        protocol = build_full_protocol(plan)
        report = monte_carlo_run(protocol, state_from_schmidt(plan.source),
                                 600, seed=4, predicted=plan.probability)
        doc = report_to_dict(report)
        assert set(doc) == {"trials", "successes", "empirical", "std_error",
                            "predicted", "seed", "audit"}
        assert doc["trials"] == 600
        assert doc["seed"] == 4
        assert doc["predicted"] == "2/5"
        assert isinstance(doc["empirical"], float)
        # the audit is an Audit, one level per step boundary, whose rows
        # render as dicts step-major, each average rounded
        assert len(doc["audit"].levels) == len(protocol.steps) + 1
        plain = dict(doc, audit=[
            {"step": s, "k": k, "avg_E": round12(v) if v else float(v)}
            for s, k, v in report.monotone_audit])
        assert dumps(doc) == json.dumps(plain, indent=2,
                                        sort_keys=True) + "\n"
        # a report copied through the constructor, from its fields, alike
        made = dataclasses.replace(report)
        assert dumps(report_to_dict(made)) == dumps(doc)

    @settings(max_examples=300, deadline=None)
    @given(_audits(), st.sampled_from(["bare", "in dict", "in list"]))
    @example(Audit(((((0.0, 1.0), 1), 2), (((1, 2), 3), 1)), False),
             "in dict")
    @example(Audit(((((1, 0, 5e-324), 1), 1),), True), "bare")
    @example(Audit((), True), "bare")
    def test_audit_renders_as_its_rows_as_dicts(self, audit, where):
        plain = _audit_rows(audit)
        doc, want = {"bare": (audit, plain),
                     "in dict": ({"audit": audit, "n": 1},
                                 {"audit": plain, "n": 1}),
                     "in list": ([audit, [audit]], [plain, [plain]])}[where]
        assert dumps(doc) == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_dumps_is_stable(self):
        text = dumps({"b": 1, "a": [F(1, 2)]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    @settings(max_examples=150, deadline=None)
    @given(_documents)
    @example({"t": [{"x": 0.0, "y": 1}, {"x": -0.0, "y": 1.0},
                    {"x": 0.0, "y": True}]})
    @example([{"x": -0.0}, {"x": 0.0}, {"x": math.nan}, {"x": math.nan}])
    @example([{"x": 1, "y": 0}, {"x": 1.0, "y": 0}])
    @example([{"a": 1}, {"a": 2, "b": 3}])
    @example([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    def test_dumps_matches_the_stdlib_rendering(self, doc):
        try:
            want = json.dumps(doc, indent=2, sort_keys=True,
                              default=scalar_to_json) + "\n"
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err)):
                dumps(doc)
        else:
            assert dumps(doc) == want


# A place in a document that _hostile_text fills with nested empty arrays
_DEEP = "\x00deep"
_HOSTILE_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(-10 ** 300, 10 ** 300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "-1", "1/2", "0.5", "1/0", "2/-3", "1e300",
                     "1e-300", "1.8e308", "5e-324", "-1e-999", "1e999",
                     "1e4300", "1e-4300", "-1e4300", "-1e-4300", "1e4301",
                     "0x10", " 1 ", "1/2/3"]),
    st.just(_DEEP))
_HOSTILE_VALUES = st.recursive(
    _HOSTILE_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
_STATE_DOCS = (
    {"label": "s", "schmidt_sq": ["1/2", "1/3", "1/6"]},
    {"schmidt_sq": [0.5, 0.25, 0.25]},
    {"schmidt_sq": [1]},
    {"amplitudes": [[[0.6, 0], [0, 0]], [[0, 0], [0, 0.8]]]},
)
_PLAN_DOCS = tuple(plan_to_dict(build_plan(a, b)) for a, b in (
    (ALPHA3, BETA3),
    (SchmidtVector((0.5, 0.3, 0.2)), SchmidtVector((0.4, 0.4, 0.2))),
    (SchmidtVector((F(1, 2), F(1, 2))), SchmidtVector((F(1, 3),) * 3))))


def _places(doc, path=()):
    """The path of every value in a JSON document, the root's first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            yield from _places(doc[key], path + (key,))


@st.composite
def _hostile_text(draw, docs):
    """The text of a valid document with one value replaced by a JSON
    value of any type, or a key dropped, at any depth."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from([*_places(doc)]))
    value = draw(_HOSTILE_VALUES)
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    depth = draw(st.sampled_from([1, 40, 5000, 100_000]))
    return json.dumps(doc).replace(json.dumps(_DEEP),
                                   "[" * depth + "]" * depth)


class TestHostileDocuments:
    """Every state or plan document, run through every subcommand that
    reads it in both numeric modes, ends in exit 0, 1 or 2 with no
    traceback and no advice to call a Python function."""

    OK = {"schmidt_sq": ["2/5", "2/5", "1/5"]}

    @staticmethod
    def _assert_ends_plainly(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        errors = err.getvalue()
        assert code in (0, 1, 2), (argv, errors)
        assert "Traceback" not in errors
        assert "()" not in errors and "sys." not in errors, errors

    @settings(max_examples=60, deadline=timedelta(seconds=2),
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_hostile_text(_STATE_DOCS), st.booleans())
    # finite amplitudes whose norm overflows printed a numpy warning
    @example('{"amplitudes": [[[1e300, 0]], [[1e300, 0]]]}', False)
    def test_state_documents(self, tmp_path, text, as_second):
        doc, ok = tmp_path / "doc.json", tmp_path / "ok.json"
        doc.write_text(text, encoding="utf-8")
        ok.write_text(json.dumps(self.OK))
        pair = [str(ok), str(doc)] if as_second else [str(doc), str(ok)]
        for mode in ("rational", "float"):
            for argv in (["prob", *pair], ["plan", *pair],
                         ["simulate", *pair, "--trials", "50"],
                         ["compare", *pair], ["tensor", *pair],
                         ["monotones", str(doc)]):
                self._assert_ends_plainly([*argv, "--mode", mode])

    @settings(max_examples=60, deadline=timedelta(seconds=2),
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_hostile_text(_PLAN_DOCS))
    def test_plan_documents(self, tmp_path, text):
        doc = tmp_path / "plan.json"
        doc.write_text(text, encoding="utf-8")
        for mode in ("rational", "float"):
            for run in (["--trials", "50"], ["--exhaustive"]):
                self._assert_ends_plainly(
                    ["simulate", "--plan", str(doc), *run, "--mode", mode])
