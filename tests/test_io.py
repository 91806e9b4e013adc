"""State documents, plan round-trips, report serialization."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from entconvert import SchmidtVector, breakpoints, build_plan, \
    monte_carlo_run, build_full_protocol, state_from_schmidt
from entconvert.io import (StateFileError, dumps, load_state_file,
                           parse_state_document, plan_from_dict,
                           plan_to_dict, report_to_dict)
from entconvert.numeric import MAX_DECIMAL_EXPONENT, parse_scalar
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
        assert all(set(row) == {"step", "k", "avg_E"} for row in doc["audit"])

    def test_dumps_is_stable(self):
        text = dumps({"b": 1, "a": [F(1, 2)]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
