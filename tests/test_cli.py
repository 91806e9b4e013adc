"""End-to-end command tests driven through main(argv)."""

import hashlib
import math
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entconvert
from entconvert import (build_full_protocol, build_plan, cli, locc,
                        optimal_probability)
from entconvert.cli import DEMO_NAMES, main
from util import rand_float_schmidt, rand_rational_schmidt


@pytest.fixture
def states(tmp_path):
    """Write the standard state files and return their paths."""
    paths = {}
    for name, doc in {
        "skewed": {"label": "skewed pair", "schmidt_sq": ["4/5", "1/5"]},
        "bell": {"schmidt_sq": ["1/2", "1/2"]},
        "three_a": {"schmidt_sq": ["1/2", "3/10", "1/5"]},
        "three_b": {"schmidt_sq": ["2/5", "2/5", "1/5"]},
        "half_quarters": {"schmidt_sq": ["1/2", "1/4", "1/4"]},
        "flat3": {"schmidt_sq": ["1/3", "1/3", "1/3"]},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def _no_steps(self):
    raise AssertionError("a protocol step was made")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProb:
    def test_skewed_to_bell(self, capsys, states):
        code, out, _ = run(capsys, ["prob", states["skewed"], states["bell"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["probability"] == "2/5"
        assert doc["probability_decimal"] == 0.4
        assert doc["minimizer"] == 2
        assert doc["feasible"] is True
        assert doc["source_monotones"] == ["1", "1/5"]
        assert doc["target_monotones"] == ["1", "1/2"]

    def test_infeasible_pair_reports_reason(self, capsys, states):
        code, out, _ = run(capsys, ["prob", states["bell"], states["flat3"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["probability"] == "0"
        assert doc["feasible"] is False
        assert "nonzero" in doc["reason"]

    def test_float_mode(self, capsys, states):
        code, out, _ = run(capsys, ["prob", states["skewed"], states["bell"],
                                    "--mode", "float"])
        assert code == 0
        doc = json.loads(out)
        assert doc["probability"] == pytest.approx(0.4)

    def test_out_flag_duplicates_stdout(self, capsys, states, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["prob", states["skewed"], states["bell"],
                                    "--out", str(target)])
        assert code == 0
        assert target.read_text() == out


class TestOneOutputPath:
    """main renders each handler's document once: --out receives the
    bytes stdout does, and a file it cannot open fails after stdout."""

    @pytest.mark.parametrize("argv", [
        ["plan", "three_a", "three_b"],
        ["simulate", "three_a", "three_b", "--exhaustive"],
        ["simulate", "three_a", "three_b", "--trials", "500", "--seed", "3"],
        ["monotones", "three_a"], ["compare", "three_a", "three_b"],
        ["tensor", "skewed", "bell", "--copies", "3"],
        *(["demo", name] for name in DEMO_NAMES)])
    def test_out_file_holds_the_stdout_bytes(self, capsys, states, tmp_path,
                                             argv):
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, [states.get(a, a) for a in argv]
                             + ["--out", str(target)])
        assert (code, err) == (0, "")
        assert target.read_bytes() == out.encode("utf-8")

    def test_out_into_a_missing_directory_fails_after_stdout(self, capsys,
                                                             states,
                                                             tmp_path):
        argv = ["plan", states["three_a"], states["three_b"]]
        _, whole, _ = run(capsys, argv)
        code, out, err = run(capsys, argv + [
            "--out", str(tmp_path / "missing" / "plan.json")])
        assert (code, out) == (1, whole)
        assert err.startswith("error: ") and err.count("\n") == 1


class TestPlanAndSimulate:
    def test_plan_document(self, capsys, states):
        code, out, _ = run(capsys, ["plan", states["three_a"],
                                    states["three_b"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["probability"] == "5/6"
        assert doc["breakpoints"]["boundaries"] == [4, 2, 1]
        assert doc["breakpoints"]["ratios"] == ["5/6", "5/4"]
        assert doc["intermediate"] == ["1/2", "1/3", "1/6"]
        assert doc["success_squared"] == ["2/3", "1", "1"]

    def test_simulate_exhaustive(self, capsys, states):
        code, out, _ = run(capsys, ["simulate", states["skewed"],
                                    states["bell"], "--exhaustive"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive"
        assert doc["success_probability"] == "2/5"
        assert doc["predicted"] == "2/5"
        assert doc["branches"] == 2

    def test_simulate_from_saved_plan(self, capsys, states, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, _, _ = run(capsys, ["plan", states["three_a"],
                                  states["three_b"], "--out",
                                  str(plan_path)])
        assert code == 0
        code, out, _ = run(capsys, ["simulate", "--plan", str(plan_path),
                                    "--exhaustive"])
        assert code == 0
        doc = json.loads(out)
        assert doc["success_probability"] == "5/6"

    def test_simulate_monte_carlo(self, capsys, states):
        code, out, _ = run(capsys, ["simulate", states["skewed"],
                                    states["bell"], "--trials", "4000",
                                    "--seed", "11"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "monte_carlo"
        assert doc["trials"] == 4000
        assert doc["predicted"] == "2/5"
        assert abs(doc["empirical"] - 0.4) < 0.05
        assert doc["audit"]

    def test_simulate_seed_reproducible(self, capsys, states):
        args = ["simulate", states["three_a"], states["three_b"],
                "--trials", "2000", "--seed", "21"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2
        _, out3, _ = run(capsys, args + ["--workers", "3"])
        assert out3 == out1

    def test_float_exhaustive_is_never_capped(self, capsys, tmp_path):
        # more histories than BRANCH_CAP: still one exhaustive report,
        # with or without --no-fallback, which has no effect
        rng = np.random.default_rng(2400)
        paths = []
        for name in "ab":
            sv = rand_float_schmidt(rng, 24)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"schmidt_sq": list(sv.probs)}))
        args = ["simulate", *map(str, paths), "--exhaustive", "--mode",
                "float"]
        code, out, err = run(capsys, args)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive"
        assert doc["branches"] > locc.BRANCH_CAP
        assert 0 < doc["success_probability"] == doc["predicted"] < 1
        assert run(capsys, args + ["--no-fallback"]) == (0, out, "")

    def test_inconsistent_plan_is_invalid_input(self, capsys, states,
                                                tmp_path):
        plan_path = tmp_path / "plan.json"
        run(capsys, ["plan", states["three_a"], states["three_b"], "--out",
                     str(plan_path)])
        doc = json.loads(plan_path.read_text())
        doc["success_squared"] = ["1", "1", "1"]
        plan_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["simulate", "--plan", str(plan_path),
                                      "--exhaustive"])
        assert (code, out) == (1, "")
        assert err.startswith("error: plan document is internally "
                              "inconsistent")

    def test_plan_with_foreign_source_is_invalid_input(self, capsys,
                                                      states, tmp_path):
        plan_path = tmp_path / "plan.json"
        run(capsys, ["plan", states["three_a"], states["three_b"], "--out",
                     str(plan_path)])
        doc = json.loads(plan_path.read_text())
        doc["source"] = ["1/3", "1/3", "1/3"]
        plan_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["simulate", "--plan", str(plan_path),
                                      "--exhaustive"])
        assert (code, out) == (1, "")
        assert err == ("error: plan document is internally inconsistent: "
                       "breakpoints\n")

    @pytest.mark.parametrize("n", range(2, 17))
    def test_plan_round_trips_through_simulate(self, capsys, tmp_path, n):
        rng = np.random.default_rng(5100 + n)
        paths = {}
        for name in ("a", "b"):
            sv = rand_rational_schmidt(rng, n)
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(
                {"schmidt_sq": [str(p) for p in sv.probs]}))
        plan_path = tmp_path / "plan.json"
        code, _, _ = run(capsys, ["plan", str(paths["a"]), str(paths["b"]),
                                  "--out", str(plan_path)])
        assert code == 0
        flags = ["--trials", "100", "--seed", str(n)]
        code, out, err = run(capsys, ["simulate", "--plan", str(plan_path)]
                             + flags)
        assert (code, err) == (0, "")
        assert (0, out, "") == run(
            capsys, ["simulate", str(paths["a"]), str(paths["b"])] + flags)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_plan_round_trips_through_simulate(self, capsys, tmp_path,
                                                     n):
        # six-digit decimals pass the document's 12-digit rounding
        # unchanged, so both runs plan the same floats
        rng = np.random.default_rng(5200 + n)
        paths = {}
        for name in ("a", "b"):
            cuts = sorted(rng.choice(np.arange(1, 10**6), n - 1,
                                     replace=False).tolist())
            loads = sorted((y - x for x, y in zip([0] + cuts,
                                                   cuts + [10**6])),
                           reverse=True)
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(
                {"schmidt_sq": [f"{x / 10**6:.6f}" for x in loads]}))
        plan_path = tmp_path / "plan.json"
        flags = ["--mode", "float"]
        code, _, _ = run(capsys, ["plan", str(paths["a"]), str(paths["b"]),
                                  "--out", str(plan_path)] + flags)
        assert code == 0
        flags.append("--exhaustive")
        code, out, err = run(capsys, ["simulate", "--plan", str(plan_path)]
                             + flags)
        assert (code, err) == (0, "")
        assert (0, out, "") == run(
            capsys, ["simulate", str(paths["a"]), str(paths["b"])] + flags)

    def test_simulate_needs_inputs(self, capsys):
        code, _, err = run(capsys, ["simulate"])
        assert code == 1
        assert "error:" in err


class TestOtherCommands:
    def test_monotones(self, capsys, states):
        code, out, _ = run(capsys, ["monotones", states["skewed"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == "skewed pair"
        assert doc["monotones"] == ["1", "1/5"]
        assert doc["entropy_bits"] == pytest.approx(0.72192809, abs=1e-6)

    def test_compare(self, capsys, states):
        code, out, _ = run(capsys, ["compare", states["skewed"],
                                    states["bell"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["p_forward"] == "2/5"
        assert doc["p_backward"] == "1"
        assert doc["verdict"] == "second_greater"

    def test_tensor(self, capsys, states):
        code, out, _ = run(capsys, ["tensor", states["half_quarters"],
                                    states["three_b"], "--copies", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["single_copy"] == "5/6"
        assert doc["single_copy_power"] == "25/36"
        assert doc["joint"] == "25/28"
        assert doc["joint_beats_power"] is True


class TestDemos:
    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_all_demos_run(self, capsys, name):
        code, out, _ = run(capsys, ["demo", name])
        assert code == 0
        assert out.strip()

    def test_cycle_demo_content(self, capsys):
        _, out, _ = run(capsys, ["demo", "paper-cycle"])
        for token in ("P(1 -> 2) = 6/13", "P(2 -> 1) = 1/2",
                      "P(2 -> 3) = 6/25", "P(3 -> 2) = 1/2",
                      "P(3 -> 1) = 1/4", "P(1 -> 3) = 36/97",
                      "cycle: 1 < 2 < 3 < 1"):
            assert token in out

    def test_nonadditivity_demo_content(self, capsys):
        _, out, _ = run(capsys, ["demo", "non-additivity"])
        assert "25/28" in out and "25/36" in out

    def test_multi_copy_demo_content(self, capsys):
        _, out, _ = run(capsys, ["demo", "multi-copy"])
        assert "= 0 " in out
        assert "2/5" in out

    @pytest.mark.parametrize("name, sha", [
        ("paper-cycle", "a08df30937502c4c1cac653ce26c090b"
                        "5813a00a84816b0fe2c7e782ae033807"),
        ("non-additivity", "e5fa60daf372ed1400640abfbd26e12f"
                           "fdd3e2845c02886058096a74bb2cefd4"),
        ("lo-popescu", "0e58f260f5870db8a10cf88b82c12042"
                       "f2ea4752f3501044c54cfcffa591fbac"),
        ("multi-copy", "a745eae828bd9fe8a4d8a1920be580f4"
                       "fb7655cfe509663f75ed1f2068549ab5")])
    def test_demo_text_is_pinned(self, capsys, name, sha):
        code, out, err = run(capsys, ["demo", name])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestArgumentParsing:
    """A subcommand's arguments are parsed by its own parser alone; the
    results, messages and exit codes are those of the whole parser."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["--bogus"], ["sim"], ["--mode=float"],
        ["simulate", "--trials", "x"], ["simulate", "a", "b", "--bogus"],
        ["simulate", "--help"], ["prob", "a"], ["prob", "a", "b", "c"],
        ["prob", "a", "b", "--bogus", "-x"], ["demo", "nope"],
        ["tensor", "a", "b", "--copies", "--", "2"]])
    def test_refusals_and_help_match_the_whole_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as whole:
            cli.build_parser().parse_args(argv)
        want = capsys.readouterr()
        code = 0 if whole.value.code == 0 else 1
        assert run(capsys, argv) == (code, want.out, want.err)

    def test_unrecognized_arguments_keep_the_top_level_usage(self, capsys):
        code, out, err = run(capsys, ["simulate", "a", "b", "--bogus"])
        assert (code, out) == (1, "")
        assert err.startswith("usage: entconvert [-h]")
        assert err.endswith(
            "entconvert: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv", [
        ["prob", "a", "b", "--mode=float", "--tolerance", "0"],
        ["simulate", "--plan", "p", "--exhaustive", "--seed", "3"],
        ["simulate", "a", "b", "--trials=5", "--out", "o.json"],
        ["demo", "paper-cycle"], ["tensor", "--", "a", "b"]])
    def test_namespace_matches_the_whole_parser(self, argv):
        assert cli._parse(argv) == cli.build_parser().parse_args(argv)


# state entries whose refusal quotes an integer of more than
# MAX_SHOWN_DIGITS digits, up to and past Python's 4,300-digit limit on
# str, and how the refusal ends
PAST_THE_DIGIT_LIMIT = {
    "1e4300": (["1e4300", "1"],
               "exact entries sum to [4301-digit integer], not 1"),
    "1e-4300": (["1e-4300", "1"],
                "exact entries sum to [4301-digit integer]/"
                "[4301-digit integer], not 1"),
    "-1e4300": (["-1e4300", "1"],
                "negative squared coefficient -[4301-digit integer]"),
    "-1e-4300": (["-1e-4300", "1"],
                 "negative squared coefficient -1/[4301-digit integer]"),
    "0.5+1e-4300": (["0.5", "1e-4300"],
                    "exact entries sum to [4300-digit integer]/"
                    "[4301-digit integer], not 1"),
}


class TestFailureModes:
    def test_missing_file_is_invalid_input(self, capsys):
        code, _, err = run(capsys, ["prob", "/nonexistent.json",
                                    "/nonexistent.json"])
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_state_is_invalid_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schmidt_sq": ["1/2", "1/3"]}))
        code, _, err = run(capsys, ["monotones", str(bad)])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command", ["compare", "prob", "plan"])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_non_finite_entry_is_invalid_input(self, capsys, states,
                                               tmp_path, command, mode):
        bad = tmp_path / "nan.json"
        bad.write_text('{"schmidt_sq": [NaN, 0.5, 0.5]}')
        code, out, err = run(capsys, [command, str(bad), states["bell"],
                                      "--mode", mode])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_non_finite_plan_is_invalid_input(self, capsys, states,
                                              tmp_path):
        plan_path = tmp_path / "plan.json"
        run(capsys, ["plan", states["three_a"], states["three_b"], "--out",
                     str(plan_path)])
        plan_path.write_text(plan_path.read_text().replace('"5/6"', "NaN"))
        code, out, err = run(capsys, ["simulate", "--plan", str(plan_path),
                                      "--exhaustive"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_infeasible_simulation_exits_two(self, capsys, states):
        code, _, err = run(capsys, ["simulate", states["bell"],
                                    states["flat3"]])
        assert code == 2
        assert err.startswith("infeasible:")

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "trials must be positive"),
        (["--trials", "-3", "--workers", "0"], "trials must be positive"),
        (["--workers", "0"], "workers must be positive"),
        (["--workers", "0", "--seed", "-1"], "workers must be positive"),
    ])
    def test_sampling_size_is_checked(self, capsys, states, flags, message):
        code, out, err = run(capsys, ["simulate", states["skewed"],
                                      states["bell"], *flags])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("seed, code", [
        (-1, 1), (2 ** 128, 1), (2 ** 128 - 1, 0), (0, 0)])
    def test_seed_must_fit_the_generator_key(self, capsys, states,
                                             monkeypatch, seed, code):
        # the Philox key is 128 bits; a seed outside it is refused before
        # the protocol is built
        if code:
            monkeypatch.setattr(locc.LocalMeasurement, "__post_init__",
                                _no_steps)
        got, out, err = run(capsys, ["simulate", states["skewed"],
                                     states["bell"], "--trials", "10",
                                     "--seed", str(seed)])
        assert got == code
        if code:
            assert out == ""
            assert err == ("error: --seed must be at least 0 and below "
                           "2**128\n")
        else:
            assert err == ""

    def test_infeasibility_is_reported_first(self, capsys, states):
        code, out, err = run(capsys, ["simulate", states["bell"],
                                      states["flat3"], "--trials", "0",
                                      "--workers", "0", "--seed", "-1"])
        assert (code, out) == (2, "")
        assert err.startswith("infeasible:")

    def test_exhaustive_ignores_the_sampling_flags(self, capsys, states):
        args = ["simulate", states["skewed"], states["bell"], "--exhaustive"]
        code, out, err = run(capsys, args)
        assert (code, err) == (0, "")
        assert run(capsys, args + ["--trials", "0", "--workers", "0",
                                   "--seed", "-1"]) == (0, out, "")

    def test_unknown_flag_is_invalid_input(self, capsys, states):
        code, _, _ = run(capsys, ["prob", states["bell"], states["bell"],
                                  "--bogus"])
        assert code == 1

    def test_bad_copies_value(self, capsys, states):
        code, _, err = run(capsys, ["tensor", states["bell"], states["bell"],
                                    "--copies", "0"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["prob"], ["plan"], ["compare"], ["tensor"], ["simulate"],
        ["simulate", "--exhaustive"]])
    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-15", "-0.5",
                                           "abc"])
    def test_invalid_tolerance_is_invalid_input(self, capsys, states,
                                                tmp_path, argv, tolerance):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"schmidt_sq": ["1/2", "1/2", "0"]}))
        code, out, err = run(capsys, argv + [
            states["three_a"], str(zero), "--mode", "float",
            f"--tolerance={tolerance}"])
        assert (code, out) == (1, "")
        assert "--tolerance" in err
        assert "Traceback" not in err
        assert err.count("error:") == 1 and f"got {tolerance!r}" in err

    def test_zero_tolerance_is_accepted(self, capsys, states):
        code, out, _ = run(capsys, ["prob", states["skewed"], states["bell"],
                                    "--mode", "float", "--tolerance", "0"])
        assert code == 0
        assert json.loads(out)["probability_decimal"] == 0.4

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_exponent_over_limit_is_invalid_input(self, capsys, states,
                                                  tmp_path, mode):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"schmidt_sq": ["1e5000", "1"]}))
        code, out, err = run(capsys, ["prob", str(huge), states["bell"],
                                      "--mode", mode])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exponent" in err

    @pytest.mark.parametrize("entry", sorted(PAST_THE_DIGIT_LIMIT))
    @pytest.mark.parametrize("via", ["prob", "simulate --plan"])
    def test_value_past_the_digit_limit_is_named(self, capsys, states,
                                                 tmp_path, entry, via):
        # the refusal shows each long integer's size, not its digits,
        # whose text may pass the limit on the digits str may make
        entries, ending = PAST_THE_DIGIT_LIMIT[entry]
        if via == "prob":
            state = tmp_path / "state.json"
            state.write_text(json.dumps({"schmidt_sq": entries}))
            argv = ["prob", str(state), states["bell"]]
        else:
            plan = tmp_path / "plan.json"
            assert run(capsys, ["plan", states["skewed"], states["bell"],
                                "--out", str(plan)])[0] == 0
            doc = json.loads(plan.read_text())
            doc["source"] = entries
            plan.write_text(json.dumps(doc))
            argv = ["simulate", "--plan", str(plan), "--exhaustive"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.endswith(ending + "\n")
        assert err.count("\n") == 1
        assert "sys." not in err and "()" not in err

    def test_output_past_the_digit_limit_is_refused(self, capsys, tmp_path):
        # a valid state, 1 - 10**-4300 and 10**-4300: its monotones, and
        # a plan or prob that prints them, need a 4,301-digit denominator
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"schmidt_sq": ["0." + "9" * 4300, "1e-4300"]}))
        path = str(state)
        for argv in (["monotones", path], ["prob", path, path],
                     ["plan", path, path]):
            assert run(capsys, argv) == (
                1, "", "error: cannot print an exact value with a "
                "[4301-digit integer]: past the limit of 4300 digits\n")
        for argv in (["compare", path, path],
                     ["simulate", path, path, "--exhaustive"]):
            code, _, err = run(capsys, argv)
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("levels, copies", [(2, "17"),
                                                (1, "1000000000")])
    def test_tensor_power_over_limit_is_invalid_input(self, capsys, tmp_path,
                                                      levels, copies):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"schmidt_sq": [f"1/{levels}"] * levels}))
        code, out, err = run(capsys, ["tensor", str(state), str(state),
                                      "--copies", copies])
        assert (code, out) == (1, "")
        assert err.startswith("error: tensor power too large")

    @pytest.mark.parametrize("flags", [["--exhaustive"], []])
    def test_audit_over_limit_is_invalid_input(self, capsys, states,
                                               monkeypatch, flags):
        # three levels, four steps: 15 cells, one past the patched limit,
        # refused before the protocol is built
        monkeypatch.setattr(locc, "MAX_AUDIT_CELLS", 14)
        monkeypatch.setattr(locc.LocalMeasurement, "__post_init__",
                            _no_steps)
        code, out, err = run(capsys, ["simulate", states["three_a"],
                                      states["three_b"], *flags])
        assert (code, out) == (1, "")
        assert err == ("error: audit too large: 3 levels x 5 step "
                       "boundaries = 15 cells (limit 14)\n")

    @pytest.mark.parametrize("extra", [["--exhaustive"],
                                       ["--trials", "500", "--seed", "3"]])
    def test_float_plan_refused_in_exact_arithmetic(self, capsys, tmp_path,
                                                    extra):
        # planned in floats, this pair's intermediate state majorizes the
        # source only up to rounding; planned on the exact value of the
        # floats it majorizes exactly, and the protocol runs
        paths = []
        for name, values in (
                ("source", [0.4178899101020145, 0.29413420190845246,
                            0.22282938363663637, 0.06514650435289661]),
                ("target", [0.3525155968935936, 0.2720785050141842,
                            0.216458009209973, 0.15894788888224937])):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"schmidt_sq": values}))
        code, out, err = run(capsys, ["simulate", *map(str, paths),
                                      "--mode", "float", *extra])
        assert (code, err) == (0, "")
        code, prob, err = run(capsys, ["prob", *map(str, paths),
                                       "--mode", "float"])
        predicted = json.loads(prob)["probability"]
        doc = json.loads(out)
        assert doc["predicted"] == predicted
        if doc["mode"] == "exhaustive":
            assert abs(doc["success_probability"] - predicted) <= 1e-12
        else:
            assert abs(doc["empirical"] - predicted) <= 5 * math.sqrt(
                predicted * (1 - predicted) / 500)


# Full stdout of three simulate runs, pinned by size and SHA-256: any
# change to the printed digits, such as a different summation order in
# the audit averages, shows here.  The exact and sampled runs share a
# 5-level pair with three balancing measurements (8 branches); the float
# run plans its decimal inputs on their exact binary values, also with
# three measurements.
GOLDEN_STATES = {
    "e": ["37/100", "23/100", "19/100", "13/100", "8/100"],
    "f": ["27/100", "26/100", "21/100", "17/100", "9/100"],
    "fa": ["0.3115", "0.2869", "0.1967", "0.1311", "0.0738"],
    "fb": ["0.2566", "0.2566", "0.25", "0.2039", "0.0329"],
}
GOLDEN_RUNS = {
    "exhaustive-exact": (
        ["e", "f", "--exhaustive"], 2833,
        "0ea1b3f211e91416e4714207e868ff20552990285879f9c25139d87542628587"),
    "exhaustive-float": (
        ["fa", "fb", "--exhaustive", "--mode", "float"], 2917,
        "69ff984207d8a0fbabb4e3731bd623d2bf95e50a25300dc31374b385be86471d"),
    "monte-carlo": (
        ["e", "f", "--trials", "3000", "--seed", "5"], 2861,
        "e08fd18e50d4013e0a4765932f78e08f15f4d659ebcf96fbdbfcbcdfb86d7f55"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_simulate_stdout_is_pinned(capsys, tmp_path, name):
    paths = {}
    for label, values in GOLDEN_STATES.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps({"schmidt_sq": values}))
    args, size, sha = GOLDEN_RUNS[name]
    argv = ["simulate"] + [str(paths.get(a, a)) for a in args]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_default_simulate_of_a_64_level_pair(capsys, tmp_path, mode):
    # 10,000 trials over 60 or so measurements: the sampled run keeps
    # per-level counts of integer states, not a tree of amplitudes
    rng = np.random.default_rng(6400)
    pair = [rand_rational_schmidt(rng, 64) for _ in range(2)]
    paths = []
    for name, sv in zip("ab", pair):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(
            {"schmidt_sq": [str(p) for p in sv.probs]}))
    code, out, err = run(capsys, ["simulate", *map(str, paths), "--mode",
                                  mode])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    p = float(optimal_probability(*pair))
    assert doc["mode"] == "monte_carlo"
    assert doc["trials"] == 10000
    assert abs(doc["successes"] - 10000 * p) <= 5 * math.sqrt(
        10000 * p * (1 - p))
    m = build_full_protocol(build_plan(*pair)).measurement_count
    assert len(doc["audit"]) == 64 * (3 * (m - 1) + 2)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("flags", [["--exhaustive"],
                                   ["--trials", "3000", "--seed", "5"]])
def test_simulate_runs_on_integer_states_alone(capsys, tmp_path,
                                              monkeypatch, mode, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate reached amplitude-level code")

    for name in ("locc.exhaustive_run", "locc.monte_carlo_run",
                 "locc.schmidt_decompose", "schmidt.schmidt_decompose",
                 "locc.LocalUnitary._derive"):
        monkeypatch.setattr(f"entconvert.{name}", refuse)
    monkeypatch.setattr(locc.ExactMonomial, "matrix", property(refuse))
    paths = []
    for label in ("fa", "fb"):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps({"schmidt_sq": GOLDEN_STATES[label]}))
    code, out, err = run(capsys, ["simulate", *map(str, paths), "--mode",
                                  mode, *flags])
    assert (code, err) == (0, "")
    assert json.loads(out)["mode"] == ("exhaustive" if "--exhaustive" in flags
                                       else "monte_carlo")


def test_exact_simulate_is_never_capped(capsys, tmp_path):
    # 2**56 histories or so, far beyond BRANCH_CAP: an exhaustive report,
    # where enumerating fell back to sampling
    rng = np.random.default_rng(6400)
    pair = [rand_rational_schmidt(rng, 64) for _ in range(2)]
    paths = []
    for name, sv in zip("ab", pair):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(
            {"schmidt_sq": [str(p) for p in sv.probs]}))
    code, out, err = run(capsys, ["simulate", *map(str, paths),
                                  "--exhaustive", "--no-fallback"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    plan = build_plan(*pair)
    m = build_full_protocol(plan).measurement_count
    # both outcomes of every balancing step happen; the filter fails
    # with probability 1 - p, which is not 0 here
    p = optimal_probability(*pair)
    assert 0 < p < 1
    assert doc["branches"] == 2 ** m > locc.BRANCH_CAP
    assert doc["success_probability"] == doc["predicted"] == str(p)
    assert len(doc["audit"]) == 64 * (3 * (m - 1) + 2)


def test_infeasible_float_plan_pads_the_source(capsys, tmp_path):
    paths = []
    for name, values in (("a", ["0.5", "0.5"]), ("b", ["0.4", "0.3", "0.3"])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"schmidt_sq": values}))
    code, out, err = run(capsys, ["plan", *map(str, paths), "--mode",
                                  "float"])
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "breakpoints": None, "failure_squared": None, "intermediate": None,
        "probability": 0.0, "source": [0.5, 0.5, 0.0],
        "success_squared": None, "target": [0.4, 0.3, 0.3]},
        indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("excess, untrimmed", [
    (1.75e-10, 0.500000000175), (7e-10, 0.5), (-7e-10, 0.5)],
    ids=["sum_in_slack", "sum_past_slack", "sum_short_of_slack"])
def test_trim_zeros_renormalizes_amplitudes(capsys, tmp_path, excess,
                                            untrimmed):
    # a norm of 1 + excess passes BipartiteState's 1e-9 check; its squares
    # sum to about 1 + 2 * excess.  --trim-zeros renormalizes them, and
    # so does the untrimmed load once they miss 1 by more than 1e-9
    a = math.sqrt(0.5 + excess)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [[[a, 0], [0, 0]],
                                               [[0, 0], [a, 0]]]}))
    code, out, err = run(capsys, ["monotones", str(path), "--trim-zeros"])
    assert (code, err) == (0, "")
    assert json.loads(out)["monotones"] == [1.0, 0.5]
    code, out, err = run(capsys, ["monotones", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["monotones"] == [1.0, untrimmed]


class TestFloatPlanTrim:
    """Two source entries of 6e-10 count as 0 and are dropped for
    planning; together they exceed the 1e-9 sum slack, so the kept head
    is renormalized rather than refused."""

    @pytest.fixture
    def pair(self, tmp_path):
        paths = []
        for name, values in (("source", [0.5, 0.4999999988, 6e-10, 6e-10]),
                             ("target", [0.6, 0.4])):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"schmidt_sq": values}))
        return [str(p) for p in paths]

    def test_plan(self, capsys, pair):
        code, out, err = run(capsys, ["plan", *pair, "--mode", "float"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["probability"] == 1.0
        assert doc["source"] == [0.5000000006, 0.4999999994]
        assert doc["intermediate"] == doc["target"] == [0.6, 0.4]

    def test_simulate_and_plan_round_trip(self, capsys, pair, tmp_path):
        flags = ["--mode", "float", "--exhaustive"]
        code, out, err = run(capsys, ["simulate", *pair, *flags])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["predicted"] == doc["success_probability"] == 1.0
        plan_path = str(tmp_path / "plan.json")
        assert run(capsys, ["plan", *pair, "--mode", "float", "--out",
                            plan_path])[0] == 0
        assert run(capsys, ["simulate", "--plan", plan_path, *flags]) == (
            0, out, "")


def _loads(seed, n, top):
    """n pseudo-random loads in 1..top from a fixed LCG (no library RNG)."""
    x, loads = seed, []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2 ** 31
        loads.append(1 + x % top)
    return loads


def _load_state(seed, n, top, zeros):
    """Unsorted exact entries: ties every 7th load, ``zeros`` zero tails,
    each entry written over the unreduced total."""
    loads = _loads(seed, n - zeros, top)
    loads = [loads[i - 1] if i % 7 == 0 else v for i, v in enumerate(loads)]
    total = sum(loads)
    return [f"{v}/{total}" for v in loads] + ["0"] * zeros


# Exact inputs with unrelated denominators (within and across vectors),
# ties, zero tails and unequal lengths, up to n = 256, plus decimal float
# inputs; the query subcommands' full stdout is pinned like simulate's.
QUERY_STATES = {
    "a256": _load_state(11, 256, 97, 3),
    "b240": _load_state(29, 240, 50, 2),
    "a40": _load_state(5, 40, 30, 1),
    "b36": _load_state(7, 36, 12, 0),
    "a12": _load_state(3, 12, 9, 1),
    "b10": _load_state(13, 10, 5, 0),
    "mixed": ["1/3", "1/7", "1/11", "1/11", "1/13", "1/17", "0", "0.0125",
              "1582538/8168160"],
    "short": ["5/8", "1/4", "1/8"],
    "fa": ["0.3115", "0.2869", "0.1967", "0.1311", "0.0738"],
    "fb": ["0.2566", "0.2566", "0.25", "0.2039", "0.0329"],
}
QUERY_RUNS = {
    "prob-256": (
        ["prob", "a256", "b240"], 8621,
        "7e050cf3727b915035866d14e147c76abe7e72dc86832ca025b5c86298f2a488"),
    "prob-mixed": (
        ["prob", "mixed", "fa"], 397,
        "26466ed0a603500959e92f089c25f673bdb0d3bc709b904dd2f9f59ac18a6214"),
    "prob-infeasible": (
        ["prob", "short", "mixed"], 389,
        "e6ff04e6bab67ce80c2b1b049e5c15aeb8ac886692fa8db7f4b024066c7a6be7"),
    "plan-256": (
        ["plan", "a256", "b240"], 22452,
        "fa46d5595dfc0a0cd740d7843022eecce3a84c2ef07fc9c4645c72e1a50501f7"),
    "plan-40": (
        ["plan", "a40", "b36"], 2905,
        "510efc6e21038f6222b9ee9e7b5bb543a93fc7fbd225e0936dd94477fda34632"),
    "plan-mixed": (
        ["plan", "mixed", "fb"], 765,
        "50bb652c367a4a99d800920239eb6540289a5e7f54ba5410d7d1b3950cba4423"),
    "plan-decimal": (
        ["plan", "fa", "fb"], 715,
        "a9248d9227b7f4fb3e9673b1ba4a378c1961e355b18805da18ee8673a7c3e42c"),
    "plan-infeasible": (
        ["plan", "short", "mixed"], 344,
        "e6af4dee3cf63d2b33899024ef4a43765a7900f6ee9f47fb3f9334ceb09810ae"),
    "compare-256": (
        ["compare", "b240", "a256"], 89,
        "d0c3ff8d1eb740112d4ee54fd9c3bda096048187929b987d56f54c857d7c2de6"),
    "compare-mixed": (
        ["compare", "mixed", "fb"], 84,
        "717ce7d13825c634ea3df55fb12f081fa37f1d6f97f28611aabb6a2ca06327a0"),
    "monotones-256": (
        ["monotones", "a256"], 8642,
        "bde82518447e3a399d230526df46cf4089f273f08e4c5e1249fce8123e332154"),
    "monotones-mixed": (
        ["monotones", "mixed"], 355,
        "a47e2a6de941deacdb1c338eafc02cbe514773bd15d880e3fbb8d962aa59fa68"),
    "tensor-2": (
        ["tensor", "a40", "b36", "--copies", "2"], 165,
        "0b2509c100374a363ca3823ec665956f3bb2b397a1e9582395879d6c27a7fcef"),
    "tensor-3": (
        ["tensor", "a12", "b10", "--copies", "3"], 145,
        "cdeaf4f3eb19fff23a3676054807e43189f9954fd5bce576b6591c21288d2eae"),
    "tensor-3-mixed": (
        ["tensor", "mixed", "fb", "--copies", "3"], 183,
        "1bf5fcd873bd2a1bff1144c9ca40d51969c17afd9fbd254f2ee5d0339dcfa6a0"),
    "prob-float": (
        ["prob", "fa", "fb", "--mode", "float"], 303,
        "6eda68aff949865214360d3255d521bf9e8e1f20849f54a5c3c30493e1e464b0"),
    "plan-float": (
        ["plan", "fa", "fb", "--mode", "float"], 658,
        "7c451b122d9ae1ffbe61fcb1c4133a635cdc546af7413a7b5671d48b48c8d349"),
}


@pytest.mark.parametrize("name", sorted(QUERY_RUNS))
def test_query_stdout_is_pinned(capsys, tmp_path, name):
    paths = {}
    for label, values in QUERY_STATES.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps({"schmidt_sq": values}))
    args, size, sha = QUERY_RUNS[name]
    code, out, err = run(capsys, [str(paths.get(a, a)) for a in args])
    assert (code, err) == (0, "")
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# Runs cli.main on each argv of a JSON list in one fresh interpreter and
# prints, as JSON, which modules of a second JSON list are loaded after
# `import entconvert`, after `import entconvert.cli` and after each call,
# with the package's __all__ and, read first, `dir(entconvert)`.  At the
# end it reads the lazy names: what
# `from entconvert import *` binds, `dir(entconvert)`, and whether a name
# served by the package is the one locc defines.
_NUMPY_PROBE = """
import contextlib, io, json, sys
argvs, watched = map(json.loads, sys.argv[1:])
def loaded():
    return [name in sys.modules for name in watched]
import entconvert
first_dir = dir(entconvert)
report = {"import": loaded(), "all": entconvert.__all__,
          "first dir": first_dir}
from entconvert.cli import main
report["import cli"] = loaded()
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report[" ".join(argv)] = [code, *loaded()]
star = {}
exec("from entconvert import *", star)
report["star"] = sorted(set(star) - {"__builtins__"})
report["dir"] = dir(entconvert)
report["same"] = (entconvert.merged_run_exact
                  is entconvert.locc.merged_run_exact)
print(json.dumps(report))
"""

PACKAGE_ALL = (
    "Announce BOTH_UNIT BipartiteState Branch BranchLimitError Breakpoints "
    "ComparisonResult ConversionPlan DensityOperator EQUAL Ensemble "
    "ExactMonomial FIRST_GREATER INTRANSITIVE_TRIPLE "
    "InfeasibleConversionError IntermediateOrderError InvalidStateError "
    "LocalMeasurement LocalUnitary LoccProtocol MULTI_COPY_POSSIBLE "
    "MajorizationError MeasurementOutcome MergedRun MonotoneVector "
    "MonotoneViolationError MultiCopyBound NonadditivityInstance OutcomeIs "
    "PlanInvariantError ProtocolError SECOND_GREATER SINGLE_COPY_OPTIMAL "
    "SUPERMULTIPLICATIVE_PAIR SchmidtVector SimulationReport "
    "apply_measurement audit_trajectories breakpoints build_full_protocol "
    "build_plan compare conversion deterministic_protocol ensemble_average "
    "entanglement_monotone entropy_of_entanglement exhaustive_run "
    "exhaustive_run_exact find_cycle intermediate_state locc majorizes "
    "measurement_operators merged_run_exact merged_sample_exact "
    "monotone_audit monotone_profile monotones monte_carlo_run "
    "multi_copy_bound nonadditivity_search numeric optimal_probability "
    "optimal_probability_detail ordering reduced_density schmidt "
    "schmidt_decompose smallest_eigenvalue_sum state_from_schmidt "
    "success_probability tensor_conversion_probability tensor_power").split()


def _numpy_probe(argvs, watched=("numpy",)):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs),
         json.dumps(watched)], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestNumpyOnlyOnAmplitudePaths:
    def test_schmidt_vector_commands_leave_numpy_unloaded(self, states,
                                                          tmp_path):
        # and only simulate loads locc
        a, b = states["three_a"], states["three_b"]
        plan = str(tmp_path / "plan.json")
        closed = [["prob", a, b], ["compare", a, b],
                  ["plan", a, b, "--out", plan], ["monotones", a],
                  ["tensor", a, b, "--copies", "2"],
                  *(["demo", name] for name in DEMO_NAMES)]
        exact = [["simulate", a, b, "--exhaustive"],
                 ["simulate", a, b, "--exhaustive", "--mode", "float"],
                 ["simulate", "--plan", plan, "--exhaustive"]]
        sampled = ["simulate", a, b, "--trials", "100", "--seed", "1"]
        report = _numpy_probe([*closed, *exact, sampled],
                              ["numpy", "entconvert.locc"])
        assert report["import"] == report["import cli"] == [False, False]
        assert report["all"] == PACKAGE_ALL
        for argv in closed:
            assert report[" ".join(argv)] == [0, False, False], argv
        for argv in exact:
            assert report[" ".join(argv)] == [0, False, True], argv
        # the sampled run draws with numpy, so the checks above can fail
        assert report[" ".join(sampled)] == [0, True, True]

    def test_amplitude_state_file_loads_numpy(self, tmp_path):
        amps = tmp_path / "amps.json"
        amps.write_text(json.dumps(
            {"amplitudes": [[[0.6, 0], [0, 0]], [[0, 0], [0.8, 0]]]}))
        report = _numpy_probe([["monotones", str(amps)]])
        assert report["import"] == [False]
        assert report[f"monotones {amps}"] == [0, True]


def test_locc_names_are_served_lazily():
    report = _numpy_probe([], ["entconvert.locc"])
    assert report["import"] == report["import cli"] == [False]
    assert report["all"] == PACKAGE_ALL and len(PACKAGE_ALL) == 74
    assert report["star"] == sorted(PACKAGE_ALL)
    assert set(PACKAGE_ALL) <= set(report["dir"])
    assert report["same"] is True


def test_package_dir_lists_the_lazy_names_before_locc_loads():
    report = _numpy_probe([], ["entconvert.locc"])
    # read before any lazy name, and without loading locc
    assert report["import"] == [False]
    lazy = {*entconvert._LOCC, "locc"}
    assert len(lazy) == 24 and lazy <= set(report["first dir"])
    assert set(PACKAGE_ALL) <= set(report["first dir"])
