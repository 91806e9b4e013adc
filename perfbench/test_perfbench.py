"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import json
from fractions import Fraction as F

import pytest

import reference
import run
import spans
import workloads


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile(9) is None
    assert run.highest_percentile(20) == 50
    assert run.highest_percentile(99) == 50
    assert run.highest_percentile(100) == 90
    assert run.highest_percentile(999) == 90
    assert run.highest_percentile(1000) == 99
    assert run.highest_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.percentile([7.0], 90) == 7.0


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert list(spans.self_times(starts, ends, parents)) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_nested_spans_and_counts_an_error_once():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return wrapped_inner(x) + 1

    wrapped_inner = tracer.wrap(inner)
    wrapped_outer = tracer.wrap(outer)
    tracer.begin_op(0)
    assert wrapped_outer(1) == 2
    tracer.end_op()
    with pytest.raises(ValueError):
        wrapped_outer(-1)
    tracer.end_op()
    assert list(tracer.parents) == [-1, 0, -1, 2]
    totals = tracer.totals()
    assert {name.rsplit(".", 1)[1]: calls
            for name, (calls, _) in totals.items()} == {"inner": 2,
                                                        "outer": 2}
    assert sum(tracer.errors.values()) == 1


def test_missing_call_site_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "SITES", (("json", "no_such_function"),))
    monkeypatch.setattr(spans, "ROOT", ("json", "dumps"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["json.no_such_function"]


class _Gate:
    """Reads full speed or not in a fixed cycle."""

    def __init__(self, pattern):
        self._pattern = itertools.cycle(pattern)

    def fast(self):
        return next(self._pattern)


def test_timed_runs_ops_at_full_speed_and_keeps_each_best(monkeypatch):
    monkeypatch.setattr(run, "check", lambda *args: None)
    ops = [workloads.Op("prob", ("prob", f"s{i}"), ()) for i in range(3)]
    runner = run.Runner(ops, [list(op.argv) for op in ops], [{}] * 3)

    def main(argv):
        print(argv[1])
        return 0

    rows = runner.timed(main, 0.05, _Gate([False, True]))
    assert len(rows) == run.MIN_PASSES
    assert min(runner.samples) > run.MIN_PASSES
    assert runner.attempted == sum(runner.samples)
    assert all(b <= min(c) for b, c in zip(runner.best, zip(*rows)))
    assert runner.consistent and runner.failed == 0
    assert run.Gate().fast()     # the first probe sets the floor


def test_paired_runs_each_op_both_ways_and_restores_the_sites(monkeypatch):
    monkeypatch.setattr(run, "check", lambda *args: None)
    monkeypatch.setattr(spans, "SITES", (("json", "loads"),))
    monkeypatch.setattr(spans, "ROOT", ("json", "dumps"))
    ops = [workloads.Op("prob", ("prob", f"s{i}"), ()) for i in range(2)]
    runner = run.Runner(ops, [list(op.argv) for op in ops], [{}] * 2)
    loads = json.loads
    untraced, traced = runner.paired(json.dumps, spans.Tracer())
    assert json.loads is loads
    assert runner.attempted == 2 * run.PAIRED_ROUNDS * len(ops)
    assert all(0 < t < 1 for t in untraced + traced)
    assert runner.consistent


def test_a_changed_output_breaks_the_digest(monkeypatch):
    monkeypatch.setattr(run, "check", lambda *args: None)
    ops = [workloads.Op("prob", ("prob", "s0"), ())]
    runner = run.Runner(ops, [list(ops[0].argv)], [{}])
    runner.run_op(0, lambda argv: print("first") or 0)
    digest = runner.digest()
    runner.run_op(0, lambda argv: print("first") or 0)
    assert runner.consistent and runner.digest() == digest
    runner.run_op(0, lambda argv: print("second") or 0)
    assert not runner.consistent


def _s144(*nums):
    return tuple(F(x, 144) for x in nums)


def test_reference_closed_form_matches_the_acceptance_values():
    s1, s2, s3 = (_s144(108, 12, 12, 12), _s144(66, 66, 6, 6),
                  _s144(47, 47, 47, 3))
    got = [reference.closed_form(x, y)[0]
           for x, y in ((s1, s2), (s2, s1), (s2, s3), (s3, s2), (s3, s1),
                        (s1, s3))]
    assert got == [F(6, 13), F(1, 2), F(6, 25), F(1, 2), F(1, 4), F(36, 97)]
    alpha = (F(1, 2), F(1, 4), F(1, 4))
    beta = (F(2, 5), F(2, 5), F(1, 5))
    assert reference.closed_form(reference.tensor_power(alpha, 2),
                                 reference.tensor_power(beta, 2))[0] == F(25, 28)


def test_reference_plan_of_the_two_level_example():
    alpha, bell = (F(4, 5), F(1, 5)), (F(1, 2), F(1, 2))
    assert reference.closed_form(alpha, bell) == (F(2, 5), 2)
    gamma = reference.intermediate(alpha, bell)
    assert gamma == [F(4, 5), F(1, 5)]
    assert reference.chain_length(alpha, gamma) == 0
    # one T-transform mixes the first and last level
    assert reference.chain_length((F(1, 2), F(1, 4), F(1, 4)),
                                  (F(3, 4), F(1, 4), F(0))) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.build(workload, 7)
    assert workloads.build(workload, 7) == first
    assert workloads.build(workload, 8)[0] != first[0]
    assert len(first[1]) >= run.MIN_OPS


def test_exhaustive_pairs_follow_the_measurement_ladder():
    _, ops = workloads.build("simulate", 3)
    ladder = [(len(op.states[0]), workloads.measurements(*op.states))
              for op in ops if op.kind == "exhaustive"]
    assert ladder == [(n, m) for n in workloads.EXHAUSTIVE_SIZES
                      for m, pairs in enumerate(workloads.EXHAUSTIVE_PAIRS, 1)
                      for _ in range(pairs)]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.end_to_end([0.001] * run.MIN_OPS, 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    layer = run.per_layer(spans.Tracer(), 1, [1.0], [1.0], (0.3, 0.2, 0.1),
                          0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}
