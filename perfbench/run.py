"""Benchmark of the entconvert CLI, driven in-process through cli.main(argv).

    python3 perfbench/run.py --workload query --seed 1 --seconds 50 --trace 0

One closed-loop client (this process) calls ``entconvert.cli.main`` with
stdout and stderr captured, one op after another.  A run is: set-up
(fresh interpreters import the CLI and write the seeded state files), one
untimed warm-up pass, two whole timed passes over the op list (at least
100 ops, each with its own inputs), then more runs of the ops, round
robin, at moments when the CPU is at full speed, until --seconds have
passed.  The host is shared, and its CPU flips between full speed and
about half of it from one second to the next, in proportions that change
over minutes; a short probe before and after each op tells which (class
``Gate``).  An op's latency is its best over all its runs: contention
only ever adds time, so the best is what the op costs.  Every op's output
is checked against the stdlib reference outside the timed region, and
must be byte-identical in every run.  With --trace 1 five more whole
passes run with spans around the package's cross-module calls, then every
op runs untraced and traced back to back for the tracing overhead, and the
per-layer metrics replace the end-to-end ones.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
SETUP_WAIT_S = 1.0       # at most, for a full-speed moment before a set-up
MIN_OPS = 100            # p90 with ten ops beyond it
MIN_PASSES = 2
TRACED_PASSES = 5        # not the whole run: its spans would crowd memory
PAIRED_ROUNDS = 3        # untraced/traced pairs per op for the overhead
PROBE_TERMS = 120        # about 0.25 ms of Fraction sums per probe
FAST_RATIO = 1.3         # full speed reads 1.0..1.2 of the floor, the
                         # slow phases 1.6..2.0
FAST_TRIES = 3           # runs of one op before the round robin moves on
CALIBRATE_S = 0.5
FLOAT_TOL = 1e-9
# Float mode refuses, with exit 1 and the invariant's name, an input whose
# float plan breaks an invariant that planning needs exactly: the plan,
# lifted to exact rationals, no longer majorizes the source (the README's
# stated limitation), or two tail ratios tie after rounding.  Such an op
# is counted as a refusal, reported per pass, and not as a failure.
FLOAT_REFUSALS = ("error: majorization fails in exact arithmetic",
                  "error: tail ratios not strictly increasing")

PER_LAYER_SELF = (
    "cli.main", "io.load_state_file", "io.dumps", "io.plan_to_dict",
    "io.report_to_dict", "monotones.monotone_profile",
    "conversion.optimal_probability_detail", "conversion.optimal_probability",
    "ordering.compare", "conversion.build_plan",
    "conversion.tensor_conversion_probability", "schmidt.tensor_power",
    "locc.monotone_audit", "monotones.entanglement_monotone",
    "locc.exhaustive_run_exact", "locc.build_full_protocol",
    "locc.monte_carlo_run", "schmidt.schmidt_decompose",
    "locc.exhaustive_run",
)
PER_LAYER_CALLS = (
    "conversion.optimal_probability", "locc.monotone_audit",
    "monotones.entanglement_monotone", "schmidt.schmidt_decompose",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _rank(p, samples):
    """1-based nearest rank of the p-th percentile (rounded first, so that
    99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * samples / 100, 9)))


def highest_percentile(samples, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in candidates:
        if samples - _rank(p, samples) >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    return sorted(values)[_rank(p, len(values)) - 1]


# -- expected outputs ----------------------------------------------------------


def expected(op):
    """Reference values an op's output must reproduce."""
    a, b = (op.states + (None,))[:2]
    if op.kind == "monotones":
        return {"tails": [str(t) for t in reference.tails(a)],
                "entropy": reference.entropy_bits(a)}
    p, minimizer = reference.closed_form(a, b)
    exp = {"p": p, "minimizer": minimizer}
    if op.kind == "prob":
        exp["tails"] = ([str(t) for t in reference.tails(a)],
                        [str(t) for t in reference.tails(b)])
    elif op.kind == "compare":
        exp["back"] = reference.closed_form(b, a)[0]
    elif op.kind == "plan":
        exp["gamma"] = [str(g) for g in reference.intermediate(a, b)]
    elif op.kind == "float-prob":
        exp["ratios"] = [x / y for x, y in zip(reference.tails(a),
                                                reference.tails(b))]
    elif op.kind == "tensor":
        exp["joint"] = reference.closed_form(
            reference.tensor_power(a, op.copies),
            reference.tensor_power(b, op.copies))[0]
    return exp


def _verdict(pf, pb):
    if pf == 1 and pb == 1:
        return "both_unit"
    if pf == pb:
        return "equal"
    return "first_greater" if pf > pb else "second_greater"


def _close(x, y):
    return abs(float(x) - float(y)) <= FLOAT_TOL


def check(op, exp, code, out, err):
    """None when the op's output is right, else what is wrong."""
    if op.kind.startswith("float-") and code == 1 and \
            err.startswith(FLOAT_REFUSALS):
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    doc = json.loads(out)
    p = exp.get("p")
    kind = op.kind
    if kind == "prob":
        ok = (doc["probability"] == str(p) and doc["feasible"]
              and doc["minimizer"] == exp["minimizer"]
              and (doc["source_monotones"], doc["target_monotones"])
              == exp["tails"])
    elif kind == "compare":
        ok = (doc["p_forward"] == str(p) and doc["p_backward"] ==
              str(exp["back"]) and doc["verdict"] == _verdict(p, exp["back"]))
    elif kind == "plan":
        ok = (doc["probability"] == str(p) and doc["intermediate"] ==
              exp["gamma"] and doc["breakpoints"]["ratios"][0] == str(p))
    elif kind == "monotones":
        ok = (doc["monotones"] == exp["tails"] and doc["schmidt_sq"] ==
              [str(x) for x in op.states[0]]
              and _close(doc["entropy_bits"], exp["entropy"]))
    elif kind == "tensor":
        power = p ** op.copies
        ok = (doc["single_copy"] == str(p) and doc["joint"] == str(exp["joint"])
              and doc["single_copy_power"] == str(power)
              and doc["joint_beats_power"] == (exp["joint"] > power))
    elif kind == "exhaustive":
        ok = (doc["mode"] == "exhaustive" and doc["success_probability"]
              == doc["predicted"] == str(p))
    elif kind == "sample":
        ok = (doc["mode"] == "monte_carlo" and doc["predicted"] == str(p)
              and doc["trials"] == op.trials and reference.within_sigmas(
                  doc["empirical"], p, op.trials))
    elif kind == "float-prob":
        # a float tie may pick another minimizer; it must attain P
        ok = (_close(doc["probability"], p)
              and _close(exp["ratios"][doc["minimizer"] - 1], p))
    elif kind == "float-plan":
        ok = _close(doc["probability"], p)
    elif kind == "float-simulate":
        ok = (doc["mode"] == "exhaustive" and _close(
            doc["success_probability"], p) and _close(doc["predicted"], p))
    else:
        raise ValueError(f"unknown op kind {kind}")
    return None if ok else f"output differs from the reference: {out[:300]}"


# -- running ops ---------------------------------------------------------------


class Gate:
    """Reads whether the CPU runs at its full speed right now.

    On a shared host the CPU flips, from one second to the next, between
    its full speed and about half of it.  A probe (a fixed bit of Fraction
    arithmetic, about 0.25 ms) reads the current speed: a probe within
    FAST_RATIO of the fastest one seen means full speed.
    """

    def __init__(self):
        self.floor = math.inf

    @staticmethod
    def _work():
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(1, i)
        return total

    def fast(self):
        start = time.perf_counter()
        self._work()
        took = time.perf_counter() - start
        self.floor = min(self.floor, took)
        return took <= FAST_RATIO * self.floor

    def calibrate(self, seconds):
        """Probes for ``seconds`` so that the floor is a full-speed one."""
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            self.fast()

    def wait(self, seconds):
        """Probes until full speed, or for at most ``seconds``."""
        until = time.perf_counter() + seconds
        while not self.fast() and time.perf_counter() < until:
            pass


class Runner:
    """Runs the ops, keeping each op's best latency, checking every output
    and keeping every op's output digest."""

    def __init__(self, ops, argvs, expect):
        self.ops = ops
        self.argvs = argvs
        self.expect = expect
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.problems = []
        self.best = [math.inf] * len(ops)
        self.samples = [0] * len(ops)
        self.op_digests = [None] * len(ops)
        self.consistent = True

    def run_op(self, i, main, tracer=None):
        """Runs op ``i`` once; its latency in seconds."""
        op, argv = self.ops[i], self.argvs[i]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(self.attempted)
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a crash is a failed op, not the end
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.attempted += 1
        text, errs = out.getvalue(), err.getvalue()
        try:
            problem = check(op, self.expect[i], code, text, errs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output ({exc!r}): {text[:300]}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"op {i} {' '.join(op.argv)}: {problem}")
        elif code != 0:
            self.refused += 1
        digest = hashlib.sha256(
            repr((op.argv, code, text, errs)).encode()).hexdigest()
        if self.op_digests[i] is None:
            self.op_digests[i] = digest
        elif self.op_digests[i] != digest:
            self.consistent = False
        return elapsed

    def one_pass(self, main, tracer=None):
        """Latency of every op, in op order."""
        latencies = [self.run_op(i, main, tracer)
                     for i in range(len(self.ops))]
        return latencies

    def timed(self, main, seconds, gate):
        """MIN_PASSES whole passes, then ops at full-speed moments until
        ``seconds`` have passed since the start.  Returns the passes; every
        op's best latency over all its runs is kept in ``best``."""
        deadline = time.perf_counter() + seconds
        rows = [self.one_pass(main) for _ in range(MIN_PASSES)]
        for row in rows:
            self._keep(range(len(self.ops)), row)
        # Round robin over the ops, each run only when the probe before it
        # reads full speed, and run again (up to FAST_TRIES times) until
        # the probe after it does too: slow moments are spent probing, and
        # full-speed moments go to ops without a full-speed run yet.
        cursor, tries = 0, 0
        fast = gate.fast()
        while time.perf_counter() < deadline:
            if not fast:
                fast = gate.fast()
                continue
            self._keep((cursor,), (self.run_op(cursor, main),))
            tries += 1
            fast = gate.fast()
            if fast or tries == FAST_TRIES:
                cursor, tries = (cursor + 1) % len(self.ops), 0
        return rows

    def _keep(self, indices, latencies):
        for i, elapsed in zip(indices, latencies):
            self.best[i] = min(self.best[i], elapsed)
            self.samples[i] += 1

    def paired(self, main, tracer):
        """Each op's best latency untraced and traced, over PAIRED_ROUNDS
        rounds that run every op both ways back to back, so that the
        host's speed swings fall alike on both; ``tracer`` only serves
        this."""
        untraced = [math.inf] * len(self.ops)
        traced = list(untraced)
        for _ in range(PAIRED_ROUNDS):
            for i in range(len(self.ops)):
                untraced[i] = min(untraced[i], self.run_op(i, main))
                traced_main = tracer.install()
                try:
                    traced[i] = min(traced[i],
                                    self.run_op(i, traced_main, tracer))
                finally:
                    tracer.uninstall()
        return untraced, traced

    def digest(self):
        """One digest of every op's output, in op order."""
        return hashlib.sha256(
            "".join(self.op_digests).encode()).hexdigest()


# -- set-up ----------------------------------------------------------------------


def set_up(workload, seed, inputs, gate):
    """Fresh interpreters import the CLI and write the inputs, several
    times, each started at a full-speed moment if one comes within
    SETUP_WAIT_S; returns the medians of wall time, import time and input
    time."""
    walls, imports, writes = [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        gate.wait(SETUP_WAIT_S)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload",
             workload, "--seed", str(seed), "--src", str(SRC), "--out",
             str(inputs)], capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(child["import_s"])
        writes.append(child["inputs_s"])
    return (statistics.median(walls), statistics.median(imports),
            statistics.median(writes))


def digest_agrees(key, digest):
    """Record ``digest`` under ``key`` in the checkout's digest file; False
    when an earlier run recorded a different one for the same key."""
    path = WORK / "digests.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    prior = known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True),
                    encoding="utf-8")
    return prior == digest


# -- metadata --------------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata():
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "src_lines": src_lines}


# -- metrics ---------------------------------------------------------------------


def end_to_end(latencies, setup_s):
    """``latencies``: each op's best latency."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def per_layer(tracer, passes, untraced, traced, setup, refusals):
    """Per-pass layer totals; ``untraced`` and ``traced`` hold each op's
    best latency without and with spans."""
    totals = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for name in PER_LAYER_SELF:
        busy = totals.get(name, (0, 0.0))[1]
        metrics[f"{name}.self_ms"] = (1000 * busy / passes, "ms")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (totals.get(name, (0, 0.0))[0] / passes,
                                    "count")
    branches = counts["locc.branches"]
    trial_s = counts["locc.trial_seconds"]
    metrics.update({
        "io.bytes_out": (counts["io.bytes_out"] / passes, "bytes"),
        "conversion.plan_segments": (
            counts["conversion.plan_segments"] / passes, "count"),
        "conversion.max_bits": (tracer.max_bits, "bits"),
        "schmidt.tensor_power.entries": (
            counts["schmidt.tensor_power.entries"] / passes, "count"),
        "locc.branches": (branches / passes, "count"),
        "locc.distinct_ratio": (
            counts["locc.distinct"] / branches if branches else 0.0, "ratio"),
        "locc.measurements": (counts["locc.measurements"] / passes, "count"),
        "locc.trials_per_s": (
            counts["locc.trials"] / trial_s if trial_s else 0.0, "1/s"),
        "locc.errors": (sum(c for (name, _), c in tracer.errors.items()
                            if name.startswith("locc.")) / passes, "count"),
        "cli.refusals": (refusals, "count"),
        "setup.import_s": (setup[1], "s"),
        "setup.inputs_s": (setup[2], "s"),
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1, "ratio"),
    })
    return metrics


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "entconvert" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'entconvert'}")
    sys.path.insert(0, str(SRC))
    import entconvert.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "entconvert":
        fail(f"imported entconvert from {cli.__file__}, not from {SRC}")

    # One CPU for the whole run, set-up children included, so that the
    # probe reads the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gate = Gate()
    gate.calibrate(CALIBRATE_S)
    inputs = WORK / f"{args.workload}-{args.seed}"
    setup = set_up(args.workload, args.seed, inputs, gate)
    files, ops = workloads.build(args.workload, args.seed)
    if len(ops) < MIN_OPS:
        fail(f"{args.workload} has {len(ops)} ops per pass, fewer than "
             f"{MIN_OPS}")
    for name, text in files.items():
        if (inputs / name).read_text(encoding="utf-8") != text:
            fail(f"set-up wrote a different {name} for the same seed")
    argvs = [[str(inputs / a) if a in files else a for a in op.argv]
             for op in ops]
    runner = Runner(ops, argvs, [expected(op) for op in ops])

    runner.one_pass(cli.main)                           # warm-up
    runner.timed(cli.main, args.seconds, gate)
    best = runner.best
    layer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        traced_main = tracer.install()
        try:
            for _ in range(TRACED_PASSES):
                runner.one_pass(traced_main, tracer)
        finally:
            tracer.uninstall()
        layer = per_layer(tracer, TRACED_PASSES,
                          *runner.paired(cli.main, spans.Tracer()), setup,
                          runner.refused * len(ops) / runner.attempted)
        tracer.save(WORK / f"spans-{args.workload}.npz")
    shutil.rmtree(inputs, ignore_errors=True)

    metrics = layer if layer is not None else end_to_end(best, setup[0])
    # keyed by the inputs too, so only runs on identical inputs compare
    inputs_id = hashlib.sha256(repr((sorted(files.items()), [
        op.argv for op in ops])).encode()).hexdigest()[:16]
    digest = runner.digest()
    digest_ok = runner.consistent and digest_agrees(
        f"{args.workload}/{args.seed}/{inputs_id}", digest)
    print("meta " + json.dumps(metadata(), sort_keys=True))
    print(f"{args.workload}: {workloads.RATIONALE[args.workload]}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops; an "
          f"op's latency is its best of {min(runner.samples)} to "
          f"{max(runner.samples)} timed runs ({MIN_PASSES} whole passes, the "
          f"rest at full-speed moments; probe floor "
          f"{1e3 * gate.floor:.4f} ms), so every timing below is over "
          f"{len(ops)} samples; {runner.refused} float-mode refusals in "
          f"{runner.attempted} runs")
    top = highest_percentile(len(best))
    print(f"latency p{top} = {1000 * percentile(best, top):.3f} ms "
          f"(highest percentile with >= 10 of {len(best)} ops "
          f"beyond it)")
    print(f"output digest {digest}"
          + ("" if digest_ok else " DIFFERS between runs or from an "
             f"earlier run recorded in {WORK / 'digests.json'}"))
    if layer is not None:
        if tracer.absent:
            print(f"absent call sites: {', '.join(tracer.absent)}")
        for (name, kind), count in sorted(tracer.errors.items()):
            print(f"raised in {name}: {kind} x {count} over "
                  f"{TRACED_PASSES} traced passes")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and digest_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
