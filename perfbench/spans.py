"""Spans around the package's cross-module call sites, recorded from outside.

``Tracer.install()`` replaces each call site listed in ``SITES`` with a
wrapper that records a span (name, start, end, parent, op id) in flat
in-memory arrays; ``uninstall()`` puts the originals back.  The package
itself is not modified.  A site whose function a later refactor removed,
or a return value that no longer carries a count, is listed in ``absent``
instead of failing the run; its metrics read 0.

Counts (branches, plan segments, bit lengths, ...) are taken from the
wrapped calls' return values after the op has finished, so they add no
time to any span.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

import numpy as np

# (module whose name is looked up at call time, attribute).  The span is
# named after the module that defines the function, e.g.
# "conversion.build_plan".  First the functions cli calls, then the
# call sites between library modules.
SITES = (
    ("entconvert.io", "load_state_file"),
    ("entconvert.io", "dumps"),
    ("entconvert.io", "plan_to_dict"),
    ("entconvert.io", "plan_from_dict"),
    ("entconvert.io", "report_to_dict"),
    ("entconvert.cli", "build_plan"),
    ("entconvert.cli", "multi_copy_bound"),
    ("entconvert.cli", "optimal_probability"),
    ("entconvert.cli", "optimal_probability_detail"),
    ("entconvert.cli", "tensor_conversion_probability"),
    ("entconvert.cli", "build_full_protocol"),
    ("entconvert.cli", "exhaustive_run"),
    ("entconvert.cli", "exhaustive_run_exact"),
    ("entconvert.cli", "monotone_audit"),
    ("entconvert.cli", "monte_carlo_run"),
    ("entconvert.cli", "success_probability"),
    ("entconvert.cli", "entropy_of_entanglement"),
    ("entconvert.cli", "monotone_profile"),
    ("entconvert.cli", "compare"),
    ("entconvert.cli", "find_cycle"),
    ("entconvert.cli", "nonadditivity_search"),
    ("entconvert.cli", "state_from_schmidt"),
    ("entconvert.cli", "tensor_power"),
    ("entconvert.ordering", "optimal_probability"),
    ("entconvert.ordering", "tensor_conversion_probability"),
    ("entconvert.conversion", "tensor_power"),
    ("entconvert.locc", "entanglement_monotone"),
    ("entconvert.locc", "schmidt_decompose"),
)

ROOT = ("entconvert.cli", "main")


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times(starts, ends, parents):
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def _bits(value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(),
                   value.denominator.bit_length())
    return 0


def _plan_bits(plan):
    values = list(plan.source.probs) + list(plan.target.probs)
    values.append(plan.probability)
    if plan.breakpoints is not None:
        values += list(plan.breakpoints.ratios)
        values += list(plan.intermediate.probs)
        values += list(plan.success_operator.squared)
        values += list(plan.failure_operator.squared)
    return max(_bits(v) for v in values)


def _final_key(branch):
    state = branch.final_state
    if hasattr(state, "probs"):
        key = state.probs
    else:
        svals = np.linalg.svd(state.amplitudes, compute_uv=False)
        key = tuple(np.round(svals ** 2, 12))
    return key, branch.history[-1] if branch.history else None


class Tracer:
    """Span recorder; one instance per traced phase."""

    def __init__(self):
        self.names = []            # span name per name id
        self._ids = {}
        self.name_id = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.op_ids = array("l")
        self.stack = [-1]
        self.op = -1
        self.absent = []
        self.errors = Counter()    # (span name, exception type) -> count
        self.counts = Counter()
        self.max_bits = 0
        self._pending = []
        self._last_error = None
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every site in SITES; returns the wrapped ``cli.main``."""
        for module_name, attr in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn))
        module = importlib.import_module(ROOT[0])
        return self.wrap(getattr(module, ROOT[1]))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def wrap(self, fn):
        name = span_name(fn)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counted = name in _COUNTERS

        def traced(*args, **kwargs):
            i = len(self.starts)
            self.name_id.append(nid)
            self.parents.append(self.stack[-1])
            self.op_ids.append(self.op)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.stack.append(i)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if err is not self._last_error:  # count where it started
                    self._last_error = err
                    self.errors[(name, type(err).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                self.starts[i] = start
                self.ends[i] = end
            if counted:
                self._pending.append((name, result, end - start))
            return result

        return traced

    # -- per-op bookkeeping ----------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        """Take counts from the return values the op's spans produced."""
        for name, result, seconds in self._pending:
            try:
                _COUNTERS[name](self, result, seconds)
            except (AttributeError, TypeError) as err:
                # the return value changed shape in a later refactor
                missing = f"counts from {name} ({type(err).__name__})"
                if missing not in self.absent:
                    self.absent.append(missing)
        self._pending.clear()
        self._last_error = None

    # -- results ------------------------------------------------------------

    def totals(self):
        """{span name: (calls, self seconds)} over everything recorded."""
        if not len(self.starts):
            return {}
        selfs = self_times(np.frombuffer(self.starts, dtype=float),
                           np.frombuffer(self.ends, dtype=float),
                           np.frombuffer(self.parents, dtype=np.int64))
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        calls = np.bincount(ids, minlength=len(self.names))
        busy = np.bincount(ids, weights=selfs, minlength=len(self.names))
        return {name: (int(calls[i]), float(busy[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span (columns plus the name table) to ``path``."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.starts, dtype=float),
                 end=np.frombuffer(self.ends, dtype=float),
                 parent=np.frombuffer(self.parents, dtype=np.int64),
                 op=np.frombuffer(self.op_ids, dtype=np.int64))


def _count_plan(tracer, plan, _):
    if plan.breakpoints is not None:
        tracer.counts["conversion.plan_segments"] += \
            plan.breakpoints.segment_count
    tracer.max_bits = max(tracer.max_bits, _plan_bits(plan))


def _count_branches(tracer, branches, _):
    tracer.counts["locc.branches"] += len(branches)
    tracer.counts["locc.distinct"] += len({_final_key(b) for b in branches})


def _count_protocol(tracer, protocol, _):
    tracer.counts["locc.measurements"] += protocol.measurement_count


def _count_trials(tracer, report, seconds):
    tracer.counts["locc.trials"] += report.trials
    tracer.counts["locc.trial_seconds"] += seconds


def _count_entries(tracer, sv, _):
    tracer.counts["schmidt.tensor_power.entries"] += sv.n


def _count_bytes(tracer, text, _):
    tracer.counts["io.bytes_out"] += len(text.encode("utf-8"))


_COUNTERS = {
    "conversion.build_plan": _count_plan,
    "locc.exhaustive_run": _count_branches,
    "locc.exhaustive_run_exact": _count_branches,
    "locc.build_full_protocol": _count_protocol,
    "locc.monte_carlo_run": _count_trials,
    "schmidt.tensor_power": _count_entries,
    "io.dumps": _count_bytes,
}
