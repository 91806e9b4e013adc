"""Golden output digests of the benchmark's two workloads.

Builds perfbench's ``query`` and ``simulate`` inputs for seeds 1-3 with
``perfbench/workloads.py``, which is imported and never written, runs
every op in-process through ``cli.main``, and compares the sha256 of the
joined per-op digests with a pinned value.  Each per-op digest is the
sha256 of ``repr((op.argv, code, stdout, stderr))``: the formula behind
the ``output digest`` line of ``perfbench/run.py``.  A change that keeps
these values keeps every output of both workloads byte for byte.

A benchmark change that edits ``workloads.py`` changes the inputs, and
must pin these values again.
"""

import hashlib
import importlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from entconvert import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

GOLDEN = {
    ("query", 1):
        "0f40a2966d54078a6571ca4b65238c579c0f196b71f2447222475108c09d61d0",
    ("query", 2):
        "d90df6000049a1ac1bb1bce51730305af07e727c88e44c1909a5483d2e5c3765",
    ("query", 3):
        "d03922367e803ce8fb14bcc50ddd0dbe09526461b9b0ab1d04dd13cfefc308aa",
    ("simulate", 1):
        "1d6fbc7b3ab6123f0296ff906815f98ea93e25ad2941f6b4185a083d543c8ff9",
    ("simulate", 2):
        "8d2b738f8c1cec9e15b3ec947c64a4fbf3a79d3bce9bb72908c5fc436aa2b91f",
    ("simulate", 3):
        "36229283ab0793a8300123d369819f5761c5d88bd7cfe10a66dee1fad2ff015d",
}


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN))
def test_workload_outputs_match_pinned_digest(monkeypatch, tmp_path,
                                              workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    files, ops = workloads.build(workload, seed)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    digests = []
    for op in ops:
        argv = [str(tmp_path / a) if a in files else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        digests.append(hashlib.sha256(repr(
            (op.argv, code, out.getvalue(), err.getvalue())).encode())
            .hexdigest())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == (
        GOLDEN[workload, seed])
