"""The `index-calc` benchmark plan, run through the command line.

Every op of the seed-0, seed-1 and seed-2 plans (both sweeps,
`macaulay 1000000 2`, the small `macaulay` and `gap` ops) goes through
`macgap.cli.main` with its output captured, and must give the exit code
and the known answer that the benchmark's own checks in
bench/workloads.py expect.  The module is only
imported, never changed.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import macgap.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_index_calc_known_answers(tmp_path, monkeypatch):
    failures = []
    for seed in (0, 1, 2):
        plan = load_workloads(monkeypatch).build("index-calc", seed, tmp_path)
        kinds = {op.kind for op in plan.ops}
        assert {"lemma3", "gap-argument", "macaulay", "gap"} <= kinds
        for op in plan.ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = macgap.cli.main(op.argv)
            problem = op.check(out.getvalue())
            if code != op.expect_code or problem is not None:
                failures.append((seed, op.argv, code, problem, err.getvalue()))
    assert failures == []
