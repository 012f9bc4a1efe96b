"""The benchmark plans, run through the command line, and the names the
traced benchmark pass wraps.

Every op of the seed-0, seed-1 and seed-2 `index-calc` plans (both sweeps,
`macaulay 1000000 2`, the small `macaulay` and `gap` ops) and of the seed-0
`green-sweep` plan (180 `verify green` and 4 `verify restriction` ops) goes
through `macgap.cli.main` with its output captured, and must give the exit
code and the known answer that the benchmark's own checks in
bench/workloads.py expect, and so does every op of the seed-1 and seed-2
`map-queries` plans (span, check-orth and obstruct on 96 generated maps).
The seed-0 `map-queries` plan runs against its known answers, fast and in
reference mode, in test_reference_mode.py.  Every op of the three seed-0
plans must take the fast argv path of `macgap.cli`, with no argparse parser
ever built, and each command line of test_cli.PROCESS_SEQUENCE the side it
is marked with, so a change to the command grammar cannot send the traffic
back through argparse unseen.  Every
(module, attribute) that bench/layers.py traces must resolve, since
`Tracer.install` would raise AttributeError on a name that is gone.  Both
modules are only imported, never changed.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import macgap.cli
from test_cli import PROCESS_SEQUENCE

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    return load_bench("workloads", monkeypatch)


def _failures(plan, seed):
    """(seed, argv, exit code, problem, stderr) of every op of the plan that
    exits with an unexpected code or fails its check."""
    failures = []
    for op in plan.ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = macgap.cli.main(op.argv)
        problem = op.check(out.getvalue())
        if code != op.expect_code or problem is not None:
            failures.append((seed, op.argv, code, problem, err.getvalue()))
    return failures


def test_index_calc_known_answers(tmp_path, monkeypatch):
    failures = []
    for seed in (0, 1, 2):
        plan = load_workloads(monkeypatch).build("index-calc", seed, tmp_path)
        kinds = {op.kind for op in plan.ops}
        assert {"lemma3", "gap-argument", "macaulay", "gap"} <= kinds
        failures += _failures(plan, seed)
    assert failures == []


def test_green_sweep_known_answers(tmp_path, monkeypatch):
    plan = load_workloads(monkeypatch).build("green-sweep", 0, tmp_path)
    kinds = [op.kind for op in plan.ops]
    assert (kinds.count("green"), kinds.count("restriction")) == (180, 4)
    assert _failures(plan, 0) == []


def test_map_queries_known_answers(tmp_path, monkeypatch):
    failures = []
    for seed in (1, 2):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        plan = load_workloads(monkeypatch).build("map-queries", seed, workdir)
        kinds = [op.kind for op in plan.ops]
        counts = [kinds.count(kind) for kind in ("span", "check-orth", "obstruct")]
        assert counts == [96, 96, 48]
        failures += _failures(plan, seed)
    assert failures == []


def test_plans_take_the_fast_argv_path(tmp_path, monkeypatch):
    def no_argparse():
        raise AssertionError("argparse built for a plain command line")

    # the fast path must parse every op without argparse ever being built
    monkeypatch.setattr(macgap.cli, "build_parser", no_argparse)
    macgap.cli._parser.cache_clear()
    ops, declined = 0, []
    for name in ("index-calc", "map-queries", "green-sweep"):
        workdir = tmp_path / name
        workdir.mkdir()
        plan = load_workloads(monkeypatch).build(name, 0, workdir)
        ops += len(plan.ops)
        declined += [op.argv for op in plan.ops if macgap.cli._fast_args(op.argv) is None]
    assert (ops, declined) == (607, [])
    sides = [(argv, macgap.cli._fast_args(argv) is not None) for argv, _, _ in PROCESS_SEQUENCE]
    assert sides == [(argv, fast) for argv, _, fast in PROCESS_SEQUENCE]


def test_traced_names_resolve(monkeypatch):
    missing = []
    for modname, attr, _, _ in load_bench("layers", monkeypatch).TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []
