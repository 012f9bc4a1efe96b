"""The commands run end to end on the references of `reference_table.TABLE`.

Each test runs the same commands fast and in reference mode, where every
fast path is swapped for its reference (the table gives each one's reason),
and requires the same stdout, byte for byte.  The restricted ranks and span
ranks are also compared call by call (`reference_table.recorded`): a suite
reports only the best hyperplane of a subspace, and almost every hyperplane
is general, so that is what sees a wrong wiring between pieces that are each
correct on their own, such as hyperplanes drawn from the wrong stream.  Both
ways compare only with each other, so each command's stdout is also pinned
by its sha256 in `STDOUT_SHA256`, and each suite also runs both ways on
drawn values of its own options.  `test_the_table_misses_no_fast_path`
profiles a small plan both ways: every function that runs only fast must
run under a table row, no row's fast path may run in reference mode, every
reference must run there, and every span a map command computes must go
through the table's `span_rank`.  Nothing here adds a switch to the
program.
"""

import contextlib
import hashlib
import inspect
import io
import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macgap.cli
from macgap import polyspace
from macgap.polyspace import rng_for
import reference_table
from reference_table import FAST, TABLE, recorded, reference_mode, swap
from test_bench_smoke import load_workloads


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = macgap.cli.main(argv)
    return code, out.getvalue()


# the sha256 of each command's stdout that the tests below run
STDOUT_SHA256 = {
    "verify green --json --seed 3 --subspaces 8 --trials 5":
        "da9ebc0f5c2ec8912f3bd91017ab6be1d173eebbf8bc92ef9fc99afdc44f6b57",
    "verify green --json --seed 8 --subspaces 3 --trials 3 --max-n 4 --max-degree 2":
        "138e04a6f3b3722d177c5b129cbd66aa0148a1fd76d7542e9d4c605d85988ed2",
    "verify restriction --json --trials 4":
        "5c0b6315024ba62a612dc8d40e0a0df4141b3b18561bd1c3efe4300c1a51f9ac",
    "verify restriction --json --seed 5 --trials 4":
        "64a2a234b35136bf4c40813f8ce0231fa2caf0ce8ac101656e94ae0b27642113",
    "verify sharpness --json":
        "12cd3c15db8d2bacd845a32d095f446d42b867f7b2b608a86ff7541e9fbb8ae0",
    "verify sharpness --json --max-k 2 --max-n 16":
        "f52c0071b6e94d29d27497d327a40bf600719c8b860427546044f0c71f0e6fc7",
    "verify restriction --json --trials 2":
        "c00dad68ebda88033babc5b676d75339be447b8e6bf7b4bfa4fa156a79c85cb5",
    "verify lemma3 --json":
        "29c50521c6bdbdaf1985bc91e2014baf9e8a38f3435c4d1de50d54e7e5a11cf2",
    "verify lemma3 --json --max-m 3 --max-k 7":
        "c22e2ad90d9a1f33e166c7d8ac9cdfc6fadde2b79d0ba2eb76920f16e40002d9",
    "verify gap-argument --json --max-n 30":
        "2098325ca6f0a9f1402b7536c23323eaff435a23e906da81393a24e201f59895",
    "verify gap-argument --json --max-n 7":
        "6dd658f03a52931fc83779dfa3533aba980319da3f5f15d7d355fbc65c59b552",
    "verify gap-argument --json --max-n 120":
        "0e3ee7e5b3604447e538aed8b19504e860d9c779f872302ff59530f4141b2777",
}


def assert_pinned(argv, out):
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[" ".join(argv)], argv


COMMANDS = [
    ["verify", "green", "--json", "--seed", "3", "--subspaces", "8", "--trials", "5"],
    ["verify", "green", "--json", "--seed", "8", "--subspaces", "3", "--trials", "3",
     "--max-n", "4", "--max-degree", "2"],
    ["verify", "restriction", "--json", "--trials", "4"],
    ["verify", "restriction", "--json", "--seed", "5", "--trials", "4"],
]


def test_suites_match_their_references():
    cells = [(n, d, i) for n in (2, 3) for d in (1, 2, 3) for i in range(10)]

    def run(mode, subspace):
        # each subspace's best record and hyperplane count, from its own
        # stream, fast and by the reference that the reference suite uses
        with mode(), recorded() as ranks:
            records = [subspace(rng_for(6, f"green|n{n}|d{d}|s{i}"), n, d, 4)
                       for n, d, i in cells]
            outputs = [cli_stdout(argv) for argv in COMMANDS]
        return outputs, records, ranks

    fast = run(contextlib.nullcontext, polyspace._green_subspace)
    assert run(reference_mode, reference_table.green_subspace) == fast
    outputs, records, ranks = fast
    assert all(code == 0 for code, _ in outputs)
    for argv, (_, out) in zip(COMMANDS, outputs, strict=True):
        assert_pinned(argv, out)
    assert len(records) == 60
    # subspaces with no record (a restriction of full width, M not ranked)
    # and with one (M ranked) both ran both ways
    assert {rec is None for rec, _ in records} == {True, False}
    # 60 subspaces * 4 hyperplanes, the two green commands (4 cells * 8 * 5
    # and 3 cells * 3 * 3) and the two restriction ones (16 cells * 4)
    assert len(ranks) == 240 + 160 + 27 + 2 * 64


def _fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rewritten(text: str) -> str:
    """The same map in other words.  In every nonzero component the first
    term is written as two halves, a cancelling pair with a Gaussian
    coefficient and an explicit zero term are added on a monomial the
    component does not use, and one more zero term on its first monomial."""
    out = []
    for line in text.splitlines():
        if line[:1] not in "-0123456789" or line == "0":
            out.append(line)
            continue
        terms = line.split("; ")
        coeff, exps = terms[0].split(" ", 1)
        half = ",".join(_fraction_text(Fraction(part) / 2) for part in coeff.split(","))
        used = {t.split(" ", 1)[1] for t in terms}
        nv = len(exps.split())
        degree = sum(map(int, exps.split()))
        spare = next(
            e for e in (" ".join(str(degree * (j == i)) for j in range(nv)) for i in range(nv))
            if e not in used
        )
        out.append("; ".join(
            [f"{half} {exps}", f"1/3,-2/7 {spare}", f"{half} {exps}"] + terms[1:]
            + [f"-1/3,2/7 {spare}", f"0 {spare}", f"0/5,0 {exps}"]
        ))
    return "\n".join(out) + "\n"


def test_map_queries_match_their_references(tmp_path, monkeypatch):
    plan = load_workloads(monkeypatch).build("map-queries", 0, tmp_path)
    # a third of the maps again, rewritten, under the same commands
    files = sorted({op.argv[-1] for op in plan.ops if op.kind == "span"})[::3]
    again = {}
    for name in files:
        path = Path(name).with_suffix(".again.map")
        path.write_text(_rewritten(Path(name).read_text()))
        again[name] = str(path)
    reruns = [(op, [again.get(a, a) for a in op.argv]) for op in plan.ops
              if any(a in again for a in op.argv)]
    commands = [["verify", "sharpness", "--json"],
                ["verify", "sharpness", "--json", "--max-k", "2", "--max-n", "16"],
                ["verify", "restriction", "--json", "--trials", "2"]]

    def run(mode):
        with mode(), recorded() as ranks:
            outputs = [cli_stdout(op.argv) for op in plan.ops]
            outputs += [cli_stdout(argv) for _, argv in reruns]
            outputs += [cli_stdout(argv) for argv in commands]
        return outputs, ranks

    fast = run(contextlib.nullcontext)
    assert run(reference_mode) == fast
    outputs, ranks = fast
    for op, (code, out) in zip(plan.ops, outputs):
        assert code == op.expect_code, op.argv
        assert op.check(out) is None, op.argv
    # a rewritten map is the same map: the same answers, byte for byte
    n = len(plan.ops)
    assert len(reruns) >= len(files) * 2
    for (op, argv), got in zip(reruns, outputs[n:n + len(reruns)]):
        assert got == outputs[plan.ops.index(op)], argv
    assert [code for code, _ in outputs[n + len(reruns):]] == [0, 0, 0]
    for argv, (_, out) in zip(commands, outputs[n + len(reruns):], strict=True):
        assert_pinned(argv, out)
    # the span ranks were compared call by call: one per `map span`, one or
    # two per `map obstruct` (a vanished side has none) and one per
    # sharpness map; and the restricted ranks, one per restriction trial
    kinds = [op.kind for op in plan.ops]
    assert len(ranks) >= kinds.count("span") + kinds.count("obstruct")


@pytest.fixture(scope="module")
def drawn_map_file(tmp_path_factory):
    """(the benchmark's workloads module, loaded read-only, and one path
    that each drawn example writes its map to)."""
    with pytest.MonkeyPatch.context() as mp:
        yield load_workloads(mp), tmp_path_factory.mktemp("drawn") / "drawn.map"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_witness_charts_match_their_references(drawn_map_file, seed, gaussian, data):
    # the map-queries plan runs `check-orth` at pivot 0 only; here a refused
    # map of a drawn shape is searched in a drawn chart z_pivot != 0
    workloads, path = drawn_map_file
    k, n = data.draw(st.sampled_from(workloads.MAP_SHAPES), label="shape")
    m = workloads.gen_map(random.Random(seed), k, n, True, gaussian)
    path.write_text(m.text())
    pivot = data.draw(st.integers(0, n), label="pivot")
    argv = ["map", "check-orth", "--json", "--pivot", str(pivot), str(path)]
    fast = cli_stdout(argv)
    with reference_mode():
        assert cli_stdout(argv) == fast
    code, out = fast
    assert code == 1
    assert workloads._check_orth(m)(out) is None


def test_index_suites_match_their_references():
    commands = [
        ["verify", "lemma3", "--json"],
        ["verify", "lemma3", "--json", "--max-m", "3", "--max-k", "7"],
        ["verify", "gap-argument", "--json", "--max-n", "30"],
        ["verify", "gap-argument", "--json", "--max-n", "7"],
        # the size the index-calc benchmark runs
        ["verify", "gap-argument", "--json", "--max-n", "120"],
    ]
    fast = [cli_stdout(argv) for argv in commands]
    with reference_mode():
        assert [cli_stdout(argv) for argv in commands] == fast
    assert all(code == 0 for code, _ in fast)
    for argv, (_, out) in zip(commands, fast, strict=True):
        assert_pinned(argv, out)


# Drawn `verify` inputs: each suite with its own options drawn, run both
# ways.  The fixed commands above never redraw a green hyperplane, never
# take --trials 1, and never sweep lemma3 with max_m > max_k.

def _both_ways(suite, **drawn):
    """Runs `verify SUITE --json` with the drawn options fast and in
    reference mode, and compares stdout and the ranks call by call; only
    `green` and `restriction` compute ranks."""
    argv = ["verify", suite, "--json"]
    for option, value in drawn.items():
        argv += ["--" + option.replace("_", "-"), str(value)]
    with recorded() as fast_ranks:
        fast = cli_stdout(argv)
    with reference_mode(), recorded() as ref_ranks:
        assert cli_stdout(argv) == fast
    assert ref_ranks == fast_ranks
    assert bool(fast_ranks) == (suite in ("green", "restriction"))
    return fast


SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.integers(1, 3), st.integers(1, 3), st.integers(2, 3), st.integers(2, 3),
       st.booleans())
def test_drawn_green_matches_its_reference(seed, subspaces, trials, max_n, max_degree, tight):
    # a general hyperplane meets the bound, so a clean run never redraws;
    # a bound one below the true one makes subspaces miss, and their
    # redraws then run both ways too
    op_lower = polyspace.op_lower
    with pytest.MonkeyPatch.context() as mp:
        if tight:
            swap(mp, op_lower, lambda c, d: op_lower(c, d) - 1)
        code, _ = _both_ways("green", seed=seed, subspaces=subspaces, trials=trials,
                             max_n=max_n, max_degree=max_degree)
    assert code == 0 or tight and code == 1


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_drawn_restriction_matches_its_reference(seed, trials, max_n, max_degree):
    code, _ = _both_ways("restriction", seed=seed, trials=trials, max_n=max_n,
                         max_degree=max_degree)
    assert code == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_drawn_lemma3_matches_its_reference(max_m, max_k):
    code, _ = _both_ways("lemma3", max_m=max_m, max_k=max_k)
    assert code == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 60))
def test_drawn_gap_argument_matches_its_reference(max_n):
    code, _ = _both_ways("gap-argument", max_n=max_n)
    assert code == 0


# The guard: a small plan of every suite, of `gap` and of the map commands,
# profiled fast and in reference mode.

SRC = str(Path(macgap.cli.__file__).parent)

GUARD_COMMANDS = [
    ["verify", "green", "--json", "--subspaces", "2", "--trials", "2"],
    ["verify", "restriction", "--json", "--trials", "2", "--max-n", "2", "--max-degree", "2"],
    ["verify", "lemma3", "--json", "--max-m", "3", "--max-k", "3"],
    ["verify", "gap-argument", "--json", "--max-n", "12"],
    ["verify", "sharpness", "--json", "--max-k", "2", "--max-n", "8"],
    ["gap", "13", "42"],
]


def _nested(code):
    """`code` and the code of every function, closure or comprehension
    defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested(const)


def _profiled(run, covered=frozenset()):
    """(what run() returns, {code: under}) for every function of
    src/macgap and of the reference table that run() calls, where `under`
    says whether each of its calls had a frame of `covered` among the
    src/macgap frames on its stack, its own included."""
    seen = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or not (code.co_filename.startswith(SRC)
                                   or code.co_filename == reference_table.__file__):
            return
        under = False
        if covered and seen.get(code, True):
            f = frame
            while f is not None and f.f_code.co_filename.startswith(SRC):
                if f.f_code in covered:
                    under = True
                    break
                f = f.f_back
        seen[code] = seen.get(code, True) and under

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, seen


def _where(code):
    return f"{Path(code.co_filename).stem}:{code.co_firstlineno} {code.co_name}"


def test_the_table_misses_no_fast_path(tmp_path, monkeypatch):
    fast_ids = {id(fast) for fast in FAST.values()}
    assert len(FAST) == len(TABLE) == len(fast_ids)
    # the table module is the one home of the references
    assert [r.name for r in TABLE if r.reference.__module__ != reference_table.__name__] == []
    fast_code = {inspect.unwrap(fast).__code__ for fast in FAST.values()}
    covered = {c for code in fast_code for c in _nested(code)}
    plan = load_workloads(monkeypatch).build("map-queries", 0, tmp_path)
    ops = [(argv, None) for argv in GUARD_COMMANDS] + [(op.argv, op.kind) for op in plan.ops[::10]]

    def run(mode):
        with mode(), recorded() as ranks:
            outputs, counts = [], []
            for argv, _ in ops:
                before = len(ranks)
                outputs.append(cli_stdout(argv))
                counts.append(len(ranks) - before)
        return outputs, counts, ranks

    # in reference mode no module, and no class of a row, holds a fast path
    holders = reference_table.macgap_modules() + [row.owner for row in TABLE]
    with reference_mode():
        assert [attr for h in holders for attr, v in vars(h).items() if id(v) in fast_ids] == []
    # a first call outside the profiles, for anything built on first use
    cli_stdout(["gap", "10"])
    out, fast = _profiled(lambda: run(contextlib.nullcontext), covered)
    ref_out, ref = _profiled(lambda: run(reference_mode))
    assert ref_out == out
    in_src = {c for c in fast.keys() | ref.keys() if c.co_filename.startswith(SRC)}
    # a function that runs only fast is a fast path or part of one
    assert sorted(_where(c) for c in in_src if c in fast and c not in ref
                  and not fast[c]) == []
    # no fast path runs in reference mode
    assert sorted(_where(c) for c in in_src & ref.keys() & fast_code) == []
    # every function of the table module runs there, so a row left out of
    # the table leaves its reference unused; the one that must not run is
    # the stub of the `_restriction_template` row
    unused = [name for name, f in vars(reference_table).items()
              if inspect.isfunction(f) and f.__module__ == reference_table.__name__
              and inspect.unwrap(f).__code__ not in ref]
    assert unused == ["_no_template"]
    assert ("_restriction_template", reference_table._no_template) in [
        (row.name, row.reference) for row in TABLE]
    # every span a map command computes goes through the `span_rank` row,
    # so reference mode compares it: one per `map span`, one per side of
    # `map obstruct` that does not vanish, none for `map check-orth`
    outputs, counts, _ = out
    for (argv, kind), (_, text), count in zip(ops, outputs, counts, strict=True):
        if kind == "obstruct":
            record = json.loads(text)
            assert count == (record["dim_e"] >= 0) + (record["dim_eperp"] >= 0), argv
        elif kind is not None:
            assert count == (kind == "span"), argv
