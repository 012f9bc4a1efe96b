"""The suites and the map commands run end to end on their reference
implementations.

The `reference_mode` context manager swaps every fast path of `verify
green` and `verify restriction` for the slow reference it replaces:

- `green_suite` and `veronese_suite` for plain loops that draw each
  subspace with `random_subspace` and each hyperplane with
  `random_hyperplane`, and check them one hyperplane at a time, as the
  suites are specified (a green subspace whose `trials` hyperplanes all
  miss the bound draws up to `trials` more, stopping at the first that
  meets it);
- the integer draws, `_random_int_rows` and `_random_form`, which draw
  each entry with `_small_ints` (`getrandbits(5)` in place of
  `randint(-9, 9)`), for `random_subspace` + `cleared_rows` and
  `random_hyperplane`, which call `randint`;
- the integer restricted rank, `_int_restricted_rank` (the template R_H
  times M, each product row eliminated by `_rank_int_rows` as it is formed,
  stopping at the width), for `exact_rank` of the `restrict`ed members,
  which is also what the reference green loop runs through `verify_green`;
- the restriction template for a stub that fails if anything still
  reaches it.

The same commands then run both ways and must print the same bytes,
`green_suite` must keep the same records, which carry the codimensions
that the command's summary lines do not show, and the suites must compute
the same restricted ranks, call by call: the same rows, the same
hyperplane and the same rank.  A suite reports only the best hyperplane of
a subspace, and almost every hyperplane is general, so the last check is
what sees a wrong wiring between pieces that are each correct on their
own, such as hyperplanes drawn from the wrong stream.

The `map_reference_mode` context manager does the same for the map
commands and `verify sharpness`: each component parsed straight to its
cleared form, each distinct coefficient token read once per map, for
`parse_poly` cleared, the span rank with singleton peeling for
`exact_rank(support_rows(...))`, the pairing polynomial built on pairs and
packed keys for `pairing_poly` cleared, the source form Q built on packed
keys for `source_form_poly` cleared, the witness search on Gaussian-integer
pairs for `_witness_search_ref` (GRat candidates, each tested with
`Poly.evaluate`), the witness text read off integers for `format_grat` of
the witness `GRat`s, the certificate's division on packed keys for the
w~_0 pseudo-remainder, which decides, and the division in GRat, which gives
the quotient, and the multiply-back check on packed keys for the product in
GRat.  Every packed dict is unpacked to exponent tuples before a reference
reads it, and what a reference returns is packed again.  The seed-0
`map-queries` plan of the benchmark runs both ways against its known
answers, together with a third of its maps rewritten with
repeated, cancelling and zero terms.  That plan checks orthogonality in the
chart z_0 != 0 only, so refused maps drawn from the benchmark's generator
(seed, shape, Gaussian or not) also run `map check-orth --pivot P` both
ways, with P drawn over every source coordinate.  `lemma3_reference`
swaps the lemma sweep for per-split shifts through `macaulay_rep`, and
`gap_reference` the gap-argument sweep for one `verify_gap_argument`
report per triple, with `dim_prop_bound` by iterated descent.  Both ways
compare only with each other, so the stdout of each command is also pinned
by its sha256 in `STDOUT_SHA256`.  Each suite also runs both ways on drawn
values of its own options.  Nothing here adds a switch to the program.
"""

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macgap.cli
from macgap import binom_core, gap_calc, hermitian, polyspace
from macgap.binom_core import LemmaSweepReport, op_minus
from macgap.gap_calc import NabForm, nab_minus, nab_value
from macgap.gaussint import clear
from macgap.hermitian import Signature
from macgap.polyspace import (
    GRat,
    GreenSuiteReport,
    Hyperplane,
    Poly,
    cleared_rows,
    coefficient_rows,
    exact_rank,
    format_grat,
    image_span_dim,
    monomial_basis,
    parse_poly,
    random_hyperplane,
    random_subspace,
    restrict,
    rng_for,
    support_rows,
    verify_green,
    veronese_components,
)
from macgap.record import SuiteReport
from test_bench_smoke import load_workloads
from test_gap_calc import gap_walk


def _reference_rank(rows, H, degree):
    """Rank of the restrictions of the polynomials with coefficient rows
    `rows` (GRat entries over monomial_basis order), through `restrict`."""
    n_vars = len(H.coeffs)
    basis = monomial_basis(n_vars, degree)
    polys = [Poly(n_vars, degree, dict(zip(basis, row))) for row in rows]
    restricted = [restrict(p, H) for p in polys]
    return exact_rank(coefficient_rows(restricted, n_vars - 1, degree))


def _int_rows(rng, n_vars, degree):
    W = random_subspace(rng, n_vars, degree)
    return [[a for a, _ in row] for row in cleared_rows(W.basis, n_vars, degree)]


def _int_form(H):
    return [int(c.re) for c in H.coeffs]


def _form(rng, n_vars):
    H = random_hyperplane(rng, n_vars)
    return _int_form(H), H.pivot


def _no_template(*args):
    raise AssertionError("the restriction template was used in reference mode")


@contextlib.contextmanager
def recorded_ranks():
    """Yields a list that gets one entry (rows, form, pivot, degree, rank)
    per restricted rank that the fast path computes inside the block."""
    calls = []
    fast_rank = polyspace._int_restricted_rank

    def spy(M, form, pivot, degree):
        rank = fast_rank(M, form, pivot, degree)
        calls.append((M, form, pivot, degree, rank))
        return rank

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyspace, "_int_restricted_rank", spy)
        yield calls


@contextlib.contextmanager
def reference_mode():
    """Runs `verify green` and `verify restriction` on their references
    inside the block, and yields a list that gets one entry (rows, form,
    pivot, degree, rank) per restricted rank computed there.  A context
    manager, not a fixture, so that a hypothesis test can enter it once per
    example."""
    calls = []

    def int_restricted_rank(M, form, pivot, degree):
        H = Hyperplane(tuple(GRat(v) for v in form), pivot)
        rank = _reference_rank([[GRat(v) for v in row] for row in M], H, degree)
        calls.append((M, form, pivot, degree, rank))
        return rank

    def green_suite(ns, ds, subspaces, trials, seed, keep_records=False):
        report = GreenSuiteReport()
        for n in ns:
            for d in ds:
                for i in range(subspaces):
                    rng = rng_for(seed, f"green|n{n}|d{d}|s{i}")
                    W = random_subspace(rng, n + 1, d)
                    # the suites restrict real subspaces to integer forms only
                    rows = [[a for a, _ in row] for row in cleared_rows(W.basis, n + 1, d)]

                    def check(H):
                        rec = verify_green(W, H)
                        rank = math.comb(n - 1 + d, d) - rec.c_h
                        calls.append((rows, _int_form(H), H.pivot, d, rank))
                        return rec

                    recs = [check(random_hyperplane(rng, n + 1)) for _ in range(trials)]
                    while not any(r.holds for r in recs) and len(recs) < 2 * trials:
                        recs.append(check(random_hyperplane(rng, n + 1)))
                    best = min(recs, key=lambda r: r.c_h)
                    report.subspace_count += 1
                    report.checks += len(recs)
                    if keep_records:
                        report.records.append(best)
                    if not best.holds:
                        report.violations.append((i, best))
        return report

    def veronese_suite(max_n, max_degree, trials, seed):
        report = SuiteReport()
        for n in range(1, max_n + 1):
            for d in range(1, max_degree + 1):
                comps = veronese_components(n + 1, d)
                expected = op_minus(image_span_dim(comps), n)
                rng = rng_for(seed, f"veronese|n{n}|d{d}")
                M = [[a for a, _ in row] for row in cleared_rows(comps, n + 1, d)]
                for _ in range(trials):
                    H = random_hyperplane(rng, n + 1)
                    rank = int_restricted_rank(M, _int_form(H), H.pivot, d)
                    report.checks += 1
                    if rank - 1 != expected:
                        report.violations.append((n, d, rank - 1, expected))
        return report

    with pytest.MonkeyPatch.context() as mp:
        for name, ref in [
            ("green_suite", green_suite),
            ("veronese_suite", veronese_suite),
            ("_random_int_rows", _int_rows),
            ("_random_form", _form),
            ("_int_restricted_rank", int_restricted_rank),
            ("_restriction_template", _no_template),
        ]:
            mp.setattr(polyspace, name, ref)
            if hasattr(macgap.cli, name):
                mp.setattr(macgap.cli, name, ref)
        yield calls


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
    def run(mode):
        with mode() as ranks:
            report = polyspace.green_suite(
                ns=(2, 3), ds=(1, 2, 3), subspaces=10, trials=4, seed=6, keep_records=True
            )
            outputs = [cli_stdout(argv) for argv in COMMANDS]
        return outputs, report.records, ranks

    fast = run(recorded_ranks)
    assert run(reference_mode) == fast
    outputs, records, ranks = fast
    assert all(code == 0 for code, _ in outputs)
    for argv, (_, out) in zip(COMMANDS, outputs, strict=True):
        assert_pinned(argv, out)
    assert len(records) == 60
    # 60 subspaces * 4 hyperplanes, the two green commands (4 cells * 8 * 5
    # and 3 cells * 3 * 3) and the two restriction ones (16 cells * 4)
    assert len(ranks) == 240 + 160 + 27 + 2 * 64


@contextlib.contextmanager
def recorded_spans():
    """Yields a list that gets one entry (rows, rank) per span rank that the
    fast path computes inside the block."""
    spans = []
    fast_span = polyspace.span_rank

    def spy(rows):
        rank = fast_span(rows)
        spans.append((rows, rank))
        return rank

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyspace, "span_rank", spy)
        yield spans


@contextlib.contextmanager
def map_reference_mode():
    """Runs the map kernel on its references inside the block, and yields a
    list that gets one entry (rows, rank) per span rank computed there.  A
    context manager, not a fixture, so that a hypothesis test can enter it
    once per example."""
    spans = []

    def span_rank(rows):
        shape = next(e for row in rows for e in row)
        polys = [Poly(len(shape), sum(shape), {e: GRat(a, b) for e, (a, b) in row.items()})
                 for row in rows]
        rank = exact_rank(support_rows(polys))
        spans.append((rows, rank))
        return rank

    def parse_cleared(text, n_vars=None, degree=None):
        return clear(parse_poly(text, n_vars, degree).coeffs)

    def packed(pairs, keys):
        return {keys.pack(e): c for e, c in pairs.items()}

    def poly(pairs, keys):
        """The Poly of a packed dict of Gaussian-integer pairs."""
        pairs = {keys.unpack(e): c for e, c in pairs.items()}
        degree = sum(next(iter(pairs), ()))
        return hermitian._from_pairs(keys.n, degree, pairs, 1)

    def pairing_pairs(f, keys):
        L, pairs = clear(hermitian.pairing_poly(f).coeffs)
        return L, packed(pairs, keys)

    def source_form_pairs(sig, keys):
        return packed(clear(hermitian.source_form_poly(sig).coeffs)[1], keys)

    def source_form(Q, keys):
        """The source form Q and its signature: eps_i is its coefficient of
        z_i w~_i."""
        Q = poly(Q, keys)
        nv = keys.n // 2
        eps = [int(Q.coeffs.get(tuple(int(j in (i, nv + i)) for j in range(2 * nv)),
                                GRat()).re) for i in range(nv)]
        return Q, Signature(eps.count(1), eps.count(-1), eps.count(0))

    def divide_exact(P, Q, keys):
        if not P:
            return {}
        Q, sig = source_form(Q, keys)
        P = poly(P, keys)
        if not hermitian._pseudo_remainder_ref(P, sig, 0).is_zero:
            raise ArithmeticError("the pseudo-remainder is not zero")
        # Q has leading coefficient +-1, so the quotient of integral P is
        # integral and clears with L = 1
        return packed(clear(hermitian._divide_exact_ref(P, Q).coeffs)[1], keys)

    def check_quotient(P, Q, quo, keys):
        if (poly(quo, keys) * poly(Q, keys)).coeffs != poly(P, keys).coeffs:
            raise RuntimeError("certificate quotient times Q is not the pairing polynomial")

    def witness_search(f, P, pivot):
        z, w = hermitian._witness_search_ref(f, P, pivot)
        D, W = clear([c.conjugate() for c in w])
        return clear(z)[1], W, D

    def witness_text(cert):
        return tuple(" ".join(map(format_grat, point)) for point in cert.witness)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermitian, "cleared_parser", lambda: parse_cleared)
        mp.setattr(polyspace, "span_rank", span_rank)
        mp.setattr(hermitian, "_pairing_pairs", pairing_pairs)
        mp.setattr(hermitian, "_source_form_pairs", source_form_pairs)
        mp.setattr(hermitian, "_witness_search", witness_search)
        mp.setattr(hermitian.OrthCertificate, "witness_text", witness_text)
        mp.setattr(hermitian, "_divide_exact", divide_exact)
        mp.setattr(hermitian, "_check_quotient", check_quotient)
        yield spans


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
        with mode() as ranks:
            outputs = [cli_stdout(op.argv) for op in plan.ops]
            outputs += [cli_stdout(argv) for _, argv in reruns]
            outputs += [cli_stdout(argv) for argv in commands]
        return outputs, ranks

    fast = run(recorded_spans)
    assert run(map_reference_mode) == fast
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
    # two per `map obstruct` (a vanished side has none), one per sharpness
    # map and one per restriction cell
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
    with map_reference_mode():
        assert cli_stdout(argv) == fast
    code, out = fast
    assert code == 1
    assert workloads._check_orth(m)(out) is None


@contextlib.contextmanager
def lemma3_reference():
    """Runs `verify lemma3` on per-split shifts inside the block."""
    def sweep(m_max, k_max, table=None):
        checks, bad = 0, []
        for m in range(1, m_max + 1):
            for k in range(1, k_max + 1):
                total = math.comb(m + k, k) - 1
                target = math.comb(m + k - 1, k) - 1
                for A in range(total + 1):
                    checks += 1
                    if op_minus(A, m) + binom_core.op_lower(total - A, k) != target:
                        bad.append((m, k, A, total - A))
        return LemmaSweepReport(checks, bad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binom_core, "verify_lemma_binom", sweep)
        mp.setattr(macgap.cli, "verify_lemma_binom", sweep)
        yield


@contextlib.contextmanager
def gap_reference():
    """Runs `verify gap-argument` on one `verify_gap_argument` report per
    triple inside the block."""
    def dim_prop_bound(n, a, b, m):
        # D_m is the value reached by descent from N(n;a,b) to level m
        if not a + 1 <= m <= n - 1:
            raise ValueError(f"m={m} outside [a+1, n-1]")
        form = NabForm(n, a, b)
        while form.n > m:
            form = nab_minus(form)
        return nab_value(form)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gap_calc, "dim_prop_bound", dim_prop_bound)
        # one full verify_gap_argument report per admissible triple
        mp.setattr(gap_calc, "gap_argument_sweep", gap_walk)
        mp.setattr(macgap.cli, "gap_argument_sweep", gap_walk)
        yield


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
    with lemma3_reference(), gap_reference():
        assert [cli_stdout(argv) for argv in commands] == fast
    assert all(code == 0 for code, _ in fast)
    for argv, (_, out) in zip(commands, fast, strict=True):
        assert_pinned(argv, out)


# Drawn `verify` inputs: each suite with its own options drawn, run both
# ways.  The fixed commands above never redraw a green hyperplane, never
# take --trials 1, and never sweep lemma3 with max_m > max_k.

def _both_ways(suite, mode, **drawn):
    """Runs `verify SUITE --json` with the drawn options fast and inside
    `mode`, and compares stdout and, for a mode that records them, the
    restricted ranks call by call."""
    argv = ["verify", suite, "--json"]
    for option, value in drawn.items():
        argv += ["--" + option.replace("_", "-"), str(value)]
    with recorded_ranks() as fast_ranks:
        fast = cli_stdout(argv)
    with mode() as ref_ranks:
        assert cli_stdout(argv) == fast
    if ref_ranks is not None:
        assert ref_ranks == fast_ranks and fast_ranks
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
            mp.setattr(polyspace, "op_lower", lambda c, d: op_lower(c, d) - 1)
        code, _ = _both_ways("green", reference_mode, seed=seed, subspaces=subspaces,
                             trials=trials, max_n=max_n, max_degree=max_degree)
    assert code == 0 or tight and code == 1


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_drawn_restriction_matches_its_reference(seed, trials, max_n, max_degree):
    code, _ = _both_ways("restriction", reference_mode, seed=seed, trials=trials,
                         max_n=max_n, max_degree=max_degree)
    assert code == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_drawn_lemma3_matches_its_reference(max_m, max_k):
    code, _ = _both_ways("lemma3", lemma3_reference, max_m=max_m, max_k=max_k)
    assert code == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 60))
def test_drawn_gap_argument_matches_its_reference(max_n):
    code, _ = _both_ways("gap-argument", gap_reference, max_n=max_n)
    assert code == 0
