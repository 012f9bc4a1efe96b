"""The fast paths of macgap, each with the slow reference it replaces, and
those references themselves.  A reference that the program also runs or
that is public API (`restrict`, `exact_rank`, `parse_poly`, `verify_green`,
...) stays in macgap; every other one is defined here, as
tests/test_reachable.py keeps the package free of code only tests call.
The GRat pairing `grat_pairing` is one of them: `hermitian.pairing_poly`
is only the `Poly` view of the fast `_pairing_pairs`, so a test that took
it as the oracle would compare the fast path with itself.

`TABLE` has one row per fast path: the module that defines it (the class,
for a method), its name there, its reference, and why the reference is
the right one to compare against.  `reference_mode` swaps every row for
its reference, in every `macgap` module that holds the fast object, so a
command run inside it computes its answer the slow way.
`tests/test_reference_mode.py` runs the same commands both ways, compares
what they print byte for byte, and checks by profiling that the table
misses no fast path and that every function here but the stub
`_no_template` runs in reference mode, so a row left out of the table
leaves its reference unused.
The suite references reach the `_random_int_rows`, `_random_form` and
`_int_restricted_rank` rows by module name, so a swap left out of reference
mode runs a fast path there, which the profile sees.

`recorded` is the spy: it yields one entry per restricted rank, (M, form,
pivot, degree, rank), and per span rank, (rows, rank).  Fast, it wraps
the two kernels; in reference mode the references record the same entries
themselves, so the two lists can be compared call by call.
"""

from __future__ import annotations

import contextlib
import math
import sys
from typing import NamedTuple

import pytest

from macgap import binom_core, cli, gap_calc, gaussint, hermitian, polyspace
from macgap.binom_core import LemmaSweepReport, op_minus
from macgap.gap_calc import (
    GapSweepReport,
    GapVerdict,
    NabForm,
    gap_intervals,
    ineq1_b_range,
    nab_value,
    verify_gap_argument,
)
from macgap.gaussint import clear
from macgap.hermitian import Signature
from macgap.polyspace import (
    GRat,
    GreenSuiteReport,
    Hyperplane,
    Poly,
    PolySubspace,
    coefficient_rows,
    exact_rank,
    format_grat,
    mono,
    monomial_basis,
    parse_poly,
    random_hyperplane,
    restrict,
    rng_for,
    verify_green,
)
from macgap.record import SuiteReport

# the call lists of the `recorded` blocks that are open, innermost last
_OPEN = []


def _record(*entry):
    if _OPEN:
        _OPEN[-1].append(entry)


# ---------------------------------------------------------------------------
# integer rank

def _rank_int(rows: list[list[int]]) -> int:
    """Fraction-free elimination over the integers, column by column on
    the whole matrix; reorders and overwrites `rows`."""
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rp = rows[rank]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            # every row below gets the update, even with f == 0: the
            # division by the previous pivot is only exact on the full
            # Sylvester form pv*x - f*y
            for j in range(col + 1, ncols):
                ri[j] = (pv * ri[j] - f * rp[j]) // prev
            ri[col] = 0
        prev = pv
        rank += 1
    return rank


def rank_int_rows(rows, ncols):
    """`_rank_int` of a copy of every row `rows` yields; 0 for no rows."""
    rows = [list(row) for row in rows]
    return _rank_int(rows) if rows else 0


def rank_gauss_int(rows):
    """Half the rank of the realified rows: a row of pairs (a, b), for
    a + b i, gives the integer rows [a | b] and [-b | a], itself and i times
    itself over the reals; the rows are not modified."""
    real = []
    for row in rows:
        real.append([a for a, _ in row] + [b for _, b in row])
        real.append([-b for _, b in row] + [a for a, _ in row])
    return rank_int_rows(real, 2 * len(rows[0])) // 2


# ---------------------------------------------------------------------------
# `verify green` and `verify restriction`

def veronese_components(n_vars, d):
    """The full degree-d monomial map."""
    return [mono(n_vars, e) for e in monomial_basis(n_vars, d)]


def random_subspace(rng, n_vars, degree):
    """A subspace of count members, count = randint(1, size + 2), with
    every coefficient drawn by randint(-9, 9) in `monomial_basis` order."""
    cols = monomial_basis(n_vars, degree)
    count = rng.randint(1, len(cols) + 2)
    basis = []
    for _ in range(count):
        coeffs = {}
        for e in cols:
            v = rng.randint(-9, 9)
            if v:
                coeffs[e] = GRat(v)
        basis.append(Poly(n_vars, degree, coeffs))
    return PolySubspace(n_vars, degree, basis)


def cleared_rows(polys, n_vars, degree):
    """The nonzero coefficient rows of `polys`, each scaled to Gaussian-integer
    pairs.  For a real subspace their real parts are the integer rows M that
    `_int_restricted_rank` multiplies by R_H."""
    return [clear(r)[1] for r in coefficient_rows(polys, n_vars, degree) if any(r)]


def support_rows(polys):
    """Coefficient rows of a nonempty list of polynomials over the support
    columns only: the monomials some member uses, in the descending order
    of `monomial_basis`.  The columns left out are zero in every row, so the
    rank is that of `coefficient_rows`, at a width independent of the
    size of the monomial space."""
    n_vars, degree = polys[0].n_vars, polys[0].degree
    for p in polys:
        polyspace._check_member(p, n_vars, degree)
    cols = sorted({e for p in polys for e in p.coeffs}, reverse=True)
    index = {e: j for j, e in enumerate(cols)}
    zero = GRat()
    rows = []
    for p in polys:
        row = [zero] * len(cols)
        for e, c in p.coeffs.items():
            row[index[e]] = c
        rows.append(row)
    return rows


def _int_form(H):
    return [int(c.re) for c in H.coeffs]


def _reference_rank(rows, H, degree):
    """Rank of the restrictions of the polynomials with coefficient rows
    `rows` (GRat entries over monomial_basis order), through `restrict`."""
    n_vars = len(H.coeffs)
    basis = monomial_basis(n_vars, degree)
    polys = [Poly(n_vars, degree, dict(zip(basis, row))) for row in rows]
    restricted = [restrict(p, H) for p in polys]
    return exact_rank(coefficient_rows(restricted, n_vars - 1, degree))


def int_restricted_rank(M, form, pivot, degree):
    H = Hyperplane(tuple(GRat(v) for v in form), pivot)
    rank = _reference_rank([[GRat(v) for v in row] for row in M], H, degree)
    _record(M, form, pivot, degree, rank)
    return rank


def green_subspace(rng, n, d, trials):
    """(the GreenRecord of least c_h, hyperplanes drawn) of the next
    subspace of `rng`, as `polyspace._green_subspace` gives them: each
    hyperplane drawn with random_hyperplane and checked by verify_green,
    and up to `trials` more drawn while none meets the bound.  The record
    is None when the least c_h of the first `trials` is 0, a bound that
    holds whatever c is."""
    basis = monomial_basis(n + 1, d)
    # by module name, which reference mode binds to `_int_rows`: the
    # members of random_subspace as integer rows, all-zero ones dropped,
    # which changes no rank
    rows = polyspace._random_int_rows(rng, n + 1, d)
    W = PolySubspace(n + 1, d, [
        Poly(n + 1, d, dict(zip(basis, map(GRat, row)))) for row in rows
    ])

    def check(H):
        rec = verify_green(W, H)
        rank = math.comb(n - 1 + d, d) - rec.c_h
        _record(rows, _int_form(H), H.pivot, d, rank)
        return rec

    recs = [check(random_hyperplane(rng, n + 1)) for _ in range(trials)]
    if not min(r.c_h for r in recs):
        return None, trials
    while not any(r.holds for r in recs) and len(recs) < 2 * trials:
        recs.append(check(random_hyperplane(rng, n + 1)))
    return min(recs, key=lambda r: r.c_h), len(recs)


def green_suite(ns, ds, subspaces, trials, seed):
    report = GreenSuiteReport()
    for n in ns:
        for d in ds:
            for i in range(subspaces):
                best, drawn = green_subspace(rng_for(seed, f"green|n{n}|d{d}|s{i}"), n, d, trials)
                report.subspace_count += 1
                report.checks += drawn
                if best is not None and not best.holds:
                    report.violations.append((i, best))
    return report


def veronese_suite(max_n, max_degree, trials, seed):
    report = SuiteReport()
    for n in range(1, max_n + 1):
        for d in range(1, max_degree + 1):
            comps = veronese_components(n + 1, d)
            # what image_span_dim gives in reference mode, but without
            # recording a span rank, which the fast suite never computes
            expected = op_minus(exact_rank(support_rows(comps)) - 1, n)
            rng = rng_for(seed, f"veronese|n{n}|d{d}")
            M = [[a for a, _ in row] for row in cleared_rows(comps, n + 1, d)]
            for _ in range(trials):
                # by module name, which reference mode binds to
                # `random_form` and `int_restricted_rank`, so a swap left
                # out runs a fast path
                rank = polyspace._int_restricted_rank(M, *polyspace._random_form(rng, n + 1), d)
                report.checks += 1
                if rank - 1 != expected:
                    report.violations.append((n, d, rank - 1, expected))
    return report


def _int_rows(rng, n_vars, degree):
    W = random_subspace(rng, n_vars, degree)
    return [[a for a, _ in row] for row in cleared_rows(W.basis, n_vars, degree)]


def random_form(rng, n_vars):
    """Each coefficient drawn by randint(-9, 9), all drawn again while they
    are all zero, and the first nonzero one's index as the pivot.  It draws
    for itself: `random_hyperplane` calls `_random_form` by module name,
    which reference mode binds to this."""
    while True:
        ints = [rng.randint(-9, 9) for _ in range(n_vars)]
        if any(ints):
            return ints, next(i for i, v in enumerate(ints) if v)


def _no_template(*args):
    raise AssertionError("the restriction template was used in reference mode")


# ---------------------------------------------------------------------------
# the map commands and `verify sharpness`

def parse_cleared(text, n_vars, degree):
    return clear(parse_poly(text, n_vars, degree).coeffs)


def cleared_parser():
    return parse_cleared


def span_rank(rows):
    shape = next(e for row in rows for e in row)
    polys = [Poly(len(shape), sum(shape), {e: GRat(a, b) for e, (a, b) in row.items()})
             for row in rows]
    rank = exact_rank(support_rows(polys))
    _record(rows, rank)
    return rank


def packed(pairs, keys):
    return {keys.pack(e): c for e, c in pairs.items()}


def poly(pairs, keys):
    """The Poly of a packed dict of Gaussian-integer pairs."""
    pairs = {keys.unpack(e): c for e, c in pairs.items()}
    degree = sum(next(iter(pairs), ()))
    return hermitian._from_pairs(keys.n, degree, pairs, 1)


def embed(p, total, offset):
    """p in `total` variables, its own ones from index `offset` on."""
    out = {}
    for exps, c in p.coeffs.items():
        e = [0] * total
        e[offset:offset + len(exps)] = exps
        out[tuple(e)] = c
    return Poly.unchecked(total, p.degree, out)


def grat_pairing(f):
    """P(z, w~) = sum eps'_j f_j(z) * conj-coeffs(f_j)(w~) in GRat
    polynomial arithmetic, in 2*n_vars variables (z block first, w~ block
    second)."""
    nv = f.source.n_vars
    total = Poly(2 * nv, 2 * f.degree, {})
    for j, p in enumerate(f.components):
        e = f.target.eps(j)
        if e == 0 or p.is_zero:
            continue
        prod = embed(p, 2 * nv, 0) * embed(p.conjugate_coeffs(), 2 * nv, nv)
        total = total + prod if e == 1 else total - prod
    return total


def pairing_pairs(f, keys):
    L, pairs = clear(grat_pairing(f).coeffs)
    return L, packed(pairs, keys)


def source_form_poly(sig):
    """Q(z, w~) = sum over non-null i of eps_i z_i w~_i."""
    nv = sig.n_vars
    coeffs = {}
    for i in range(sig.r + sig.s):
        e = [0] * (2 * nv)
        e[i] = 1
        e[nv + i] = 1
        coeffs[tuple(e)] = GRat(sig.eps(i))
    return Poly(2 * nv, 2, coeffs)


def source_form_pairs(sig, keys):
    return packed(clear(source_form_poly(sig).coeffs)[1], keys)


def source_form(Q, keys):
    """The source form Q and its signature: eps_i is its coefficient of
    z_i w~_i."""
    Q = poly(Q, keys)
    nv = keys.n // 2
    eps = [int(Q.coeffs.get(tuple(int(j in (i, nv + i)) for j in range(2 * nv)),
                            GRat()).re) for i in range(nv)]
    return Q, Signature(eps.count(1), eps.count(-1), eps.count(0))


def _wt_slices(P, var):
    """Coefficients of P as a polynomial in one variable: exponent -> poly
    with that variable zeroed out."""
    slices = {}
    for exps, c in P.coeffs.items():
        e = exps[var]
        rest = exps[:var] + (0,) + exps[var + 1:]
        slices.setdefault(e, {})[rest] = c
    return {e: Poly.unchecked(P.n_vars, P.degree - e, coeffs)
            for e, coeffs in slices.items()}


def _pseudo_remainder_ref(P, sig, pivot):
    """The w~_pivot pseudo-remainder of Q | P in GRat polynomial arithmetic:
    with Q = eps_p z_p w~_p + R and P of w~_p-degree D, it is
    sum_e P_e (-R)^e (eps_p z_p)^(D-e), zero iff Q divides P."""
    nv = sig.n_vars
    wp = nv + pivot
    lc = mono(2 * nv, tuple(1 if i == pivot else 0 for i in range(2 * nv)),
              GRat(sig.eps(pivot)))
    neg_r = Poly(2 * nv, 2, {
        e: -c for e, c in source_form_poly(sig).coeffs.items() if e[wp] == 0
    })
    slices = _wt_slices(P, wp)
    D = max(slices)
    lc_pow = [mono(2 * nv, (0,) * (2 * nv))]
    for _ in range(D):
        lc_pow.append(lc_pow[-1] * lc)
    acc = slices[D]
    for e in range(D - 1, -1, -1):
        acc = acc * neg_r
        if e in slices:
            acc = acc + slices[e] * lc_pow[D - e]
    return acc


def _divide_exact_ref(P, Q):
    """Quotient P/Q in GRat polynomial arithmetic, on exponent tuples, for
    known-divisible homogeneous P; leading terms in lexicographic order.
    Raises ArithmeticError if divisibility fails."""
    if Q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    quo = Poly(P.n_vars, P.degree - Q.degree, {})
    rem = P
    lt_q = max(Q.coeffs)
    c_q = Q.coeffs[lt_q]
    while not rem.is_zero:
        lt_r = max(rem.coeffs)
        diff = tuple(a - b for a, b in zip(lt_r, lt_q))
        if any(d < 0 for d in diff):
            raise ArithmeticError("leading term not divisible")
        t = mono(P.n_vars, diff, rem.coeffs[lt_r] / c_q)
        quo = quo + t
        rem = rem - t * Q
    return quo


def divide_exact(P, Q, keys):
    if not P:
        return {}
    Q, sig = source_form(Q, keys)
    P = poly(P, keys)
    if not _pseudo_remainder_ref(P, sig, 0).is_zero:
        raise ArithmeticError("the pseudo-remainder is not zero")
    # Q has leading coefficient +-1, so the quotient of integral P is
    # integral and clears with L = 1
    return packed(clear(_divide_exact_ref(P, Q).coeffs)[1], keys)


def check_quotient(P, Q, quo, keys):
    if (poly(quo, keys) * poly(Q, keys)).coeffs != poly(P, keys).coeffs:
        raise RuntimeError("certificate quotient times Q is not the pairing polynomial")


def _rand_grat(rng):
    im = rng.randint(-3, 3) if rng.random() < 0.4 else 0
    return GRat(rng.randint(-5, 5), im)


def _solve_chart(sig, z, wt, pivot):
    """Overwrite wt[pivot] so that sum over non-null i of eps_i z_i wt_i is
    zero, i.e. <z, conj(wt)> = 0: the solution chart z_pivot != 0."""
    acc = GRat()
    for i in range(sig.r + sig.s):
        if i == pivot:
            continue
        term = z[i] * wt[i]
        acc = acc + term if sig.eps(i) == 1 else acc - term
    wt[pivot] = -acc / (GRat(sig.eps(pivot)) * z[pivot])


def _witness_search_ref(f, P, pivot):
    """The witness (z, w) of `hermitian._witness_search` in GRat arithmetic,
    each candidate tested with `Poly.evaluate`."""
    sig = f.source
    nv = sig.n_vars
    P = hermitian._from_pairs(2 * nv, 2 * f.degree, P, 1)
    rng = rng_for(0, "witness")
    for _ in range(500):
        z = [_rand_grat(rng) for _ in range(nv)]
        if not z[pivot]:
            z[pivot] = GRat(1)
        wt = [_rand_grat(rng) for _ in range(nv)]
        _solve_chart(sig, z, wt, pivot)
        if P.evaluate(z + wt):
            return tuple(z), tuple(c.conjugate() for c in wt)
    raise RuntimeError("no witness found in 500 samples")  # pragma: no cover


def witness_search(f, P, pivot):
    z, w = _witness_search_ref(f, P, pivot)
    D, W = clear([c.conjugate() for c in w])
    return clear(z)[1], W, D


def witness_text(cert):
    return tuple(" ".join(map(format_grat, point)) for point in cert.witness)


# ---------------------------------------------------------------------------
# Macaulay representations, gap intervals, `verify lemma3` and
# `verify gap-argument`

def top_below(rem, level, above):
    return binom_core._largest_top(rem, level)


def lemma_splits(m_max, k_max, table=None):
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


def gap_scan(n, N):
    """The first J_k of `gap_intervals` that holds N, if any."""
    for iv in gap_intervals(n):
        if iv.lo <= N <= iv.hi:
            return GapVerdict(True, iv.k)
    return GapVerdict(False)


def nab_minus(form):
    """Descent by one level: N(n-1;a,b) when n-a-b >= 2, else
    N(n-1;a,b-1) when b >= 1; undefined in the remaining corner."""
    n, a, b = form.n, form.a, form.b
    if n - a - b >= 2:
        return NabForm(n - 1, a, b)
    if b >= 1:
        return NabForm(n - 1, a, b - 1)
    raise ValueError(f"descent undefined for (n,a,b)=({n},{a},{b})")


def descent(n, a, b, m):
    """D_m as the value reached by descent from N(n;a,b) to level m."""
    if not a + 1 <= m <= n - 1:
        raise ValueError(f"m={m} outside [a+1, n-1]")
    form = NabForm(n, a, b)
    while form.n > m:
        form = nab_minus(form)
    return nab_value(form)


def gap_walk(max_n):
    """The sweep as one `verify_gap_argument` report per admissible triple."""
    report = GapSweepReport()
    for n in range(1, max_n + 1):
        a = 0
        while True:
            lo, hi = ineq1_b_range(n, a)
            if lo > hi:
                break
            for b in range(lo, hi + 1):
                r = verify_gap_argument(n, a, b)
                report.checks += 1
                if r.case == "I":
                    report.case_i += 1
                else:
                    report.case_ii += 1
                if not r.holds:
                    report.violations.append(r)
            a += 1
    return report


# ---------------------------------------------------------------------------
# command lines

def no_fast_args(argv):
    return None


# ---------------------------------------------------------------------------
# the table

class Row(NamedTuple):
    owner: object
    name: str
    reference: object
    reason: str


TABLE = [
    Row(polyspace, "green_suite", green_suite,
        "plain loops as the suite is specified: each hyperplane drawn with "
        "random_hyperplane and checked one at a time by verify_green; a "
        "subspace whose trials all miss the bound draws up to trials more, "
        "stopping at the first that meets it"),
    Row(polyspace, "veronese_suite", veronese_suite,
        "the expected dimension from the rank of the monomial map's own "
        "components, not the closed form C(n+d, d) - 1"),
    Row(polyspace, "_random_int_rows", _int_rows,
        "random_subspace + cleared_rows, which draw each entry with randint, "
        "for the same draws taken by _small_ints"),
    Row(polyspace, "_random_form", random_form,
        "the coefficients drawn with randint, for the same draws taken by "
        "_small_ints"),
    Row(polyspace, "_int_restricted_rank", int_restricted_rank,
        "each member restricted by restrict, a plain GRat substitution, and the "
        "restrictions ranked by exact_rank, for M . R_H eliminated row by row"),
    Row(polyspace, "_restriction_template", _no_template,
        "a stub that fails: in reference mode nothing may reach the template, "
        "which only the fast _int_restricted_rank reads"),
    Row(polyspace, "cleared_parser", cleared_parser,
        "parse_poly cleared by clear, for text read straight to integers with "
        "each distinct coefficient token read once per map"),
    Row(gaussint, "_rank_int_rows", rank_int_rows,
        "_rank_int, the column-oriented Bareiss on the whole matrix, for rows "
        "eliminated as they arrive with each pivot column dropped; _rank_pairs "
        "runs in both modes, so without this row its integer path would be "
        "compared only with itself"),
    Row(gaussint, "_rank_gauss_int", rank_gauss_int,
        "half the rank_int_rows of the realified rows, for fraction-free "
        "elimination on Gaussian-integer pairs; exact_rank reaches it in both "
        "modes through _rank_pairs, so without this row it would be compared "
        "only with itself"),
    Row(gaussint, "span_rank", span_rank,
        "exact_rank of the support_rows, dense elimination with no singleton "
        "peeling"),
    Row(hermitian, "_pairing_pairs", pairing_pairs,
        "grat_pairing, the pairing in GRat polynomial arithmetic, cleared, for "
        "the pairing built on pairs and packed keys"),
    Row(hermitian, "_source_form_pairs", source_form_pairs,
        "source_form_poly cleared, for Q built on packed keys"),
    Row(hermitian, "_divide_exact", divide_exact,
        "the w~_0 pseudo-remainder, which decides, and the division in GRat, "
        "which gives the quotient, on exponent tuples"),
    Row(hermitian, "_check_quotient", check_quotient,
        "the product of quotient and Q in GRat, for the product on packed keys"),
    Row(hermitian, "_witness_search", witness_search,
        "_witness_search_ref: GRat candidates, each tested with Poly.evaluate, "
        "for candidates drawn and tested on Gaussian-integer pairs"),
    Row(hermitian.OrthCertificate, "witness_text", witness_text,
        "format_grat of the witness GRats, for the text read off integers"),
    Row(binom_core, "_top_below", top_below,
        "_largest_top, the gallop up from the level that ignores the top of "
        "the level above, for the gallop down from that top"),
    Row(binom_core, "verify_lemma_binom", lemma_splits,
        "every split shifted through op_minus and op_lower, for the sweep"),
    Row(gap_calc, "classify_gap", gap_scan,
        "the first J_k of gap_intervals that holds N, for the one candidate "
        "k = N // (n+1); gap and verify sharpness run the closed form in both "
        "modes, so without this row it would be compared only with itself"),
    Row(gap_calc, "dim_prop_bound", descent,
        "iterated descent; the fast sweep and verify_gap_argument both end in "
        "_dim_bound, so without this row a wrong _dim_bound would pass both "
        "ways"),
    Row(gap_calc, "gap_argument_sweep", gap_walk,
        "one verify_gap_argument report per admissible triple, for the sweep "
        "that decides a block of b values from its two ends"),
    Row(cli, "_fast_args", no_fast_args,
        "every command line parsed by argparse, for the table made from the "
        "declared grammar; main runs the fast path in both modes, so without "
        "this row the profile could not see it"),
]

# each fast object, taken before anything is swapped
FAST = {row.name: vars(row.owner)[row.name] for row in TABLE}

# the kernels whose calls `recorded` lists
SPIED = ("_int_restricted_rank", "span_rank")


def macgap_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "macgap"]


def swap(mp, fast, new, owner=None):
    """Rebinds, through the MonkeyPatch `mp`, every name that holds the
    object `fast` in `owner` and in every loaded `macgap` module to `new`,
    and returns how many names it rebound."""
    holders = macgap_modules()
    if owner is not None:
        holders.append(owner)
    count = 0
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if value is fast:
                mp.setattr(holder, attr, new)
                count += 1
    return count


@contextlib.contextmanager
def reference_mode():
    """Every fast path of `TABLE` swapped for its reference inside the
    block.  A context manager, not a fixture, so that a hypothesis test can
    enter it once per example."""
    with pytest.MonkeyPatch.context() as mp:
        for row in TABLE:
            if not swap(mp, FAST[row.name], row.reference, row.owner):
                raise AssertionError(f"{row.name} is not bound to its fast path")
        yield


@contextlib.contextmanager
def recorded():
    """Yields a list that gets one entry per restricted rank and per span
    rank computed inside the block."""
    calls = []

    def spy(fast):
        def recording(*args):
            result = fast(*args)
            calls.append((*args, result))
            return result
        return recording

    _OPEN.append(calls)
    try:
        with pytest.MonkeyPatch.context() as mp:
            for name in SPIED:
                swap(mp, FAST[name], spy(FAST[name]))
            yield calls
    finally:
        _OPEN.pop()
