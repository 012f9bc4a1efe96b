"""Canonical forms N(n;a,b), propagated dimension bounds, and the gap
intervals J_k = [kn+k, (k+1)n-(k^2+1)].  The descent rule of the forms
(`nab_minus`) is the reference for `dim_prop_bound`, in
tests/reference_table.py."""

from __future__ import annotations

import math

from .binom_core import macaulay_rep, op_upper
from .record import FrozenRecord, SuiteReport


class NabForm(FrozenRecord):
    """Triple (n, a, b) with b <= n-a-1, standing for the integer
    N(n;a,b) = C(n+1,n) + C(n,n-1) + ... + C(n-a+1,n-a) + b."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: int, b: int):
        _check_nab(n, a, b)
        self._freeze(n, a, b)


def _check_nab(n: int, a: int, b: int) -> None:
    """Raise ValueError unless n >= 1, a, b >= 0 and b <= n-a-1."""
    if n < 1 or a < 0 or b < 0:
        raise ValueError(f"bad N-form parameters {(n, a, b)}")
    if b > n - a - 1:
        raise ValueError(f"inadmissible (a,b)=({a},{b}) at n={n}: need b <= n-a-1")


def _nab(n: int, a: int, b: int) -> int:
    """N(n;a,b) = (a+1)(n+1) - a(a+1)/2 + b of plain integers."""
    return (a + 1) * (n + 1) - a * (a + 1) // 2 + b


def nab_value(form: NabForm) -> int:
    """The integer N(n;a,b) of `form`."""
    return _nab(form.n, form.a, form.b)


def _dim_bound(a: int, b: int, m: int) -> int:
    """D_m of N(n;a,b) as a plain integer, N(m; a, min(b, m-a-1)); the
    caller has checked that (n, a, b) is admissible and a+1 <= m <= n-1."""
    return (a + 1) * (m + 1) - a * (a + 1) // 2 + min(b, m - a - 1)


def dim_prop_bound(n: int, a: int, b: int, m: int) -> int:
    """Lower bound D_m for the span over m-dimensional subspaces of the
    form N(n;a,b), a+1 <= m <= n-1: N(m;a,b) from the corner m = a+b+1
    up, and N(m;a,m-a-1) below it."""
    NabForm(n, a, b)
    if not a + 1 <= m <= n - 1:
        raise ValueError(f"m={m} outside [a+1, n-1] = [{a + 1}, {n - 1}]")
    return _dim_bound(a, b, m)


def dim_prop_bounds(n: int, a: int, b: int) -> dict[int, int]:
    """Every D_m of `dim_prop_bound`, a+1 <= m <= n-1."""
    NabForm(n, a, b)
    return {m: dim_prop_bound(n, a, b, m) for m in range(a + 1, n)}


class GapInterval(FrozenRecord):
    __slots__ = ("k", "n", "lo", "hi", "tag")

    def __init__(self, k: int, n: int, lo: int, hi: int, tag: str = "theorem"):
        self._freeze(k, n, lo, hi, tag)

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


def gap_intervals(n: int) -> list[GapInterval]:
    """All nonempty J_k = [kn+k, (k+1)n-(k^2+1)], ascending in k."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    k = 1
    while n > k * (k + 1):
        out.append(GapInterval(k, n, k * n + k, (k + 1) * n - (k * k + 1)))
        k += 1
    return out


def comparison_intervals(n: int) -> list[GapInterval]:
    """The cited intervals I_k = [kn+1, (k+1)n - k(k+1)/2 - 1], tagged to
    keep them apart from the theorem's J_k; nonempty ones only."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    k = 1
    while True:
        lo = k * n + 1
        hi = (k + 1) * n - k * (k + 1) // 2 - 1
        if lo > hi:
            break
        out.append(GapInterval(k, n, lo, hi, tag="conjectural (cited)"))
        k += 1
    return out


def interval_counts(n: int) -> tuple[int, int]:
    """(len(gap_intervals(n)), len(comparison_intervals(n))) in closed form.

    J_k is nonempty iff k(k+1) <= n-1, i.e. (2k+1)^2 <= 4n-3; I_k iff
    k(k+1) <= 2n-4, i.e. (2k+1)^2 <= 8n-15.  Both conditions fail from some
    k on, so each count is the number of k >= 1 with 2k+1 <= isqrt(...)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return (math.isqrt(4 * n - 3) - 1) // 2, (math.isqrt(8 * n - 15) - 1) // 2


class GapVerdict(FrozenRecord):
    __slots__ = ("in_gap", "k")

    def __init__(self, in_gap: bool, k: int | None = None):
        self._freeze(in_gap, k)


def classify_gap(n: int, N: int) -> GapVerdict:
    """Locate N in some nonempty J_k, or report that it misses them all.

    J_k = [k(n+1), (k+1)n - (k^2+1)] lies below (k+1)(n+1), so the only
    candidate is k = N // (n+1).  Its reference, a scan of `gap_intervals`,
    is in tests/reference_table.py.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = N // (n + 1)
    if k >= 1 and n > k * (k + 1) and N <= (k + 1) * n - (k * k + 1):
        return GapVerdict(True, k)
    return GapVerdict(False)


class GapArgumentReport(FrozenRecord):
    __slots__ = ("n", "a", "b", "n1", "n2", "case", "d_n1", "d_n2", "total",
                 "n_prime", "holds")

    def __init__(self, n: int, a: int, b: int, n1: int, n2: int, case: str,
                 d_n1: int, d_n2: int, total: int, n_prime: int, holds: bool):
        self._freeze(n, a, b, n1, n2, case, d_n1, d_n2, total, n_prime, holds)


def ineq1_b_range(n: int, a: int) -> tuple[int, int]:
    """Admissible b interval [a(a+1)/2, n - (a^2+5a+6)/2] (may be empty)."""
    return a * (a + 1) // 2, n - (a * a + 5 * a + 6) // 2


def _halves(n: int) -> tuple[int, int]:
    """The split n-1 = n1 + n2 with n1 = (n-1)//2."""
    n1 = (n - 1) // 2
    n2 = n1 if n % 2 == 1 else n1 + 1
    if n1 + n2 + 1 != n:
        raise RuntimeError(f"halves {n1} + {n2} + 1 do not split n = {n}")
    return n1, n2


def verify_gap_argument(n: int, a: int, b: int) -> GapArgumentReport:
    """Evaluate the two-halves bound D_{n1} + D_{n2} against N(n;a,b).

    Requires a(a+1)/2 <= b <= n - (a^2+5a+6)/2.  Splits n-1 = n1 + n2 with
    n1 = (n-1)//2, picks Case I when b <= n1-a-1 and Case II when b >= n1-a,
    evaluates D_{n1} and D_{n2} with dim_prop_bound, and records whether the
    sum reaches N(n;a,b).  The verdict is expected true on the whole domain.
    """
    lo, hi = ineq1_b_range(n, a)
    if a < 0 or not lo <= b <= hi:
        raise ValueError(f"(a,b)=({a},{b}) outside the admissible range at n={n}")
    n1, n2 = _halves(n)
    case = "I" if b <= n1 - a - 1 else "II"
    d1, d2 = dim_prop_bound(n, a, b, n1), dim_prop_bound(n, a, b, n2)
    n_prime = nab_value(NabForm(n, a, b))
    return GapArgumentReport(
        n=n, a=a, b=b, n1=n1, n2=n2, case=case,
        d_n1=d1, d_n2=d2, total=d1 + d2, n_prime=n_prime,
        holds=d1 + d2 >= n_prime,
    )


class GapSweepReport(SuiteReport):
    """A `SuiteReport` whose violations are `GapArgumentReport`s, with the
    case I and case II triples counted apart."""

    __slots__ = ("case_i", "case_ii")

    def __init__(self, checks: int = 0, violations: list[GapArgumentReport] | None = None,
                 case_i: int = 0, case_ii: int = 0):
        super().__init__(checks, violations)
        self.case_i, self.case_ii = case_i, case_ii


def gap_argument_checks(max_n: int) -> int:
    """Number of triples `gap_argument_sweep(max_n)` checks, in closed form.

    The b range at (n, a) is nonempty iff n >= n0(a) = a^2+3a+3, and then
    holds n - n0(a) + 1 values, so level a contributes T(T+1)/2 with
    T = max_n - n0(a) + 1 = c - u, c = max_n - 2, u = a(a+3).  Summing
    over 0 <= a <= a_top with the power sums of a gives the count in O(1)
    integer operations, whatever the size of max_n.
    """
    if max_n < 3:
        return 0
    # largest a with a^2 + 3a + 3 <= max_n
    a_top = (math.isqrt(4 * max_n - 3) - 3) // 2
    s1 = a_top * (a_top + 1) // 2
    s2 = a_top * (a_top + 1) * (2 * a_top + 1) // 6
    s4 = a_top * (a_top + 1) * (2 * a_top + 1) * (3 * a_top**2 + 3 * a_top - 1) // 30
    # the sum of a^3 is s1^2
    sum_u = s2 + 3 * s1
    sum_u2 = s4 + 6 * s1 * s1 + 9 * s2
    c = max_n - 2
    return ((a_top + 1) * c * (c + 1) - (2 * c + 1) * sum_u + sum_u2) // 2


def _slack(a: int, b: int, n1: int, n2: int, base: int) -> int:
    """D_{n1} + D_{n2} - N(n;a,b) from `_dim_bound`, with base = N(n;a,0)."""
    return _dim_bound(a, b, n1) + _dim_bound(a, b, n2) - base - b


def gap_argument_sweep(max_n: int) -> GapSweepReport:
    """Check the two-halves bound of `verify_gap_argument` at every
    admissible (n, a, b) with n <= max_n, as plain integer arithmetic.

    The halves are split once per n.  Once per (n, a) block of b values
    the sweep checks on plain integers, with no `NabForm` built, that
    N(n;a,hi) is admissible (so is every smaller b; the same ValueError as
    `NabForm`) and that n1 >= a+1 (so D_{n1} and D_{n2} are defined), and
    counts the case I triples b <= n1-a-1 and the case II rest.

    Two comparisons then decide a block.  With D_m from `_dim_bound`, the
    helper that `dim_prop_bound` also ends in, the slack of the bound is

        f(b) = D_{n1} + D_{n2} - N(n;a,b)
             = K + min(b, n1-a-1) + min(b, n2-a-1) - b,

    with K independent of b: a sum of concave terms minus a linear one.
    So f is concave on [lo, hi], its minimum there is f(lo) or f(hi), and
    the bound holds on the whole block when it holds at both ends.  Only
    a block with a failing end is walked triple by triple, in b order, and
    only a violating triple builds its `verify_gap_argument` report; a
    report that says the bound holds after all is a `RuntimeError`: the
    two paths disagree.  In the worst case, every block failing, the walk
    adds one comparison per triple to the two per block.
    """
    report = GapSweepReport()
    checks = case_i = 0
    for n in range(1, max_n + 1):
        n1, n2 = _halves(n)
        a = 0
        while True:
            lo, hi = ineq1_b_range(n, a)
            if lo > hi:
                break
            _check_nab(n, a, hi)
            if n1 < a + 1:
                raise RuntimeError(f"half n1 = {n1} below a+1 = {a + 1} at n = {n}")
            base = _nab(n, a, 0)
            if _slack(a, lo, n1, n2, base) < 0 or _slack(a, hi, n1, n2, base) < 0:
                for b in range(lo, hi + 1):
                    if _slack(a, b, n1, n2, base) >= 0:
                        continue
                    r = verify_gap_argument(n, a, b)
                    if r.holds:
                        raise RuntimeError(
                            f"two-halves bound at (n,a,b)=({n},{a},{b}): the sweep "
                            f"and verify_gap_argument disagree"
                        )
                    report.violations.append(r)
            checks += hi - lo + 1
            if lo <= n1 - a - 1:
                case_i += min(hi, n1 - a - 1) - lo + 1
            a += 1
    report.checks, report.case_i, report.case_ii = checks, case_i, checks - case_i
    return report


def plane_step(ell: int, ell_prime: int) -> int:
    """One propagation step: an (ell+1)-plane maps into a
    ((ell'+1)^<ell> - 1)-plane."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    if ell_prime < 0:
        raise ValueError("need ell_prime >= 0")
    out = op_upper(ell_prime + 1, ell) - 1
    # the two closed-form cases
    if ell_prime <= 2 * ell - 1:
        expected = ell_prime if ell_prime <= ell - 1 else ell_prime + 1
        if out != expected:
            raise RuntimeError(
                f"plane_step({ell}, {ell_prime}) = {out}, closed form gives {expected}"
            )
    return out


def plane_chain(ell: int, ell_prime: int, steps: int) -> int:
    """Iterate plane_step with the source level growing by one each time."""
    if steps < 1:
        raise ValueError("need steps >= 1")
    cur = ell_prime
    for i in range(steps):
        cur = plane_step(ell + i, cur)
    return cur


def plane_chain_closed_form(ell: int, ell_prime: int, steps: int) -> int:
    """Sum C(lambda_j + steps, j + steps) - 1 over the level-ell terms of
    ell'+1; equals plane_chain by the duality of the index shifts."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    if steps < 1:
        raise ValueError("need steps >= 1")
    rep = macaulay_rep(ell_prime + 1, ell)
    return sum(math.comb(top + steps, lev + steps) for top, lev in rep.terms) - 1
