"""Canonical forms N(n;a,b), their descent rule, propagated dimension bounds,
and the gap intervals J_k = [kn+k, (k+1)n-(k^2+1)]."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .binom_core import macaulay_rep, op_upper


@dataclass(frozen=True)
class NabForm:
    """Triple (n, a, b) with b <= n-a-1, standing for the integer
    N(n;a,b) = C(n+1,n) + C(n,n-1) + ... + C(n-a+1,n-a) + b."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 1 or self.a < 0 or self.b < 0:
            raise ValueError(f"bad N-form parameters {(self.n, self.a, self.b)}")
        if self.b > self.n - self.a - 1:
            raise ValueError(
                f"inadmissible (a,b)=({self.a},{self.b}) at n={self.n}: "
                f"need b <= n-a-1"
            )


def nab_value(form: NabForm) -> int:
    """The integer N(n;a,b) = (a+1)(n+1) - a(a+1)/2 + b."""
    n, a, b = form.n, form.a, form.b
    return (a + 1) * (n + 1) - a * (a + 1) // 2 + b


def nab_rep_terms(form: NabForm) -> tuple[tuple[int, int], ...]:
    """The level-n Macaulay terms of N(n;a,b): a+1 leading binomials
    C(n+1-j, n-j), then b singleton terms C(c,c) descending from n-a-1."""
    n, a, b = form.n, form.a, form.b
    terms = [(n + 1 - j, n - j) for j in range(a + 1)]
    terms += [(n - a - 1 - i, n - a - 1 - i) for i in range(b)]
    return tuple(terms)


def nab_decompose(N: int, n: int) -> NabForm | None:
    """Inverse of nab_value at level n; None when N is outside
    [n+1, C(n+2,2)-1]."""
    if n < 1:
        raise ValueError("level must be positive")
    if N < n + 1 or N > n * (n + 3) // 2:
        return None
    # consecutive a-blocks [S(a), S(a)+n-a-1] tile the range, so scan for
    # the block containing N
    a = 0
    while (a + 2) * (n + 1) - (a + 1) * (a + 2) // 2 <= N:
        a += 1
    b = N - ((a + 1) * (n + 1) - a * (a + 1) // 2)
    return NabForm(n, a, b)


def nab_minus(form: NabForm) -> NabForm:
    """Descent by one level: N(n-1;a,b) when n-a-b >= 2, else
    N(n-1;a,b-1) when b >= 1; undefined in the remaining corner."""
    n, a, b = form.n, form.a, form.b
    if n - a - b >= 2:
        return NabForm(n - 1, a, b)
    if b >= 1:
        return NabForm(n - 1, a, b - 1)
    raise ValueError(f"descent undefined for (n,a,b)=({n},{a},{b})")


def dim_prop_bounds(n: int, a: int, b: int) -> dict[int, int]:
    """Lower bounds D_m for the span over m-dimensional subspaces,
    a+1 <= m <= n-1: N(m;a,b) above the corner m = a+b+1, and
    N(m;a,m-a-1) below it."""
    NabForm(n, a, b)
    out: dict[int, int] = {}
    for m in range(a + 1, n):
        if m >= a + b + 1:
            out[m] = nab_value(NabForm(m, a, b))
        else:
            out[m] = nab_value(NabForm(m, a, m - a - 1))
    return out


@dataclass(frozen=True)
class GapInterval:
    k: int
    n: int
    lo: int
    hi: int
    tag: str = "theorem"

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


@dataclass(frozen=True)
class GapVerdict:
    in_gap: bool
    k: int | None = None


def classify_gap(n: int, N: int) -> GapVerdict:
    """Locate N in some nonempty J_k, or report that it misses them all."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = 1
    while n > k * (k + 1) and k * n + k <= N:
        if N <= (k + 1) * n - (k * k + 1):
            return GapVerdict(True, k)
        k += 1
    return GapVerdict(False)


@dataclass(frozen=True)
class GapArgumentReport:
    n: int
    a: int
    b: int
    n1: int
    n2: int
    case: str
    d_n1: int
    d_n2: int
    total: int
    n_prime: int
    holds: bool


def ineq1_b_range(n: int, a: int) -> tuple[int, int]:
    """Admissible b interval [a(a+1)/2, n - (a^2+5a+6)/2] (may be empty)."""
    return a * (a + 1) // 2, n - (a * a + 5 * a + 6) // 2


def verify_gap_argument(n: int, a: int, b: int) -> GapArgumentReport:
    """Evaluate the two-halves bound D_{n1} + D_{n2} against N(n;a,b).

    Requires a(a+1)/2 <= b <= n - (a^2+5a+6)/2.  Splits n-1 = n1 + n2 with
    n1 = (n-1)//2, picks Case I when b <= n1-a-1 and Case II when b >= n1-a,
    reads both bounds off dim_prop_bounds, and records whether the sum
    reaches N(n;a,b).  The verdict is expected true on the whole domain.
    """
    lo, hi = ineq1_b_range(n, a)
    if a < 0 or not lo <= b <= hi:
        raise ValueError(f"(a,b)=({a},{b}) outside the admissible range at n={n}")
    n1 = (n - 1) // 2
    n2 = n1 if n % 2 == 1 else n1 + 1
    if n1 + n2 + 1 != n:
        raise RuntimeError(f"halves {n1} + {n2} + 1 do not split n = {n}")
    case = "I" if b <= n1 - a - 1 else "II"
    bounds = dim_prop_bounds(n, a, b)
    d1, d2 = bounds[n1], bounds[n2]
    n_prime = nab_value(NabForm(n, a, b))
    return GapArgumentReport(
        n=n, a=a, b=b, n1=n1, n2=n2, case=case,
        d_n1=d1, d_n2=d2, total=d1 + d2, n_prime=n_prime,
        holds=d1 + d2 >= n_prime,
    )


@dataclass
class GapSweepReport:
    max_n: int
    checks: int = 0
    case_i: int = 0
    case_ii: int = 0
    violations: list[GapArgumentReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def gap_argument_sweep(max_n: int) -> GapSweepReport:
    """Run verify_gap_argument over every admissible (n, a, b) with n <= max_n."""
    report = GapSweepReport(max_n=max_n)
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
