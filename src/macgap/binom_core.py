"""Exact binomial coefficients, Macaulay representations, and index-shift operations.

Every positive integer A has a unique expansion at each level n >= 1,

    A = C(a_n, n) + C(a_{n-1}, n-1) + ... + C(a_delta, delta)

with strictly decreasing tops a_n > a_{n-1} > ... > a_delta, a_j >= j and
delta >= 1 (the classical Macaulay representation).  Three index-shift
operations act on this expansion:

    lower  A_<n>   : decrement every top index,
    minus  A^-<n>  : decrement top and level,
    upper  A^<n>   : increment top and level.

Throughout, results are read with the convention C(a, b) = 0 whenever b = 0
or a < b; `binom` is the one place that applies it.  Every value comes from
`math.comb`, so no top index or value has an upper limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class BinomTable:
    """Empty placeholder; nothing in macgap constructs it.

    The benchmark's traced pass wraps ``BinomTable.__init__`` to count
    Pascal-table builds, so the name stays until that layer is dropped from
    the benchmark.
    """


def binom(a: int, b: int) -> int:
    """C(a, b) with the zero convention for b = 0 and a < b."""
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if b == 0:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class MacaulayRep:
    """Macaulay representation: (top, level) pairs, level descending n..delta."""

    level: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """Re-evaluate the sum of binomials."""
        return sum(math.comb(top, lev) for top, lev in self.terms)

    def __str__(self) -> str:
        return "+".join(f"C({top},{lev})" for top, lev in self.terms)


def _largest_top(rem: int, level: int) -> int:
    # Largest a with C(a, level) <= rem.  C(., level) is strictly increasing
    # for a >= level and C(level, level) = 1 <= rem, so gallop up to a
    # bracket with C(lo, level) <= rem < C(hi, level), then bisect it.
    lo, step = level, 1
    while math.comb(lo + step, level) <= rem:
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, level) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_rep(A: int, n: int, table=None) -> MacaulayRep:
    """Greedy construction of the level-n Macaulay representation of A >= 1.

    At each level pick the largest top whose binomial fits the remainder;
    strict decrease of the tops is automatic.  ``table`` is accepted and
    ignored.
    """
    if A < 1:
        raise ValueError("Macaulay representation is defined for positive integers")
    if n < 1:
        raise ValueError("level must be positive")
    terms = []
    rem = A
    level = n
    while rem > 0:
        top = _largest_top(rem, level)
        terms.append((top, level))
        rem -= math.comb(top, level)
        level -= 1
    return MacaulayRep(level=n, terms=tuple(terms))


def op_lower(A: int, n: int) -> int:
    """A_<n>: decrement every top index of the level-n representation; 0 maps to 0."""
    if A == 0:
        return 0
    return sum(binom(top - 1, lev) for top, lev in macaulay_rep(A, n).terms)


def op_minus(A: int, n: int, table=None) -> int:
    """A^-<n>: decrement tops and levels; terms reaching level 0 vanish.
    ``table`` is accepted and ignored."""
    if A == 0:
        return 0
    return sum(binom(top - 1, lev - 1) for top, lev in macaulay_rep(A, n).terms)


def op_upper(A: int, n: int) -> int:
    """A^<n>: increment tops and levels; 0 maps to 0."""
    if A == 0:
        return 0
    return sum(binom(top + 1, lev + 1) for top, lev in macaulay_rep(A, n).terms)


@dataclass
class LemmaSweepReport:
    """Outcome of the exhaustive split-identity sweep."""

    m_max: int
    k_max: int
    checks: int
    counterexamples: list[tuple[int, int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def lemma_table(m_max: int, k_max: int) -> None:
    """Inert: the sweep needs no table.  Returns None for callers that still
    pass its result on to `verify_lemma_binom`."""
    return None


def lemma_checks(m_max: int, k_max: int) -> int:
    """Number of splits `verify_lemma_binom` checks, in closed form.

    Sum over 1 <= m <= m_max, 1 <= k <= k_max of C(m+k, k); summing the
    hockey stick twice gives C(m_max+k_max+2, m_max+1) - m_max - k_max - 2.
    """
    if m_max < 1 or k_max < 1:
        raise ValueError("sweep bounds must be positive")
    return math.comb(m_max + k_max + 2, m_max + 1) - m_max - k_max - 2


def verify_lemma_binom(m_max: int, k_max: int, table=None) -> LemmaSweepReport:
    """Check A^-<m> + B_<k> = C(m+k-1, k) - 1 over every split A + B = C(m+k, k) - 1.

    Runs for all 1 <= m <= m_max, 1 <= k <= k_max and all A, B >= 0.  A failing
    quadruple (m, k, A, B) is recorded, not raised.  ``table`` is accepted and
    ignored.
    """
    if m_max < 1 or k_max < 1:
        raise ValueError("sweep bounds must be positive")
    checks = 0
    bad: list[tuple[int, int, int, int]] = []
    for m in range(1, m_max + 1):
        for k in range(1, k_max + 1):
            total = math.comb(m + k, k) - 1
            target = math.comb(m + k - 1, k) - 1
            for A in range(total + 1):
                B = total - A
                checks += 1
                if op_minus(A, m) + op_lower(B, k) != target:
                    bad.append((m, k, A, B))
    return LemmaSweepReport(m_max=m_max, k_max=k_max, checks=checks, counterexamples=bad)
