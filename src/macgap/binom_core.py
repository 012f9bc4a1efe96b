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
import sys
from array import array

from .record import FrozenRecord, SuiteReport


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


class MacaulayRep(FrozenRecord):
    """Macaulay representation: (top, level) pairs, level descending n..delta."""

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: tuple[tuple[int, int], ...]):
        self._freeze(level, terms)

    def value(self) -> int:
        """Re-evaluate the sum of binomials."""
        return sum(math.comb(top, lev) for top, lev in self.terms)

    def lower(self) -> int:
        """A_<n>: every top index decremented."""
        return sum(binom(top - 1, lev) for top, lev in self.terms)

    def minus(self) -> int:
        """A^-<n>: tops and levels decremented; terms reaching level 0 vanish."""
        return sum(binom(top - 1, lev - 1) for top, lev in self.terms)

    def upper(self) -> int:
        """A^<n>: tops and levels incremented."""
        return sum(binom(top + 1, lev + 1) for top, lev in self.terms)

    def __str__(self) -> str:
        return "+".join(f"C({top},{lev})" for top, lev in self.terms)


def _largest_top(rem: int, level: int) -> int:
    # Largest a with C(a, level) <= rem: rem itself at level 1, where
    # C(a, 1) = a.  C(., level) is strictly increasing for a >= level and
    # C(level, level) = 1 <= rem, so gallop up to a bracket with
    # C(lo, level) <= rem < C(hi, level), then bisect it.
    if level == 1:
        return rem
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


def _top_below(rem: int, level: int, above: int) -> int:
    # Largest a < above with C(a, level) <= rem, for rem >= 1 and
    # C(above, level) > rem: rem at level 1, as in `_largest_top`, else
    # gallop down from `above` to a bracket and bisect it.  Below the first
    # level of a large representation the top lies just under the one
    # before, so this gallop is short where one up from the level is long.
    if level == 1:
        return rem
    hi, step = above, 1
    while hi - step > level and math.comb(hi - step, level) > rem:
        hi -= step
        step *= 2
    lo = hi - step if hi - step > level else level
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
    strict decrease of the tops is automatic.  The top of level n is
    searched up from n; every later one down from the top before it,
    since a remainder below C(top+1, level) - C(top, level) = C(top,
    level-1) puts the next top below it.  ``table`` is accepted and
    ignored.
    """
    if A < 1:
        raise ValueError("Macaulay representation is defined for positive integers")
    if n < 1:
        raise ValueError("level must be positive")
    level = n
    top = _largest_top(A, level)
    terms = [(top, level)]
    rem = A - math.comb(top, level)
    while rem > 0:
        level -= 1
        top = _top_below(rem, level, top)
        terms.append((top, level))
        rem -= math.comb(top, level)
    return MacaulayRep(level=n, terms=tuple(terms))


def op_lower(A: int, n: int) -> int:
    """A_<n> of the level-n representation; 0 maps to 0."""
    return macaulay_rep(A, n).lower() if A else 0


def op_minus(A: int, n: int, table=None) -> int:
    """A^-<n> of the level-n representation; 0 maps to 0.
    ``table`` is accepted and ignored."""
    return macaulay_rep(A, n).minus() if A else 0


def op_upper(A: int, n: int) -> int:
    """A^<n> of the level-n representation; 0 maps to 0."""
    return macaulay_rep(A, n).upper() if A else 0


class LemmaSweepReport(SuiteReport):
    """Outcome of the exhaustive split-identity sweep: each violation is a
    failing quadruple (m, k, A, B)."""

    __slots__ = ()

    @property
    def counterexamples(self) -> list[tuple[int, int, int, int]]:
        return self.violations


def lemma_table(m_max: int, k_max: int) -> None:
    """Inert: the sweep needs no table.  Returns None for callers that still
    pass its result on to `verify_lemma_binom`."""
    return None


def comb_upto(n: int, r: int, cap: int) -> int | None:
    """C(n, r), 0 <= r <= n, if it is at most `cap`, else None.

    Built as the product C(n-r'+i, i), i = 1..r', with r' = min(r, n-r);
    each factor (n-r'+i)/i is at least 2, so the product passes `cap` after
    about log2(cap) steps and stops there, without computing a large
    binomial.  An r outside 0..n raises ValueError."""
    if not 0 <= r <= n:
        raise ValueError(f"comb_upto needs 0 <= r <= n, got n = {n}, r = {r}")
    r = min(r, n - r)
    count = 1
    for i in range(1, r + 1):
        count = count * (n - r + i) // i
        if count > cap:
            return None
    return count


def lemma_checks_upto(m_max: int, k_max: int, cap: int) -> int | None:
    """The number of splits `verify_lemma_binom(m_max, k_max)` checks, if
    it is at most `cap`, else None, in O(log cap) steps at any bounds.

    Sum over 1 <= m <= m_max, 1 <= k <= k_max of C(m+k, k); summing the
    hockey stick twice gives C(m_max+k_max+2, m_max+1) - m_max - k_max - 2.
    """
    if m_max < 1 or k_max < 1:
        raise ValueError("sweep bounds must be positive")
    extra = m_max + k_max + 2
    count = comb_upto(m_max + k_max + 2, m_max + 1, cap + extra)
    return None if count is None else count - extra


# Values per chunk when the sweep adds an offset to a prefix of a table or
# adds two tables; bounds every temporary.
_CHUNK = 1 << 12

# The shift tables are arrays of signed 2, 4 or 8-byte entries, and the
# sweep adds a chunk of them as packed lanes (SIMD within a register, Fisher
# and Dietz, LCPC 1998): the bytes of a chunk of w-byte entries, read as one
# big integer, hold entry i in the i-th w-byte lane, so one integer sum adds
# every lane at once.  That is exact when no lane carries into the next,
# which entries in [0, 2^(8w-2)) guarantee: a sum of two stays below
# 2^(8w-1).  `_lanes` checks the range of every entry it reads by its most
# significant byte, which must be below 0x40.  Every entry of one sweep is
# below C(m_max+k_max, k_max), so `_shift_levels` builds its tables at the
# narrowest width whose lane bound is at least that, and 2^62, the bound of
# the widest, caps the sweep.
_LANE_BOUND = 1 << 62
_LANE_WIDTHS = (2, 4, 8)
# the signed array typecode of each lane width
_TYPECODES = {
    width: next(code for code in "hilq" if array(code).itemsize == width)
    for width in _LANE_WIDTHS
}
_LITTLE = sys.byteorder == "little"
_TOP_BYTES = {width: slice(width - 1 if _LITTLE else 0, None, width) for width in _LANE_WIDTHS}
_LANE_TOPS = bytes(range(0x40))


def _lanes(chunk: array) -> int:
    """The entries of `chunk` as one integer, one lane of `chunk.itemsize`
    bytes each.

    A chunk whose entries are not 2, 4 or 8 bytes wide, or one with an entry
    outside [0, 2^(8w-2)) at width w, raises RuntimeError: its lanes could
    carry."""
    width = chunk.itemsize
    if width not in _TOP_BYTES:
        raise RuntimeError(f"shift table entries of {width} bytes, not 2, 4 or 8")
    data = chunk.tobytes()
    if data[_TOP_BYTES[width]].translate(None, _LANE_TOPS):
        raise RuntimeError(f"a shift table entry is outside [0, 2^{8 * width - 2})")
    return int.from_bytes(data, sys.byteorder)


def _repeated(value: int, count: int, width: int) -> int:
    """`value` in each of `count` lanes of `width` bytes; RuntimeError at a
    width other than 2, 4 or 8, or for a value outside [0, 2^(8 width - 2))."""
    if width not in _TOP_BYTES:
        raise RuntimeError(f"lanes of {width} bytes, not 2, 4 or 8")
    if not 0 <= value < 1 << (8 * width - 2):
        raise RuntimeError(f"lane value {value} is outside [0, 2^{8 * width - 2})")
    return int.from_bytes(value.to_bytes(width, sys.byteorder) * count, sys.byteorder)


def _chunk_lanes(table: array) -> list[int]:
    """`_lanes` of each _CHUNK-entry chunk of `table`, in order, the last one
    read as if zeros filled it up to _CHUNK entries (a no-op in little-endian
    order), so that `_prefix` cuts every chunk alike."""
    chunks = []
    for lo in range(0, len(table), _CHUNK):
        chunk = table[lo:lo + _CHUNK]
        lanes = _lanes(chunk)
        if not _LITTLE:
            lanes <<= 8 * table.itemsize * (_CHUNK - len(chunk))
        chunks.append(lanes)
    return chunks


def _prefix(lanes: int, count: int, width: int) -> int:
    """The first `count` lanes, in memory order, of a full chunk of `lanes`
    (`_chunk_lanes`) of `width` bytes each."""
    if _LITTLE:
        return lanes & ((1 << 8 * width * count) - 1)
    return lanes >> 8 * width * (_CHUNK - count)


def _shift_levels(span: int, top: int, minus: bool):
    """Yield (j, table) for j = 1..top: table[X] is X^-<j> if `minus`, else
    X_<j>, for every X < C(span+j, j), as an array of signed 2, 4 or 8-byte
    entries.

    Level j follows from level j-1 (the combinatorial number system read
    level by level, Knuth, TAOCP 7.2.1.3).  Take X whose level-j top is a:
    X = C(a, j) + R with R < C(a, j-1), and the other terms of X form the
    level-(j-1) representation of R.  So X_<j> = C(a-1, j) + R_<j-1> and
    X^-<j> = C(a-1, j-1) + R^-<j-1>, which is 0 at j = 1.  The X with top a
    are C(a, j) .. C(a+1, j) - 1, so the level-j table is [0] followed, for
    a = j .. span+j-1, by the first C(a, j-1) entries of level j-1 plus that
    offset, added a chunk at a time as packed lanes.

    Both shifts never exceed their argument, so every entry is below
    C(span+top, top) = C(span+top, span), the same for (span, top) and
    (top, span).  Every level is built at the narrowest lane width w whose
    bound 2^(8w-2) is at least that number.  A span and top where it
    passes 2^62 raise ValueError before any table is built.
    """
    bound = comb_upto(span + top, top, _LANE_BOUND)
    if bound is None:
        raise ValueError(f"shift tables of span {span} and top level {top} pass 2^62 entries")
    width = next(width for width in _LANE_WIDTHS if bound <= 1 << (8 * width - 2))
    code = _TYPECODES[width]
    below = array(code, [0])  # level 0: R = 0 alone
    for j in range(1, top + 1):
        table = array(code, [0])
        for a in range(j, span + j):
            size = math.comb(a, j - 1)
            offset = binom(a - 1, j - 1) if minus else binom(a - 1, j)
            for lo in range(0, size, _CHUNK):
                chunk = below[lo:min(lo + _CHUNK, size)]
                if offset:
                    lanes = _lanes(chunk) + _repeated(offset, len(chunk), width)
                    table.frombytes(lanes.to_bytes(len(chunk) * width, sys.byteorder))
                else:
                    table.extend(chunk)
        yield j, table
        below = table


def _some_split_fails(minus: list[int], width: int, reversed_lower: array,
                      total: int, target: int) -> bool:
    """Whether minus[A] + lower[total - A] != target for some 0 <= A <= total.

    `minus` is the minus table as `_chunk_lanes`, of `width`-byte lanes,
    read once for every total it is checked against; `reversed_lower` is
    the lower table reversed, so the B = total - A that pair with a run of
    A form a forward slice of it.  Decided a chunk of splits at a time: the
    prefix of minus' chunk that the splits reach, plus the lanes of the
    slice of `reversed_lower` they pair with, against `target` in every
    lane.  A lower table of another width raises RuntimeError, and so does
    an entry that could carry (`_lanes`), so a failing split is never hidden
    by a neighbouring lane.
    """
    if reversed_lower.itemsize != width:
        raise RuntimeError(
            f"minus lanes of {width} bytes against lower entries of {reversed_lower.itemsize}")
    # reversed_lower[start + A] = lower[total - A]
    start = len(reversed_lower) - 1 - total
    for lo in range(0, total + 1, _CHUNK):
        count = min(_CHUNK, total + 1 - lo)
        lanes = minus[lo // _CHUNK]
        if count < _CHUNK:
            lanes = _prefix(lanes, count, width)
        lanes += _lanes(reversed_lower[start + lo:start + lo + count])
        if lanes != _repeated(target, count, width):
            return True
    return False


def verify_lemma_binom(m_max: int, k_max: int, table=None) -> LemmaSweepReport:
    """Check A^-<m> + B_<k> = C(m+k-1, k) - 1 over every split A + B = C(m+k, k) - 1.

    Runs for all 1 <= m <= m_max, 1 <= k <= k_max and all A, B >= 0.  A failing
    quadruple (m, k, A, B) is recorded, not raised, in order of m, k and A.
    ``table`` is accepted and ignored.

    The shifts come from `_shift_levels`, by recurrence on the level with no
    Macaulay representation built: B_<k> for every B < C(m_max+k, k) up front,
    and A^-<m> for every A < C(m+k_max, k_max) one level m at a time.  These
    are one row and one column of the sum `lemma_checks_upto` counts, so the
    tables hold at most twice as many entries as there are checks.  Both
    families share one lane width, the narrowest that holds C(m_max+k_max,
    k_max).  Each lower table is reversed once, and each minus table read as
    lanes once, for all the split checks it takes part in.  Every split then
    compares two looked-up values; a (m, k) with no failing split is passed
    over at C speed, and only one that fails is walked split by split.
    """
    if m_max < 1 or k_max < 1:
        raise ValueError("sweep bounds must be positive")
    checks = 0
    bad: list[tuple[int, int, int, int]] = []
    lowers = {k: lower[::-1] for k, lower in _shift_levels(m_max, k_max, minus=False)}
    for m, minus in _shift_levels(k_max, m_max, minus=True):
        lanes = _chunk_lanes(minus)
        for k in range(1, k_max + 1):
            total = math.comb(m + k, k) - 1
            target = math.comb(m + k - 1, k) - 1
            lower = lowers[k]
            if _some_split_fails(lanes, minus.itemsize, lower, total, target):
                start = len(lower) - 1 - total
                for A in range(total + 1):
                    if minus[A] + lower[start + A] != target:
                        bad.append((m, k, A, total - A))
            checks += total + 1
    return LemmaSweepReport(checks, bad)
