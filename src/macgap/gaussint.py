"""Gaussian-integer kernel: cleared polynomials and exact rank.

A Gaussian rational a/p + (b/q) i is carried as the pair (a', b') of
Gaussian-integer parts after a whole row or polynomial is scaled by one
positive integer L.  A cleared polynomial is the form (L, {exps: (re, im)})
that `clear` produces, and that `polyspace.cleared_parser` reads from text;
scaling by L changes neither a rank nor a zero test, and P / L gives the
rational value back.  `pairing` builds the pairing
polynomial of a map from its cleared components on packed monomial keys
(`Packing`), and `vanishes_at` tests it at a witness candidate on
Gaussian-integer pairs.

The rank kernels are fraction-free (Bareiss 1968) on integer rows and on
pair rows.  `_rank_int_rows` is the one integer kernel: it eliminates
integer rows one at a time as they arrive, drops each pivot column once it
is eliminated, and stops once the rank reaches the width, so a caller that
forms its rows lazily never forms the rest.  Its reference, the
column-oriented Bareiss on the whole matrix, is in tests/reference_table.py.
`span_rank` ranks sparse rows: it first peels singleton columns and
singleton rows, the first step of structured Gaussian elimination
(LaMacchia-Odlyzko 1990), and hands only the remaining core to
`_rank_pairs`.  The pair products inside the elimination loops are
written out inline, since a call per scalar product would dominate them.
"""

from __future__ import annotations

import math

from .record import FrozenRecord


def clear(coeffs):
    """(L, pairs): L the least positive integer that makes every Gaussian
    rational in `coeffs` a Gaussian integer, and pairs the (re, im) parts of
    L times each of them.  `coeffs` is a sequence of `GRat`s, giving a list,
    or a dict of them, giving a dict on the same keys."""
    values = coeffs.values() if isinstance(coeffs, dict) else coeffs
    L = 1
    for c in values:
        L = math.lcm(L, c.re.denominator, c.im.denominator)
    pairs = [
        (c.re.numerator * (L // c.re.denominator),
         c.im.numerator * (L // c.im.denominator))
        for c in values
    ]
    return L, dict(zip(coeffs, pairs)) if isinstance(coeffs, dict) else pairs


def field_bytes(degree: int) -> int:
    """Bytes of one field of a `Packing` of entries at most `degree`."""
    return degree.bit_length() // 8 + 1


class Packing(FrozenRecord):
    """Exponent vectors of `n` entries, each at most `degree`, packed into
    one int each (Monagan and Pearce, CASC 2007): big-endian, in fields of
    `nb` whole bytes, with the top bit of every field to spare as a guard.

    Int order is the lexicographic order of the vectors, and the key of a
    product of monomials is the sum of their keys.  For keys a and b, a - b
    has a bit of `guard` set iff some entry of a is below that of b: the
    lowest such field borrows from the one above and keeps its guard bit
    set, and no field below it borrows."""

    __slots__ = ("n", "nb", "guard")

    def __init__(self, n: int, degree: int):
        nb = field_bytes(degree)
        self._freeze(n, nb, int.from_bytes(bytes([0x80] + [0] * (nb - 1)) * n, "big"))

    def pack(self, exps) -> int:
        """The key of `exps`; a vector of fewer than n entries packs into
        as many low fields."""
        if self.nb == 1:
            return int.from_bytes(bytes(exps), "big")
        return int.from_bytes(b"".join(e.to_bytes(self.nb, "big") for e in exps), "big")

    def unpack(self, key: int) -> tuple[int, ...]:
        nb = self.nb
        raw = key.to_bytes(self.n * nb, "big")
        if nb == 1:
            return tuple(raw)
        return tuple(int.from_bytes(raw[i:i + nb], "big") for i in range(0, len(raw), nb))


def pairing(parts, keys: Packing) -> tuple[int, dict]:
    """The pairing sum of cleared polynomials, cleared again.

    `parts` lists (sign, L_j, F_j) with F_j = L_j * f_j cleared and keyed
    by `keys.pack` of its exponent vectors, of keys.n / 2 entries.  Returns
    (L, pairs) with L = lcm of the L_j^2 and pairs = L * sum_j sign_j *
    f_j(z) * conj-coeffs(f_j)(w~), keyed by `keys`: the z exponents come
    first, so the key of a term is that of its z exponents shifted up by
    keys.n / 2 fields plus that of its w~ exponents.  Zero terms are
    dropped."""
    shift = 8 * keys.nb * (keys.n // 2)
    L = math.lcm(*(Lj * Lj for _, Lj, _ in parts))
    out: dict[int, tuple[int, int]] = {}
    for sign, Lj, F in parts:
        s = sign * (L // (Lj * Lj))
        conj = [(e, a, -b) for e, (a, b) in F.items()]
        for e1, (a1, b1) in F.items():
            a1, b1, hi = s * a1, s * b1, e1 << shift
            for e2, a2, b2 in conj:
                key = hi + e2
                x, y = out.get(key, (0, 0))
                out[key] = (x + a1 * a2 - b1 * b2, y + a1 * b2 + b1 * a2)
    return L, {e: c for e, c in out.items() if c != (0, 0)}


def vanishes_at(P: dict, point) -> bool:
    """Whether the pair polynomial P is zero at a point of Gaussian-integer
    pairs, computed exactly on integers.  A caller with a rational point of
    a homogeneous P scales it to integers first: P(D x) = D^deg P(x)."""
    powers = [[(1, 0)] for _ in point]
    ta = tb = 0
    for exps, (a, b) in P.items():
        for i, e in enumerate(exps):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    x, y = pw[-1]
                    u, v = point[i]
                    pw.append((x * u - y * v, x * v + y * u))
                u, v = pw[e]
                a, b = a * u - b * v, a * v + b * u
        ta += a
        tb += b
    return ta == tb == 0


def _rank_int_rows(rows, ncols: int) -> int:
    """Rank of integer rows of width `ncols`, eliminated one row at a time
    as `rows` yields them; the rows are not modified.

    Each new row x is reduced by every basis row (c_j, b_j) in order, as
    x <- (p_j*x - x[c_j]*b_j) // p_{j-1}, with p_j = b_j[c_j] and p_0 = 1;
    this is Bareiss on the rows kept so far, so every division is exact.
    Entry c_j of x is then zero, and is deleted: b_{j+1} and every later
    basis row were stored after the same deletions, so x and each of them
    keep one column order, and every entry left is the one Bareiss gives.
    x joins the basis with its first nonzero entry as pivot, if it has one
    left.  The rank never exceeds `ncols`, so once the basis holds `ncols`
    rows the rest of `rows` is never drawn."""
    basis = []
    for x in rows:
        prev = 1
        for c, b, p in basis:
            f = x[c]
            # every basis row gets applied, even with f == 0: the division
            # by the previous pivot is only exact on the full form p*x - f*b
            if f:
                x = [(p * u - f * v) // prev for u, v in zip(x, b)]
            else:
                x = [p * u // prev for u in x]
            del x[c]
            prev = p
        lead = next(filter(None, x), 0)
        if lead:
            basis.append((x.index(lead), x, lead))
            if len(basis) == ncols:
                break
    return len(basis)


def _rank_gauss_int(rows: list[list[tuple[int, int]]]) -> int:
    """Fraction-free elimination over the Gaussian integers (pairs);
    reorders and overwrites `rows`.  Its reference, half the integer rank
    of the realified rows, is in tests/reference_table.py."""
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = (1, 0)
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next(
            (i for i in range(rank, nrows) if rows[i][col] != (0, 0)), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rp = rows[rank]
        pa, pb = prev
        nprev = pa * pa + pb * pb
        for i in range(rank + 1, nrows):
            ri = rows[i]
            fa, fb = ri[col]
            va, vb = pv
            for j in range(col + 1, ncols):
                xa, xb = ri[j]
                ya, yb = rp[j]
                ta = va * xa - vb * xb - (fa * ya - fb * yb)
                tb = va * xb + vb * xa - (fa * yb + fb * ya)
                # exact division by prev = pa + pb*i
                ri[j] = (
                    (ta * pa + tb * pb) // nprev,
                    (tb * pa - ta * pb) // nprev,
                )
            ri[col] = (0, 0)
        prev = pv
        rank += 1
    return rank


def _rank_pairs(rows: list[list[tuple[int, int]]]) -> int:
    """Rank of Gaussian-integer pair rows, on the integer path when no entry
    has an imaginary part.  Only the Gaussian path, `_rank_gauss_int`, may
    reorder and overwrite `rows`."""
    if not rows:
        return 0
    if all(b == 0 for row in rows for _, b in row):
        return _rank_int_rows(([a for a, _ in row] for row in rows), len(rows[0]))
    return _rank_gauss_int(rows)


def span_rank(rows: list[dict]) -> int:
    """Rank of sparse rows, each a dict column -> Gaussian-integer pair;
    zero entries are ignored and the rows are not modified.

    A column with one nonzero entry makes its row independent of the rest:
    rank + 1, drop the row.  A row with one nonzero entry, in column c, can
    clear c from every other row: rank + 1, drop the row and the column.
    Both peels repeat until neither applies; dropping a row or a column can
    make new singletons.  The core left over, whose rows and columns all
    hold two entries or more, is ranked by `_rank_pairs`."""
    live = {}
    where: dict = {}
    for i, row in enumerate(rows):
        kept = {c: v for c, v in row.items() if v != (0, 0)}
        if kept:
            live[i] = kept
            for c in kept:
                where.setdefault(c, set()).add(i)
    rank = 0
    cols, singles = list(where), list(live)
    while cols or singles:
        while cols:
            owners = where.get(cols.pop())
            if owners is None or len(owners) != 1:
                continue
            rank += 1
            i = owners.pop()
            for c in live.pop(i):
                left = where[c]
                left.discard(i)
                if len(left) == 1:
                    cols.append(c)
                elif not left:
                    del where[c]
        while singles:
            i = singles.pop()
            row = live.get(i)
            if row is None or len(row) != 1:
                continue
            rank += 1
            (c,) = row
            del live[i]
            for j in where.pop(c):
                if j == i:
                    continue
                other = live[j]
                del other[c]
                if not other:
                    del live[j]
                elif len(other) == 1:
                    singles.append(j)
    if not live:
        return rank
    index = {c: k for k, c in enumerate(where)}
    core = []
    for row in live.values():
        dense = [(0, 0)] * len(index)
        for c, v in row.items():
            dense[index[c]] = v
        core.append(dense)
    return rank + _rank_pairs(core)
