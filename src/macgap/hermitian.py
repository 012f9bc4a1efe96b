"""Hermitian signatures, point classification, and exact orthogonality
certificates for polynomial maps between projectivized Hermitian spaces.

Orthogonality (every orthogonal pair of points maps to an orthogonal pair)
is certified algebraically: with conjugate variables w~ treated as fresh
indeterminates, the target pairing P(z, w~) must be divisible by the source
pairing Q(z, w~).  One exact division of P by Q decides divisibility and
yields the quotient, which is checked by multiplying it back; refuted maps
come with an exact witness pair.  The division and the check run on packed
monomial keys (`gaussint.Packing`), one int per term.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import itemgetter

from .binom_core import comb_upto
from .gap_calc import classify_gap
from .gaussint import Packing, clear, field_bytes, pairing, vanishes_at
from .polyspace import (
    GRat,
    Poly,
    PolyFormatError,
    cleared_parser,
    cleared_span_dim,
    format_poly,
    mono,
    rng_for,
)
from .record import FrozenRecord, Record, SuiteReport


class MapFormatError(ValueError):
    """Malformed map file."""


# Largest monomial space C(n_vars-1+d, d) a map file may declare.  It bounds
# the header-declared space that parsing and the pairing polynomial work in
# (exponent vectors of n_vars entries, P of degree 2d in 2 n_vars
# variables); span ranks only the monomials that occur.
MAX_MAP_MONOMIALS = 100_000
# Largest pairing of `orthogonality_certificate`, in term products: the sum
# of t_j^2 over the non-null components, t_j the term count of component j.
# P has at most that many terms, and the division rescans its remainder at
# every step, so time grows about as the square of the count.  The slowest
# accepted shape found is two components z_0 g, z_1 g over a source with
# two non-null coordinates (Q of two terms), g linear in 86 variables:
# 14 792 products took 1.3 s on packed keys (2 vCPUs, Python 3.11), 84% of
# it in the rescans.
MAX_PAIRING_TERMS = 15_000
# Largest weight of the packed keys of `orthogonality_certificate`, in
# bytes: (term products + r + s) keys, for P and Q, of 2 n_vars fields
# each.  MAX_MAP_MONOMIALS allows 100 000 variables in degree 0 or 1, and
# Q alone then takes r + s keys of 200 KB each: two constant components
# over 20 000 variables, all but one positive (an 80 KB file), took 11.6 s
# and 651 MB unbounded, and are refused in 0.1 s.  The slowest shape above
# weighs 2.54 MB (14 794 keys of 172 bytes); spread over 101 variables
# (202-byte keys, 2.99 MB, the widest accepted) it took 1.5-1.8 s against
# 1.3 s (2 vCPUs, Python 3.11).
MAX_PAIRING_KEY_BYTES = 3_000_000


class Signature(FrozenRecord):
    """Counts (r, s, t) of +1, -1, 0 weights of the diagonal Hermitian form."""

    __slots__ = ("r", "s", "t")

    def __init__(self, r: int, s: int, t: int = 0):
        if r < 0 or s < 0 or t < 0 or r + s + t == 0:
            raise ValueError(f"bad signature {(r, s, t)}")
        self._freeze(r, s, t)

    @property
    def n_vars(self) -> int:
        return self.r + self.s + self.t

    def eps(self, i: int) -> int:
        if i < self.r:
            return 1
        if i < self.r + self.s:
            return -1
        return 0


class SignedMap(Record):
    """Polynomial map with components in target-block order: r' positive,
    s' negative, t' null-weight.

    A map holds its components only as `cleared`: Gaussian-integer
    polynomials (L, {exps: (re, im)}) (`gaussint.clear`).  The span,
    obstruction and certificate kernels read only these; `components`
    builds the `Poly`s from them on each call.  Equal maps have equal
    fields: the cleared form is canonical, L is least.
    """

    __slots__ = ("source", "target", "degree", "cleared")

    def __init__(self, source: Signature, target: Signature, degree: int,
                 components: list[Poly]):
        self.source, self.target, self.degree = source, target, degree
        self._check_count(len(components))
        for p in components:
            if p.n_vars != self.source.n_vars:
                raise ValueError("component variable count does not match source")
            if p.degree != self.degree:
                raise ValueError("component degree mismatch")
        self.cleared = [clear(p.coeffs) for p in components]

    @classmethod
    def from_cleared(cls, source: Signature, target: Signature, degree: int,
                     cleared: list[tuple[int, dict]]) -> "SignedMap":
        """The map with cleared components `cleared`, each (L, pairs) as a
        `cleared_parser` parser returns it for `source.n_vars` variables
        and degree `degree`; they are not checked again."""
        f = cls.__new__(cls)
        f.source, f.target, f.degree = source, target, degree
        f.cleared = cleared
        f._check_count(len(cleared))
        return f

    def _check_count(self, count: int) -> None:
        want = self.target.n_vars
        if count != want:
            raise ValueError(
                f"{count} components for target signature expecting {want}"
            )

    @property
    def components(self) -> list[Poly]:
        nv = self.source.n_vars
        return [_from_pairs(nv, self.degree, P, L) for L, P in self.cleared]

    def __repr__(self):
        return (
            f"SignedMap(source={self.source!r}, target={self.target!r}, "
            f"degree={self.degree!r}, components={self.components!r})"
        )

    def evaluate(self, z) -> list[GRat]:
        return [p.evaluate(z) for p in self.components]


# ---------------------------------------------------------------------------
# the pairing polynomials

def pairing_poly(f: SignedMap) -> Poly:
    """P(z, w~) = sum eps'_j f_j(z) * conj-coeffs(f_j)(w~), in 2*n_vars
    variables (z block first, w~ block second): the pairing that
    `_pairing_pairs` builds for the certificate, as a `Poly`.  Its GRat
    reference is in tests/reference_table.py."""
    keys = Packing(2 * f.source.n_vars, f.degree)
    L, P = _pairing_pairs(f, keys)
    return _from_pairs(keys.n, 2 * f.degree, {keys.unpack(e): c for e, c in P.items()}, L)


def _pairing_pairs(f: SignedMap, keys: Packing) -> tuple[int, dict]:
    """(L, L * P) for the pairing polynomial P of f, built on
    Gaussian-integer pairs from the cleared components and keyed by
    `keys`, and L is the lcm of the squares of their denominators."""
    pack = keys.pack
    return pairing([
        (f.target.eps(j), L, {pack(e): c for e, c in P.items()})
        for j, (L, P) in enumerate(f.cleared)
        if f.target.eps(j)
    ], keys)


def _source_form_pairs(sig: Signature, keys: Packing) -> dict:
    """Q = sum over non-null i of eps_i z_i w~_i as packed key (`keys`) ->
    Gaussian-integer pair (its reference, `source_form_poly`, is in
    tests/reference_table.py): eps_i at z_i w~_i for each non-null i.  Its coefficients are +-1,
    so this is Q cleared with L = 1."""
    nv = sig.n_vars
    pairs = {}
    for i in range(sig.r + sig.s):
        e = [0] * (2 * nv)
        e[i] = e[nv + i] = 1
        pairs[keys.pack(e)] = (sig.eps(i), 0)
    return pairs


def _from_pairs(n_vars: int, degree: int, pairs: dict, L: int) -> Poly:
    """The Poly pairs / L; inverse of `clear`."""
    return Poly.unchecked(n_vars, degree, {
        e: GRat(Fraction(a, L), Fraction(b, L)) for e, (a, b) in pairs.items()
    })


def _divide_exact(P: dict, Q: dict, keys: Packing) -> dict:
    """Quotient P/Q on packed key (`keys`) -> Gaussian-integer pair dicts,
    for Q whose lexicographically leading coefficient is +-1, so the
    quotient is integral.  lt(Q) divides lt(R) iff lt(R) - lt(Q) has no
    guard bit set.  Raises ArithmeticError if Q does not divide P."""
    lt_q = max(Q)
    u, ui = Q[lt_q]
    if ui or u not in (1, -1):
        raise ValueError("leading coefficient of the divisor is not +-1")
    guard = keys.guard
    tail = [(e, a, b) for e, (a, b) in Q.items() if e != lt_q]
    rem = dict(P)
    quo = {}
    while rem:
        lt_r = max(rem)
        diff = lt_r - lt_q
        if diff & guard:
            raise ArithmeticError("leading term not divisible")
        ra, rb = rem.pop(lt_r)
        ta, tb = quo[diff] = (ra * u, rb * u)
        for e, qa, qb in tail:
            key = diff + e
            xa, xb = rem.get(key, (0, 0))
            xa -= ta * qa - tb * qb
            xb -= ta * qb + tb * qa
            if xa or xb:
                rem[key] = (xa, xb)
            else:
                rem.pop(key, None)
    return quo


def _grat_text(a: int, b: int, D: int) -> str:
    """`format_grat` of the Gaussian rational (a + b i) / D, D > 0."""
    g = math.gcd(a, D)
    out = f"{a // g}/{D // g}"
    if b:
        g = math.gcd(b, D)
        out += f",{b // g}/{D // g}"
    return out


class OrthCertificate(Record):
    """A verdict, with the quotient P/Q of a map that preserves
    orthogonality or a witness pair (z, w) for one that does not.

    The witness is kept as `witness_pairs` = (z, W, D) on integers: z and
    W lists of Gaussian-integer pairs and D > 0, with w = conj(W) / D.
    `witness` gives (z, w) as tuples of `GRat`s, and `witness_text` their
    `format_grat` text, read off the integers."""

    __slots__ = ("verdict", "quotient", "witness_pairs")

    def __init__(self, verdict: bool, quotient: Poly | None = None,
                 witness_pairs: tuple | None = None):
        self.verdict, self.quotient, self.witness_pairs = verdict, quotient, witness_pairs

    @property
    def witness(self) -> tuple | None:
        if self.witness_pairs is None:
            return None
        z, W, D = self.witness_pairs
        return (tuple(GRat(a, b) for a, b in z),
                tuple(GRat(Fraction(a, D), Fraction(-b, D)) for a, b in W))

    def witness_text(self) -> tuple[str, str]:
        """The coordinates of z and of w, each joined by spaces."""
        z, W, D = self.witness_pairs
        return (" ".join(_grat_text(a, b, 1) for a, b in z),
                " ".join(_grat_text(a, -b, D) for a, b in W))


def _check_quotient(P: dict, Q: dict, quo: dict, keys: Packing) -> None:
    """Raise RuntimeError unless every key of quo is a monomial of `keys`
    (no guard bit set) and quo * Q == P, on packed key -> Gaussian-integer
    pair dicts; the product is expanded term by term, apart from the
    division that found quo."""
    prod: dict[int, tuple[int, int]] = {}
    for e, (a, b) in quo.items():
        for eq, (qa, qb) in Q.items():
            key = e + eq
            xa, xb = prod.get(key, (0, 0))
            prod[key] = (xa + a * qa - b * qb, xb + a * qb + b * qa)
    if (any(e & keys.guard for e in quo)
            or {e: c for e, c in prod.items() if c != (0, 0)} != P):
        raise RuntimeError("certificate quotient times Q is not the pairing polynomial")


def orthogonality_certificate(f: SignedMap, pivot: int = 0) -> OrthCertificate:
    """Decide whether f preserves orthogonality of point pairs.

    The verdict is the exact divisibility Q | P, settled by dividing P by Q.
    Q = sum eps_i z_i w~_i has leading coefficient +-1, so the division leaves
    remainder zero exactly when Q divides P, and `_divide_exact` stops at the
    first leading term that the leading term of Q does not divide.  P is
    built, and the division runs, on Gaussian-integer pairs after clearing
    denominators, each term keyed by its packed exponent vector; keys are
    unpacked only for the quotient and for the witness search.  A true
    verdict carries the exact quotient, checked by
    multiplying it back by Q (a mismatch raises RuntimeError); a false
    verdict carries a witness pair of orthogonal points whose images pair to
    a nonzero value, sampled in the chart z_pivot != 0.  A map whose pairing
    needs more than MAX_PAIRING_TERMS term products, or more than
    MAX_PAIRING_KEY_BYTES bytes of packed keys, raises ValueError before
    anything is packed.
    """
    sig = f.source
    if sig.r + sig.s < 2:
        raise ValueError("need at least two non-null source coordinates")
    if not 0 <= pivot < sig.r + sig.s:
        raise ValueError("pivot must index a non-null coordinate")
    products = sum(len(P) ** 2 for j, (_, P) in enumerate(f.cleared) if f.target.eps(j))
    if products > MAX_PAIRING_TERMS:
        raise ValueError(
            f"pairing polynomial needs {products} term products, above the "
            f"limit of {MAX_PAIRING_TERMS}"
        )
    weight = (products + sig.r + sig.s) * 2 * sig.n_vars * field_bytes(f.degree)
    if weight > MAX_PAIRING_KEY_BYTES:
        raise ValueError(
            f"pairing polynomial needs {weight} bytes of packed keys, above "
            f"the limit of {MAX_PAIRING_KEY_BYTES}"
        )
    # P has bidegree (d, d), so no exponent of P, Q or the quotient
    # exceeds the map degree d
    keys = Packing(2 * sig.n_vars, f.degree)
    # one positive integer L clears P, and Q | L * P iff Q | P
    L, P = _pairing_pairs(f, keys)
    Q = _source_form_pairs(sig, keys)
    try:
        quo = _divide_exact(P, Q, keys)
    except ArithmeticError:
        P = {keys.unpack(e): c for e, c in P.items()}
        return OrthCertificate(False, witness_pairs=_witness_search(f, P, pivot))
    _check_quotient(P, Q, quo, keys)
    if not f.degree:
        return OrthCertificate(True)  # P = 0: no quotient of degree -2
    quo = {keys.unpack(e): c for e, c in quo.items()}
    return OrthCertificate(
        True, quotient=_from_pairs(2 * sig.n_vars, 2 * f.degree - 2, quo, L)
    )


def _witness_search(f: SignedMap, P: dict, pivot: int):
    """Point pair (z, w) with <z,w> = 0 and <f(z),f(w)> != 0, found by
    sampling the solution chart z_pivot != 0; P is the cleared pairing
    polynomial on pairs, keyed by exponent tuples.  Returns (z, W, D) on
    integers, with w = conj(W) / D, as `OrthCertificate.witness_pairs`.

    Each candidate draws z and w~ as Gaussian-integer pairs (`_rand_pairs`),
    with the rng calls of `_witness_search_ref`, its GRat reference in
    tests/reference_table.py, in the same order.  The chart
    solves w~_pivot = -eps_p acc / z_p with acc = sum over the other
    non-null i of eps_i z_i w~_i; scaled by |z_p|^2, all of w~ stays
    integral and w~_pivot = -eps_p acc conj(z_p).  P has bidegree (d, d),
    so P(z, |z_p|^2 w~) = |z_p|^(2d) P(z, w~), and the zero test is exact on
    the integer point, which the search returns with D = |z_p|^2."""
    sig = f.source
    nv = sig.n_vars
    signs = [(i, sig.eps(i)) for i in range(sig.r + sig.s) if i != pivot]
    ep = sig.eps(pivot)
    rng = rng_for(0, "witness")
    for _ in range(500):
        z = _rand_pairs(rng, nv)
        if z[pivot] == (0, 0):
            z[pivot] = (1, 0)
        wt = _rand_pairs(rng, nv)
        acc_a = acc_b = 0
        for i, e in signs:
            (a, b), (c, d) = z[i], wt[i]
            acc_a += e * (a * c - b * d)
            acc_b += e * (a * d + b * c)
        pa, pb = z[pivot]
        norm = pa * pa + pb * pb
        point = z + [(norm * c, norm * d) for c, d in wt]
        sa = -ep * (acc_a * pa + acc_b * pb)
        sb = -ep * (acc_b * pa - acc_a * pb)
        point[nv + pivot] = (sa, sb)
        if not vanishes_at(P, point):
            return z, point[nv:], norm
    raise RuntimeError("no witness found in 500 samples")  # pragma: no cover


def _rand_pairs(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """`count` Gaussian integers as pairs: the values of as many
    `_rand_grat`s of tests/reference_table.py, and the same rng state
    after.  As in
    `polyspace._small_ints`, randint(-3, 3) is -3 plus getrandbits(3),
    drawn again while it is 7 or more, and randint(-5, 5) is -5 plus
    getrandbits(4), drawn again while it is 11 or more."""
    uniform, getrandbits = rng.random, rng.getrandbits
    out = []
    for _ in range(count):
        im = 0
        if uniform() < 0.4:
            im = getrandbits(3)
            while im >= 7:
                im = getrandbits(3)
            im -= 3
        re = getrandbits(4)
        while re >= 11:
            re = getrandbits(4)
        out.append((re - 5, im))
    return out


# ---------------------------------------------------------------------------
# the cubic family saturating the lower gap endpoint

def sharpness_map(k: int, n: int) -> SignedMap:
    """Degree-3 map from signature (k, n+1-k) whose kn+k components are the
    distinct monomials z_i^2 z_j, positively weighted for j < k and
    negatively for j >= k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    _check_map_space(n + 1, 3)
    nv = n + 1
    pos, neg = [], []
    for i in range(k):
        for j in range(nv):
            e = [0] * nv
            e[i] += 2
            e[j] += 1
            (pos if j < k else neg).append(mono(nv, tuple(e)))
    return SignedMap(
        source=Signature(k, nv - k),
        target=Signature(k * k, k * (nv - k)),
        degree=3,
        components=pos + neg,
    )


def _check_map_space(n_vars: int, degree: int, error=ValueError) -> None:
    """Raise `error` if n_vars variables in `degree` span more than
    MAX_MAP_MONOMIALS monomials C(n_vars-1+degree, degree), the space that
    `parse_map` accepts, so every map written can be read back.  The count
    stops once past the limit (`comb_upto`), so refusing is quick at any
    degree."""
    if comb_upto(n_vars - 1 + degree, degree, MAX_MAP_MONOMIALS) is None:
        raise error(
            f"{n_vars} variables in degree {degree} span more than the limit "
            f"of {MAX_MAP_MONOMIALS} monomials"
        )


def sharpness_quotient(k: int, n: int) -> Poly:
    """The certified quotient of sharpness_map(k, n): sum z_j^2 w~_j^2."""
    nv = n + 1
    coeffs = {}
    for j in range(k):
        e = [0] * (2 * nv)
        e[j] = 2
        e[nv + j] = 2
        coeffs[tuple(e)] = GRat(1)
    return Poly(2 * nv, 4, coeffs)


def null_prolongation(f: SignedMap, psi: Poly, phi: Poly) -> SignedMap:
    """Extend f by one positive and one negative copy of phi, scaling the
    old components by psi; requires deg(phi) = deg(psi) + deg(f) so the
    result is homogeneous, and the two phi slots cancel in the pairing.  A
    result degree whose monomial space `parse_map` would refuse raises
    ValueError before anything is multiplied."""
    if f.target.t != 0:
        raise ValueError("prolongation needs a target without null weights")
    nv = f.source.n_vars
    if psi.n_vars != nv or phi.n_vars != nv:
        raise ValueError("psi/phi variable count does not match the source")
    if phi.degree != psi.degree + f.degree:
        raise ValueError(
            f"degree mismatch: deg(phi)={phi.degree}, "
            f"need deg(psi)+deg(f)={psi.degree + f.degree}"
        )
    _check_map_space(nv, phi.degree)
    rp, sp = f.target.r, f.target.s
    scaled = [psi * p for p in f.components]
    comps = scaled[:rp] + [phi] + scaled[rp:rp + sp] + [phi]
    return SignedMap(
        source=f.source,
        target=Signature(rp + 1, sp + 1),
        degree=phi.degree,
        components=comps,
    )


# ---------------------------------------------------------------------------
# span obstruction for orthogonal maps

class ObstructionRecord(FrozenRecord):
    __slots__ = ("dim_e_span", "dim_eperp_span", "bound", "degenerate", "holds")

    def __init__(self, dim_e_span: int, dim_eperp_span: int, bound: int,
                 degenerate: str | None, holds: bool):
        self._freeze(dim_e_span, dim_eperp_span, bound, degenerate, holds)


def _getter(indices: list[int]):
    """operator.itemgetter of `indices` that gives a tuple at every length
    (an itemgetter of one index gives the entry itself)."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else lambda exps: ()


def span_obstruction_check(f: SignedMap, e_indices) -> ObstructionRecord:
    """Span dimensions of the images of a coordinate subspace E and of its
    orthogonal complement; for an orthogonality-preserving map their sum
    stays below the target's projective dimension.

    A side restricts each cleared component to the terms without a dropped
    variable and ranks them under their own exponent keys, since a rank
    does not depend on column labels.  A side on which every component
    vanishes is degenerate, reads -1 and demonstrates nothing."""
    if f.target.t != 0:
        raise ValueError("obstruction check needs a nondegenerate target form")
    nv = f.source.n_vars
    e_set = set(e_indices)
    if not e_set or any(not 0 <= i < nv for i in e_set):
        raise ValueError("E must be a nonempty set of coordinate indices")
    # under the diagonal form the complement of a coordinate set is the
    # complementary coordinates, plus all null coordinates
    perp = set(range(nv)) - e_set | set(range(f.source.r + f.source.s, nv))
    if not perp:
        raise ValueError("orthogonal complement has no coordinates")
    dims = []
    for keep in (e_set, perp):
        drop = _getter(sorted(set(range(nv)) - keep))
        rows = [{e: c for e, c in P.items() if not any(drop(e))} for _, P in f.cleared]
        dims.append(cleared_span_dim(rows) if any(rows) else -1)
    dim_e, dim_perp = dims
    bound = f.target.r + f.target.s - 2
    degenerate = {(True, True): "both", (True, False): "E",
                  (False, True): "E_perp"}.get((dim_e < 0, dim_perp < 0))
    return ObstructionRecord(dim_e, dim_perp, bound, degenerate,
                             degenerate is not None or dim_e + dim_perp <= bound)


# ---------------------------------------------------------------------------
# batch suite

class SharpnessSuiteReport(SuiteReport):
    """A `SuiteReport` whose violations are (k, n, check label) triples,
    with the maps built counted."""

    __slots__ = ("maps",)

    def __init__(self, checks: int = 0, violations: list | None = None, maps: int = 0):
        super().__init__(checks, violations)
        self.maps = maps


def sharpness_suite(max_k: int, max_n: int) -> SharpnessSuiteReport:
    """For each (k, n) with k(k+1) < n <= max_n: component count, exact
    linear independence, certified orthogonality with the expected quotient,
    full span, and the two endpoint classifications.  A max_n whose maps
    `parse_map` would refuse raises ValueError before any map is built."""
    _check_map_space(max_n + 1, 3)
    report = SharpnessSuiteReport()

    def check(k, n, label, ok):
        report.checks += 1
        if not ok:
            report.violations.append((k, n, label))

    for k in range(1, max_k + 1):
        if k * (k + 1) >= max_n:
            break  # no n <= max_n for this k or any larger one
        for n in range(k * (k + 1) + 1, max_n + 1):
            f = sharpness_map(k, n)
            report.maps += 1
            count = k * n + k
            check(k, n, "component count", len(f.cleared) == count)
            span = cleared_span_dim([P for _, P in f.cleared])
            check(k, n, "linear independence", span + 1 == count)
            cert = orthogonality_certificate(f)
            check(k, n, "certificate verdict", cert.verdict)
            check(
                k, n, "certificate quotient",
                cert.quotient == sharpness_quotient(k, n),
            )
            check(k, n, "span", span == count - 1)
            at = classify_gap(n, count)
            below = classify_gap(n, count - 1)
            check(k, n, "endpoint in gap", at.in_gap and at.k == k)
            check(k, n, "below endpoint not in gap", not below.in_gap)
    return report


# ---------------------------------------------------------------------------
# map file format

def format_map(f: SignedMap) -> str:
    lines = [
        f"source {f.source.r} {f.source.s} {f.source.t}",
        f"target {f.target.r} {f.target.s} {f.target.t}",
        f"degree {f.degree}",
    ]
    comps = f.components
    blocks = (
        ("%pos", comps[:f.target.r]),
        ("%neg", comps[f.target.r:f.target.r + f.target.s]),
        ("%null", comps[f.target.r + f.target.s:]),
    )
    for sep, block in blocks:
        lines.append(sep)
        lines.extend(format_poly(p) for p in block)
    return "\n".join(lines) + "\n"


def _parse_header(lines, key):
    """The integers of the next nonblank line of `lines`, an iterator of
    (line number, text) pairs, which must be the header `key`."""
    for line_no, text in lines:
        tokens = text.split()
        if tokens:
            break
    else:
        raise MapFormatError(f"missing '{key}' header line")
    if tokens[0] != key:
        raise MapFormatError(f"line {line_no}: expected '{key} ...', got {text!r}")
    want = 3 if key in ("source", "target") else 1
    if len(tokens) != want + 1:
        raise MapFormatError(f"line {line_no}: '{key}' takes {want} integers")
    try:
        return [int(t) for t in tokens[1:]]
    except ValueError:
        raise MapFormatError(f"line {line_no}: non-integer in '{key}'") from None


def parse_map(text: str) -> SignedMap:
    """Inverse of format_map; diagnostics carry 1-based line numbers."""
    lines = enumerate(text.splitlines(), 1)
    src = _parse_header(lines, "source")
    tgt = _parse_header(lines, "target")
    (degree,) = _parse_header(lines, "degree")
    try:
        source = Signature(*src)
        target = Signature(*tgt)
    except ValueError as exc:
        raise MapFormatError(str(exc)) from None
    if degree < 0:
        raise MapFormatError("degree must be nonnegative")
    _check_map_space(source.n_vars, degree, MapFormatError)

    expected = [("%pos", target.r), ("%neg", target.s), ("%null", target.t)]
    components: list[tuple[int, dict]] = []
    parse_cleared = cleared_parser()
    block = None
    taken = 0
    block_iter = iter(expected)
    for line_no, raw in lines:
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            if block is not None and taken != block[1]:
                raise MapFormatError(
                    f"line {line_no}: block {block[0]} has {taken} components, "
                    f"expected {block[1]}"
                )
            block = next(block_iter, None)
            if block is None or stripped != block[0]:
                raise MapFormatError(
                    f"line {line_no}: unexpected separator {stripped!r}"
                )
            taken = 0
            continue
        if block is None:
            raise MapFormatError(f"line {line_no}: component before %pos")
        try:
            p = parse_cleared(stripped, n_vars=source.n_vars, degree=degree)
        except PolyFormatError as exc:
            raise MapFormatError(f"line {line_no}: {exc}") from None
        components.append(p)
        taken += 1
        if taken > block[1]:
            raise MapFormatError(
                f"line {line_no}: too many components in block {block[0]}"
            )
    if block is None:
        raise MapFormatError("missing %pos separator")
    if taken != block[1]:
        raise MapFormatError(
            f"block {block[0]} has {taken} components, expected {block[1]}"
        )
    leftover = next(block_iter, None)
    if leftover is not None:
        raise MapFormatError(f"missing separator {leftover[0]}")
    return SignedMap.from_cleared(source, target, degree, components)
