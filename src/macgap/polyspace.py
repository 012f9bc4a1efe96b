"""Sparse homogeneous polynomials over exact Gaussian rationals, subspace
rank via fraction-free elimination, hyperplane restriction, and the seeded
harnesses for the two restriction bounds.

Coefficients are pairs of ``fractions.Fraction`` (real and imaginary part),
so every rank and every span dimension computed here is an exact integer.
Hyperplane genericity is handled by sampling: codimension claims take the
best (minimum) value over sampled hyperplanes, span claims take the maximum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .binom_core import op_lower, op_minus


class PolyFormatError(ValueError):
    """Malformed polynomial text."""


# ---------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class GRat:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GRat") -> "GRat":
        return GRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GRat") -> "GRat":
        return GRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GRat":
        return GRat(-self.re, -self.im)

    def __mul__(self, other: "GRat") -> "GRat":
        return GRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GRat") -> "GRat":
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GRat":
        return GRat(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im


def parse_grat(token: str) -> GRat:
    parts = token.split(",")
    if len(parts) > 2 or not parts[0]:
        raise PolyFormatError(f"bad coefficient {token!r}")
    try:
        re = Fraction(parts[0])
        im = Fraction(parts[1]) if len(parts) == 2 else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyFormatError(f"bad coefficient {token!r}: {exc}") from None
    return GRat(re, im)


def format_grat(c: GRat) -> str:
    out = f"{c.re.numerator}/{c.re.denominator}"
    if c.im:
        out += f",{c.im.numerator}/{c.im.denominator}"
    return out


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Homogeneous polynomial: exponent tuple -> nonzero GRat.

    The degree is stored explicitly so the zero polynomial of each degree
    is representable.  Instances are treated as immutable values.
    """

    __slots__ = ("n_vars", "degree", "coeffs")

    def __init__(self, n_vars: int, degree: int, coeffs: dict | None = None):
        if n_vars < 1 or degree < 0:
            raise ValueError("need n_vars >= 1 and degree >= 0")
        clean: dict[tuple[int, ...], GRat] = {}
        for exps, c in (coeffs or {}).items():
            if len(exps) != n_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {n_vars} variables")
            if sum(exps) != degree:
                raise ValueError(f"monomial {exps} is not of degree {degree}")
            if not isinstance(c, GRat):
                c = GRat(c)
            if c:
                clean[tuple(exps)] = c
        self.n_vars = n_vars
        self.degree = degree
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.n_vars == other.n_vars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return f"Poly({self.n_vars}, {self.degree}, {format_poly(self)!r})"

    def _like(self, other: "Poly"):
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._like(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            s = out.get(exps, GRat()) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        p = Poly.__new__(Poly)
        p.n_vars, p.degree, p.coeffs = self.n_vars, self.degree, out
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return self.scale(GRat(-1))

    def __mul__(self, other):
        if isinstance(other, (GRat, int, Fraction)):
            return self.scale(other if isinstance(other, GRat) else GRat(other))
        self._like(other)
        out: dict[tuple[int, ...], GRat] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, GRat()) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = Poly.__new__(Poly)
        p.n_vars, p.degree, p.coeffs = self.n_vars, self.degree + other.degree, out
        return p

    __rmul__ = __mul__

    def scale(self, c: GRat) -> "Poly":
        out = {}
        if c:
            out = {e: v * c for e, v in self.coeffs.items()}
        p = Poly.__new__(Poly)
        p.n_vars, p.degree, p.coeffs = self.n_vars, self.degree, out
        return p

    def conjugate_coeffs(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.n_vars, p.degree = self.n_vars, self.degree
        p.coeffs = {e: c.conjugate() for e, c in self.coeffs.items()}
        return p

    def evaluate(self, point) -> GRat:
        if len(point) != self.n_vars:
            raise ValueError("point length mismatch")
        total = GRat()
        for exps, c in self.coeffs.items():
            term = c
            for z, e in zip(point, exps):
                for _ in range(e):
                    term = term * z
            total = total + term
        return total


def mono(n_vars: int, exps, coeff=1) -> Poly:
    """Single-term polynomial."""
    exps = tuple(exps)
    return Poly(n_vars, sum(exps), {exps: coeff if isinstance(coeff, GRat) else GRat(coeff)})


def monomial_basis(n_vars: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d exponent vectors in n_vars variables, descending
    lexicographic (z0-first); length C(n_vars-1+d, d)."""
    if n_vars < 1 or d < 0:
        raise ValueError("need n_vars >= 1 and d >= 0")
    if n_vars == 1:
        return [(d,)]
    out = []
    for e0 in range(d, -1, -1):
        for rest in monomial_basis(n_vars - 1, d - e0):
            out.append((e0,) + rest)
    return out


def veronese_components(n_vars: int, d: int) -> list[Poly]:
    """The full degree-d monomial map."""
    return [mono(n_vars, e) for e in monomial_basis(n_vars, d)]


# ---------------------------------------------------------------------------
# polynomial text format: terms joined by ";", each "COEFF e0 e1 ... en"

def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exps in sorted(p.coeffs, reverse=True):
        parts.append(format_grat(p.coeffs[exps]) + " " + " ".join(map(str, exps)))
    return "; ".join(parts)


def parse_poly(
    text: str, n_vars: int | None = None, degree: int | None = None
) -> Poly:
    """Inverse of format_poly.  n_vars/degree are required to disambiguate
    the zero polynomial and otherwise act as validation."""
    stripped = text.strip()
    if not stripped:
        raise PolyFormatError("empty polynomial text")
    if stripped == "0":
        if n_vars is None or degree is None:
            raise PolyFormatError(
                "zero polynomial needs explicit n_vars and degree context"
            )
        return Poly(n_vars, degree, {})
    coeffs: dict[tuple[int, ...], GRat] = {}
    for raw in stripped.split(";"):
        tokens = raw.split()
        if len(tokens) < 2:
            raise PolyFormatError(f"term {raw.strip()!r} has no exponents")
        c = parse_grat(tokens[0])
        try:
            exps = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise PolyFormatError(f"bad exponent in term {raw.strip()!r}") from None
        if any(e < 0 for e in exps):
            raise PolyFormatError(f"negative exponent in term {raw.strip()!r}")
        if n_vars is not None and len(exps) != n_vars:
            raise PolyFormatError(
                f"term {raw.strip()!r} has {len(exps)} exponents, expected {n_vars}"
            )
        if degree is not None and sum(exps) != degree:
            raise PolyFormatError(
                f"term {raw.strip()!r} has degree {sum(exps)}, expected {degree}"
            )
        prev = coeffs.get(exps)
        coeffs[exps] = c if prev is None else prev + c
    lens = {len(e) for e in coeffs}
    degs = {sum(e) for e in coeffs}
    if len(lens) > 1 or len(degs) > 1:
        raise PolyFormatError("mixed variable counts or degrees in one polynomial")
    return Poly(lens.pop(), degs.pop(), coeffs)


# ---------------------------------------------------------------------------
# hyperplanes and restriction

@dataclass(frozen=True)
class Hyperplane:
    """Linear form sum c_j z_j = 0 with a designated pivot variable to
    eliminate."""

    coeffs: tuple[GRat, ...]
    pivot: int

    def __post_init__(self):
        if not 0 <= self.pivot < len(self.coeffs):
            raise ValueError("pivot index out of range")
        if not self.coeffs[self.pivot]:
            raise ValueError("zero pivot coefficient")


def restrict(p: Poly, H: Hyperplane) -> Poly:
    """Substitute z_pivot = -(1/c_pivot) * sum of the other terms; exact,
    homogeneous of the same degree in n_vars-1 variables."""
    if p.n_vars != len(H.coeffs):
        raise ValueError("hyperplane lives in a different variable count")
    if p.n_vars < 2:
        raise ValueError("restriction needs at least two variables")
    piv = H.pivot
    cp = H.coeffs[piv]
    m = p.n_vars - 1
    # denominators are cleared up front so the expansion below runs on
    # Gaussian-integer pairs; rationals reappear only in the output
    ratios = {}
    k = 0
    for j, c in enumerate(H.coeffs):
        if j != piv:
            if c:
                ratios[k] = -c / cp
            k += 1
    t = 1
    for r in ratios.values():
        t = math.lcm(t, r.re.denominator, r.im.denominator)
    lin = {}
    for k, r in ratios.items():
        e = [0] * m
        e[k] = 1
        lin[tuple(e)] = (int(r.re * t), int(r.im * t))
    dp = 1
    for c in p.coeffs.values():
        dp = math.lcm(dp, c.re.denominator, c.im.denominator)
    max_e = max((e[piv] for e in p.coeffs), default=0)
    powers = [{(0,) * m: (1, 0)}]
    for _ in range(max_e):
        nxt: dict[tuple[int, ...], tuple[int, int]] = {}
        for e1, (a1, b1) in powers[-1].items():
            for e2, (a2, b2) in lin.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                a, b = nxt.get(e, (0, 0))
                nxt[e] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
        powers.append(nxt)
    den = dp * t**max_e
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    for exps, c in p.coeffs.items():
        rest = exps[:piv] + exps[piv + 1:]
        ep = exps[piv]
        lift = t ** (max_e - ep)
        ca = int(c.re * dp) * lift
        cb = int(c.im * dp) * lift
        for le, (a, b) in powers[ep].items():
            e = tuple(x + y for x, y in zip(le, rest))
            xa, xb = acc.get(e, (0, 0))
            acc[e] = (xa + a * ca - b * cb, xb + a * cb + b * ca)
    out: dict[tuple[int, ...], GRat] = {}
    for e, (a, b) in acc.items():
        if a or b:
            out[e] = GRat(Fraction(a, den), Fraction(b, den))
    q = Poly.__new__(Poly)
    q.n_vars, q.degree, q.coeffs = m, p.degree, out
    return q


def random_hyperplane(rng: random.Random, n_vars: int) -> Hyperplane:
    """Small-integer coefficients in [-9, 9], resampled while identically
    zero; pivot = first nonzero coefficient."""
    while True:
        ints = [rng.randint(-9, 9) for _ in range(n_vars)]
        if any(ints):
            break
    pivot = next(i for i, v in enumerate(ints) if v)
    return Hyperplane(tuple(GRat(v) for v in ints), pivot)


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic substream: independent of call order across labels."""
    return random.Random(f"{seed}|{label}")


# ---------------------------------------------------------------------------
# exact rank

def _clear_row(row: list[GRat]) -> list[tuple[int, int]]:
    """Scale a row of Gaussian rationals to Gaussian integer pairs; row
    scaling by a positive integer leaves the rank unchanged."""
    lcm = 1
    for c in row:
        lcm = lcm * c.re.denominator // math.gcd(lcm, c.re.denominator)
        lcm = lcm * c.im.denominator // math.gcd(lcm, c.im.denominator)
    return [
        (
            c.re.numerator * (lcm // c.re.denominator),
            c.im.numerator * (lcm // c.im.denominator),
        )
        for c in row
    ]


def _rank_int(rows: list[list[int]]) -> int:
    """Fraction-free elimination over the integers."""
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


def _rank_gauss_int(rows: list[list[tuple[int, int]]]) -> int:
    """Fraction-free elimination over the Gaussian integers (pairs)."""
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


def exact_rank(rows: list[list[GRat]]) -> int:
    """Rank of a matrix of Gaussian rationals, computed without floats."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    cleared = [_clear_row(r) for r in rows]
    if all(b == 0 for row in cleared for _, b in row):
        return _rank_int([[a for a, _ in row] for row in cleared])
    return _rank_gauss_int(cleared)


# ---------------------------------------------------------------------------
# subspaces

@dataclass
class PolySubspace:
    """Span of the given polynomials inside the degree-d homogeneous space."""

    n_vars: int
    degree: int
    basis: list[Poly]


def coefficient_rows(polys, n_vars: int, degree: int) -> list[list[GRat]]:
    cols = monomial_basis(n_vars, degree)
    zero = GRat()
    rows = []
    for p in polys:
        if p.n_vars != n_vars or p.degree != degree:
            raise ValueError(
                f"member has (n_vars, degree) = ({p.n_vars}, {p.degree}), "
                f"expected ({n_vars}, {degree})"
            )
        rows.append([p.coeffs.get(e, zero) for e in cols])
    return rows


def subspace_rank(W: PolySubspace) -> int:
    return exact_rank(coefficient_rows(W.basis, W.n_vars, W.degree))


def image_span_dim(components: list[Poly]) -> int:
    """Projective dimension of the linear span of the component list."""
    if not components:
        raise ValueError("no components")
    if all(p.is_zero for p in components):
        raise ValueError("all components are zero")
    n_vars, degree = components[0].n_vars, components[0].degree
    return exact_rank(coefficient_rows(components, n_vars, degree)) - 1


# ---------------------------------------------------------------------------
# the two bound harnesses

@dataclass(frozen=True)
class GreenRecord:
    n: int
    d: int
    c: int
    c_h: int
    bound: int
    holds: bool


def verify_green(
    W: PolySubspace,
    H: Hyperplane,
    codim: int | None = None,
) -> GreenRecord:
    """Codimension of one restriction against the shifted codimension bound.

    The bound only applies to a general hyperplane; callers sampling several
    hyperplanes should compare the minimum c_h against it.  `codim` lets a
    caller checking many hyperplanes against one W skip recomputing its rank.
    """
    n = W.n_vars - 1
    d = W.degree
    if codim is None:
        rows = coefficient_rows(W.basis, W.n_vars, W.degree)
        c = len(monomial_basis(W.n_vars, d)) - exact_rank(rows)
    else:
        c = codim
    restricted = [restrict(p, H) for p in W.basis]
    r_rank = exact_rank(coefficient_rows(restricted, W.n_vars - 1, d))
    c_h = len(monomial_basis(W.n_vars - 1, d)) - r_rank
    bound = op_lower(c, d)
    return GreenRecord(n=n, d=d, c=c, c_h=c_h, bound=bound, holds=c_h <= bound)


@dataclass
class GreenSuiteReport:
    trials: int
    seed: int
    subspace_count: int = 0
    checks: int = 0
    violations: list = field(default_factory=list)
    records: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def random_subspace(rng: random.Random, n_vars: int, degree: int) -> PolySubspace:
    dim = len(monomial_basis(n_vars, degree))
    count = rng.randint(1, dim + 2)
    cols = monomial_basis(n_vars, degree)
    basis = []
    for _ in range(count):
        coeffs = {}
        for e in cols:
            v = rng.randint(-9, 9)
            if v:
                coeffs[e] = GRat(v)
        basis.append(Poly(n_vars, degree, coeffs))
    return PolySubspace(n_vars, degree, basis)


def green_suite(
    ns=(2, 3),
    ds=(2, 3),
    subspaces: int = 200,
    trials: int = 20,
    seed: int = 0,
    keep_records: bool = False,
) -> GreenSuiteReport:
    """Sampled check of the restriction codimension bound: for each random
    subspace, min over `trials` hyperplanes of c_h must not exceed c_<d>."""
    report = GreenSuiteReport(trials=trials, seed=seed)
    for n in ns:
        for d in ds:
            for i in range(subspaces):
                rng = rng_for(seed, f"green|n{n}|d{d}|s{i}")
                W = random_subspace(rng, n + 1, d)
                codim = len(monomial_basis(n + 1, d)) - subspace_rank(W)
                recs = [
                    verify_green(W, random_hyperplane(rng, n + 1), codim)
                    for _ in range(trials)
                ]
                best = min(recs, key=lambda r: r.c_h)
                report.subspace_count += 1
                report.checks += len(recs)
                holds = best.c_h <= best.bound
                if keep_records:
                    report.records.append(best)
                if not holds:
                    report.violations.append(best)
    return report


@dataclass(frozen=True)
class RestrictionRecord:
    n: int
    N: int
    bound: int
    dims: tuple[int, ...]
    max_dim: int
    holds: bool


def verify_restriction_theorem(
    components: list[Poly],
    trials: int = 20,
    seed: int = 0,
) -> RestrictionRecord:
    """Sampled check that a general hyperplane section of the image still
    spans at least the minus-shift of the full span dimension."""
    if trials < 1:
        raise ValueError("need at least one trial")
    N = image_span_dim(components)
    n_vars = components[0].n_vars
    n = n_vars - 1
    bound = op_minus(N, n)
    rng = rng_for(seed, f"restriction|n{n}|d{components[0].degree}")
    dims = []
    for _ in range(trials):
        H = random_hyperplane(rng, n_vars)
        restricted = [restrict(p, H) for p in components]
        rank = exact_rank(
            coefficient_rows(restricted, n_vars - 1, components[0].degree)
        )
        dims.append(rank - 1)
    best = max(dims)
    return RestrictionRecord(
        n=n, N=N, bound=bound, dims=tuple(dims), max_dim=best, holds=best >= bound
    )


@dataclass
class VeroneseSuiteReport:
    trials: int
    seed: int
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def veronese_suite(
    max_n: int = 4,
    max_degree: int = 4,
    trials: int = 3,
    seed: int = 0,
) -> VeroneseSuiteReport:
    """Equality case of the span bound: for the full monomial map every
    sampled hyperplane section spans exactly the shifted dimension."""
    report = VeroneseSuiteReport(trials=trials, seed=seed)
    for n in range(1, max_n + 1):
        for d in range(1, max_degree + 1):
            comps = veronese_components(n + 1, d)
            N = image_span_dim(comps)
            expected = op_minus(N, n)
            rng = rng_for(seed, f"veronese|n{n}|d{d}")
            for _ in range(trials):
                H = random_hyperplane(rng, n + 1)
                restricted = [restrict(p, H) for p in comps]
                rank = exact_rank(coefficient_rows(restricted, n, d))
                report.checks += 1
                if rank - 1 != expected:
                    report.violations.append((n, d, rank - 1, expected))
    return report
