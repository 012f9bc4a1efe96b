"""Sparse homogeneous polynomials over exact Gaussian rationals, subspace
rank via fraction-free elimination, hyperplane restriction, and the seeded
harnesses for the two restriction bounds.

`Poly` coefficients are `GRat`s, pairs of ``fractions.Fraction`` (real and
imaginary part).  Rank never works on them directly: each row is cleared
to Gaussian-integer pairs first (`gaussint.clear`), so every rank and every
span dimension computed here is an exact integer from integer elimination.
A span is ranked by `gaussint.span_rank` on the sparse cleared members,
which peels singleton columns and rows before eliminating what is left;
its reference, `exact_rank` of the `support_rows`, is in
tests/reference_table.py with the other references.  Hyperplane
genericity is handled by sampling: codimension claims take the best
(minimum) value over sampled hyperplanes, span claims take the maximum.

There are two ways to restrict.  The suites use one integer kernel,
`_int_restricted_rank`: the rank of M_W . R_H, a subspace's integer
coefficient rows times the restriction matrix of an integer hyperplane.
R_H comes from a template cached per (n_vars, degree, pivot), which holds
the multinomial terms of every power of the substituted form, the column
each term lands on and the term of the power below that each extends; a
hyperplane only fills in the products of its own coefficients, one
multiplication per term.  The rows of M_W . R_H are formed one at a time and
eliminated as they come (`gaussint._rank_int_rows`), which stops once the
rank reaches the width.  That one integer kernel also ranks M_W itself, on
its narrower side, and every real matrix that `exact_rank` is given.  The
green suite ranks M_W at most once per subspace, and not at all once a
restriction has full width: c_h = 0 then meets Green's bound whatever c
is.  It stops drawing a subspace's hyperplanes once a restricted rank
reaches len(M_W), which no restriction can exceed, so its `checks` are a
budget of hyperplanes, not a count of those drawn.  The suites draw M_W
and the hyperplanes as plain integers, with the same RNG draws as the
references `random_subspace` and `random_form`
(tests/reference_table.py), taken by `_small_ints` rather than `randint`;
`random_hyperplane` wraps the same integer draws in `GRat`s.
Everything else, Gaussian input and the library verifiers included,
restricts with the plain `GRat` substitution of `restrict` and ranks with
`exact_rank`: the reference that the kernel and its draws must reproduce.

Polynomial text is read by `parse_poly`, and straight to the cleared form
by `cleared_parser`.  Given the variable count and a degree of at most 9,
the latter reads a canonical line (ASCII, terms joined by "; ", single
spaces, one-digit exponents, as `format_poly` writes it) by fixed offsets;
all other text goes through `_parse_terms`, the splitter `parse_poly`
uses, and is read and refused exactly as `parse_poly` reads and refuses it.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction

from .binom_core import comb_upto, op_lower, op_minus
from .gaussint import _rank_int_rows, _rank_pairs, clear, span_rank
from .record import FrozenRecord, Record, SuiteReport


class PolyFormatError(ValueError):
    """Malformed polynomial text."""


# ---------------------------------------------------------------------------
# coefficients

_ZERO = Fraction(0)


class GRat(FrozenRecord):
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

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
    # Fraction would read "1e1000000000" as an integer of 10^9 digits
    if "e" in token or "E" in token:
        raise PolyFormatError(f"bad coefficient {token!r}: exponent notation")
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

class Poly(Record):
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

    @staticmethod
    def unchecked(n_vars: int, degree: int, coeffs: dict) -> "Poly":
        """The Poly of these fields, taken as they are, for a `coeffs` that
        its maker already knows to be nonzero GRats keyed by exponent tuples
        of length n_vars and sum degree, as Poly arithmetic makes them."""
        p = Poly.__new__(Poly)
        p.n_vars, p.degree, p.coeffs = n_vars, degree, coeffs
        return p

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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
        return Poly.unchecked(self.n_vars, self.degree, out)

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
        return Poly.unchecked(self.n_vars, self.degree + other.degree, out)

    __rmul__ = __mul__

    def scale(self, c: GRat) -> "Poly":
        out = {}
        if c:
            out = {e: v * c for e, v in self.coeffs.items()}
        return Poly.unchecked(self.n_vars, self.degree, out)

    def conjugate_coeffs(self) -> "Poly":
        return Poly.unchecked(self.n_vars, self.degree,
                              {e: c.conjugate() for e, c in self.coeffs.items()})

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


# ---------------------------------------------------------------------------
# polynomial text format: terms joined by ";", each "COEFF e0 e1 ... en"

def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exps in sorted(p.coeffs, reverse=True):
        parts.append(format_grat(p.coeffs[exps]) + " " + " ".join(map(str, exps)))
    return "; ".join(parts)


def _parse_terms(text: str, n_vars: int | None, degree: int | None, coefficient):
    """Split polynomial text into terms and check their exponents; the one
    splitter behind `parse_poly`, and behind `cleared_parser` for every
    line that it does not read by fixed offsets.  Returns (n_vars,
    degree, terms) with terms the (exps, coefficient(token)) of every term
    in text order; "0" gives no terms."""
    stripped = text.strip()
    if not stripped:
        raise PolyFormatError("empty polynomial text")
    if stripped == "0":
        if n_vars is None or degree is None:
            raise PolyFormatError(
                "zero polynomial needs explicit n_vars and degree context"
            )
        return n_vars, degree, []
    terms = []
    shapes = set()
    for raw in stripped.split(";"):
        tokens = raw.split()
        if len(tokens) < 2:
            raise PolyFormatError(f"term {raw.strip()!r} has no exponents")
        c = coefficient(tokens[0])
        try:
            exps = tuple(map(int, tokens[1:]))
        except ValueError:
            raise PolyFormatError(f"bad exponent in term {raw.strip()!r}") from None
        if min(exps) < 0:
            raise PolyFormatError(f"negative exponent in term {raw.strip()!r}")
        if n_vars is not None and len(exps) != n_vars:
            raise PolyFormatError(
                f"term {raw.strip()!r} has {len(exps)} exponents, expected {n_vars}"
            )
        total = sum(exps)
        if degree is not None and total != degree:
            raise PolyFormatError(
                f"term {raw.strip()!r} has degree {total}, expected {degree}"
            )
        shapes.add((len(exps), total))
        terms.append((exps, c))
    if len(shapes) > 1:
        raise PolyFormatError("mixed variable counts or degrees in one polynomial")
    n_vars, degree = shapes.pop()
    return n_vars, degree, terms


def parse_poly(
    text: str, n_vars: int | None = None, degree: int | None = None
) -> Poly:
    """Inverse of format_poly.  n_vars/degree are required to disambiguate
    the zero polynomial and otherwise act as validation.  The reference for
    `cleared_parser`."""
    n_vars, degree, terms = _parse_terms(text, n_vars, degree, parse_grat)
    coeffs: dict[tuple[int, ...], GRat] = {}
    for exps, c in terms:
        prev = coeffs.get(exps)
        coeffs[exps] = c if prev is None else prev + c
    return Poly(n_vars, degree, coeffs)


# a coefficient of plain ASCII integers or fractions, "a", "a/b" or either
# of them followed by ",c" or ",c/d"
_PLAIN_COEFF = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?(?:,([-+]?[0-9]+)(?:/([0-9]+))?)?")


def _coefficient_ratios(token: str) -> tuple[int, int, int, int]:
    """The coefficient token as (re_num, re_den, im_num, im_den), the
    fractions not necessarily in lowest terms.  A plain token is read with
    `int` alone; every other one, and a plain one with a zero denominator
    or past the int-to-str digit limit, goes through `parse_grat`, which
    accepts or refuses it with its own message."""
    m = _PLAIN_COEFF.fullmatch(token)
    if m is not None:
        a, b, c, d = m.groups()
        try:
            ratios = (int(a), int(b or 1), int(c or 0), int(d or 1))
        except ValueError:
            ratios = None
        if ratios is not None and ratios[1] and ratios[3]:
            return ratios
    g = parse_grat(token)
    return g.re.numerator, g.re.denominator, g.im.numerator, g.im.denominator


# ASCII byte -> its digit value for "0".."9"; every other byte maps to 255,
# past any exponent sum of degree <= 9
_DIGIT_VALUES = bytes(b - 48 if 48 <= b <= 57 else 255 for b in range(256))


def cleared_parser():
    """A parser parse(text, n_vars, degree), for n_vars >= 1 and degree >=
    0, that gives clear(parse_poly(text, n_vars, degree).coeffs) without a
    Fraction or a GRat for a plain coefficient: (L, {exps: (re, im)}) with
    L the least positive integer that makes every coefficient a Gaussian
    integer, and the terms in the order `parse_poly` keeps them.  Same
    accepted text and same messages as `parse_poly`; text of unknown shape
    is `parse_poly`'s alone.  It reads each distinct coefficient token once
    over all its calls; `parse_map` takes one per map, whose components
    share most of their tokens.  A token that is refused is not kept, so it
    is refused again with the same message.

    A canonical line, as `format_poly` writes it, is read by fixed offsets
    (`canonical_terms`) when the degree is at most 9: ASCII text, terms
    joined by "; ", each a coefficient token and n_vars one-digit
    exponents after single spaces.  Every other text goes
    through `_parse_terms`, and so is read and refused as `parse_poly`
    reads and refuses it."""
    seen: dict[str, tuple[int, int, int, int]] = {}

    def ratios(token: str) -> tuple[int, int, int, int]:
        r = seen.get(token)
        if r is None:
            r = seen[token] = _coefficient_ratios(token)
        return r

    def canonical_terms(text: str, n_vars: int, degree: int):
        """The terms of `_parse_terms` for a canonical line, or None for
        any other text.  Every term's exponents are checked before the
        first coefficient is read, and the coefficients are read in text
        order, each once it is known to be one word, so a refused
        coefficient is the one `_parse_terms` refuses first."""
        if not text.isascii():
            return None
        line = text.encode("ascii")
        width = 2 * n_vars
        spaces = b" " * n_vars
        shaped = []
        for term in line.split(b"; "):
            if len(term) <= width or term[-width::2] != spaces:
                return None
            # a byte other than a digit reads 255, so this sum is the
            # degree only when every slot holds a digit
            exps = tuple(term[1 - width::2].translate(_DIGIT_VALUES))
            if sum(exps) != degree:
                return None
            shaped.append((exps, term[:-width]))
        # a ";" that does not start a "; " separator splits a term for
        # `_parse_terms`, but sits inside one here
        if line.count(b";") != len(shaped) - 1:
            return None
        terms = []
        for exps, token in shaped:
            word = token.decode("ascii")
            r = seen.get(word)
            if r is None:
                # `_parse_terms` reads the first word that str.split gives,
                # which splits at \x1c-\x1f too; every token in `seen` is
                # one whole word
                if word.split() != [word]:
                    return None
                r = ratios(word)
            terms.append((exps, r))
        return terms

    def parse(text: str, n_vars: int, degree: int):
        terms = canonical_terms(text, n_vars, degree) if degree <= 9 else None
        if terms is None:
            _, _, terms = _parse_terms(text, n_vars, degree, ratios)
        acc = dict(terms)
        if len(acc) < len(terms):
            # a repeated monomial: sum its coefficients
            acc = {}
            for exps, (p, q, u, v) in terms:
                if exps in acc:
                    a, b, x, y = acc[exps]
                    p, q, u, v = a * q + p * b, b * q, x * v + u * y, y * v
                acc[exps] = p, q, u, v
        # a/b in lowest terms has denominator b // gcd(a, b), and L is the
        # lcm of those; a zero part has denominator 1, and a zero term is
        # dropped
        L = 1
        for a, b, x, y in acc.values():
            if b != 1:
                L = math.lcm(L, b // math.gcd(a, b))
            if y != 1:
                L = math.lcm(L, y // math.gcd(x, y))
        return L, {e: (a * L // b, x * L // y) for e, (a, b, x, y) in acc.items() if a or x}

    return parse


# ---------------------------------------------------------------------------
# hyperplanes and restriction

class Hyperplane(FrozenRecord):
    """Linear form sum c_j z_j = 0 with a designated pivot variable to
    eliminate."""

    __slots__ = ("coeffs", "pivot")

    def __init__(self, coeffs: tuple[GRat, ...], pivot: int):
        if not 0 <= pivot < len(coeffs):
            raise ValueError("pivot index out of range")
        if not coeffs[pivot]:
            raise ValueError("zero pivot coefficient")
        self._freeze(coeffs, pivot)


def restrict(p: Poly, H: Hyperplane) -> Poly:
    """Substitute z_pivot = sum_{j != pivot} (-c_j/c_pivot) z_j: exact,
    homogeneous of the same degree in n_vars-1 variables.

    Plain `GRat` substitution: the powers of the substituted form are
    `Poly` products.  Every restriction outside the suites goes through
    here; it is also the reference for the suites' integer kernel,
    `_int_restricted_rank`."""
    if p.n_vars != len(H.coeffs):
        raise ValueError("hyperplane lives in a different variable count")
    if p.n_vars < 2:
        raise ValueError("restriction needs at least two variables")
    piv, m = H.pivot, p.n_vars - 1
    others = H.coeffs[:piv] + H.coeffs[piv + 1:]
    form = Poly(m, 1, {e: -c / H.coeffs[piv] for e, c in zip(monomial_basis(m, 1), others)})
    powers = [Poly(m, 0, {(0,) * m: GRat(1)})]
    for _ in range(max((e[piv] for e in p.coeffs), default=0)):
        powers.append(powers[-1] * form)
    acc: dict[tuple[int, ...], GRat] = {}
    zero = GRat()
    for exps, c in p.coeffs.items():
        rest = exps[:piv] + exps[piv + 1:]
        for le, v in powers[exps[piv]].coeffs.items():
            e = tuple(x + y for x, y in zip(le, rest))
            acc[e] = acc.get(e, zero) + c * v
    return Poly(m, p.degree, acc)


# Shapes whose restriction template stays cached; a sweep uses a handful.
TEMPLATE_CACHE = 32


@functools.lru_cache(maxsize=TEMPLATE_CACHE)
def _restriction_template(n_vars: int, degree: int, pivot: int):
    """The restriction matrix R_H of every hyperplane of one shape, as a
    function of its substitution z_pivot = sum_k r_k z_k.

    Returns (ncols, powers, rows).  powers[e], for e = 0..degree, describes
    the terms of (sum_k r_k z_k)^e, one per exponent vector beta of
    monomial_basis(n_vars-1, e), as (mults, links): mults lists the
    multinomials multinomial(e; beta), and links, for e >= 1, lists for each
    beta the pair (i, k) with beta = beta_i of power e-1 plus one in
    coordinate k, so that prod_k r_k**beta_k is the product for beta_i
    times r_k.  rows has one entry per monomial z^e of
    monomial_basis(n_vars, degree), in that order: (e_pivot, cols).  The
    restriction of z^e is (sum_k r_k z_k)^e_pivot times the other factors
    of z^e, so its i-th term lands on column cols[i] of
    monomial_basis(n_vars-1, degree), which has ncols monomials: the column
    of beta_i plus the remaining exponents of e.  Distinct beta of one row
    land on distinct columns.
    """
    m = n_vars - 1
    cols = {e: j for j, e in enumerate(monomial_basis(m, degree))}
    bases = [monomial_basis(m, e) for e in range(degree + 1)]
    powers = []
    for e, basis in enumerate(bases):
        mults = tuple(math.factorial(e) // math.prod(map(math.factorial, beta)) for beta in basis)
        links = []
        if e:
            parent = {beta: i for i, beta in enumerate(bases[e - 1])}
            for beta in basis:
                # the parent takes one off the first nonzero exponent
                k = next(k for k, x in enumerate(beta) if x)
                links.append((parent[beta[:k] + (beta[k] - 1,) + beta[k + 1:]], k))
        powers.append((mults, tuple(links)))
    rows = []
    for exps in monomial_basis(n_vars, degree):
        ep = exps[pivot]
        rest = exps[:pivot] + exps[pivot + 1:]
        targets = (tuple(x + y for x, y in zip(beta, rest)) for beta in bases[ep])
        rows.append((ep, tuple(cols[e] for e in targets)))
    return len(cols), tuple(powers), tuple(rows)


def _small_ints(rng: random.Random, k: int) -> list[int]:
    """k draws of [rng.randint(-9, 9) for _ in range(k)], with the same
    values and the same rng state after: randint(-9, 9) is -9 plus
    getrandbits(5), drawn again while it is 19 or more."""
    getrandbits = rng.getrandbits
    out = []
    for _ in range(k):
        r = getrandbits(5)
        while r >= 19:
            r = getrandbits(5)
        out.append(r - 9)
    return out


def _random_form(rng: random.Random, n_vars: int) -> tuple[list[int], int]:
    """Small-integer coefficients in [-9, 9] (`_small_ints`), resampled
    while identically zero, and the pivot, the first nonzero coefficient:
    the hyperplane of `random_hyperplane` without building it."""
    while True:
        ints = _small_ints(rng, n_vars)
        if any(ints):
            return ints, next(i for i, v in enumerate(ints) if v)


def random_hyperplane(rng: random.Random, n_vars: int) -> Hyperplane:
    """The hyperplane of the form `_random_form` draws."""
    ints, pivot = _random_form(rng, n_vars)
    return Hyperplane(tuple(map(GRat, ints)), pivot)


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic substream: independent of call order across labels."""
    return random.Random(f"{seed}|{label}")


# ---------------------------------------------------------------------------
# exact rank

def exact_rank(rows: list[list[GRat]]) -> int:
    """Rank of a matrix of Gaussian rationals, computed without floats."""
    return _rank_pairs([clear(r)[1] for r in rows if any(r)])


# ---------------------------------------------------------------------------
# subspaces

class PolySubspace(Record):
    """Span of the given polynomials inside the degree-d homogeneous space."""

    __slots__ = ("n_vars", "degree", "basis")

    def __init__(self, n_vars: int, degree: int, basis: list[Poly]):
        self.n_vars, self.degree, self.basis = n_vars, degree, basis


def _check_member(p: Poly, n_vars: int, degree: int) -> None:
    if p.n_vars != n_vars or p.degree != degree:
        raise ValueError(
            f"member has (n_vars, degree) = ({p.n_vars}, {p.degree}), "
            f"expected ({n_vars}, {degree})"
        )


def coefficient_rows(polys, n_vars: int, degree: int) -> list[list[GRat]]:
    """Dense rows over all C(n_vars-1+degree, degree) monomials; the
    `support_rows` of tests/reference_table.py keep only the used ones."""
    cols = monomial_basis(n_vars, degree)
    zero = GRat()
    rows = []
    for p in polys:
        _check_member(p, n_vars, degree)
        rows.append([p.coeffs.get(e, zero) for e in cols])
    return rows


def subspace_rank(W: PolySubspace) -> int:
    return exact_rank(coefficient_rows(W.basis, W.n_vars, W.degree))


def _int_restriction_rows(form: list[int], pivot: int, degree: int):
    """R_H of the hyperplane of the integer form `form` with that pivot, from
    the cached template, as (ncols, rows): row i lists (column, value) for
    each term of the restriction of the i-th monomial of
    monomial_basis(len(form), degree), every row scaled by t**degree; all
    other entries are zero.

    The substitution z_pivot = sum_j r_j z_j has r_j = -c_j/c_pivot, which
    t = |c_pivot| / g clears: t*r_j = -sign(c_pivot) * c_j / g, g the gcd
    of the form.  The entry of term (multinomial, beta) of a row with
    e_pivot = e is t**(degree-e) * multinomial * prod_k (t*r_k)**beta_k.
    The products are built power by power from the template's links, each
    one its parent's times one t*r_k, and the multinomials and the power of
    t are multiplied in once per power."""
    ncols, powers, rows = _restriction_template(len(form), degree, pivot)
    g = math.gcd(*form)
    sign = -1 if form[pivot] > 0 else 1
    t = abs(form[pivot]) // g
    tr = [sign * c // g for j, c in enumerate(form) if j != pivot]
    products = [1]
    values = []
    for e, (mults, links) in enumerate(powers):
        if e:
            products = [products[i] * tr[k] for i, k in links]
        scale = t ** (degree - e)
        values.append([scale * mult * x for mult, x in zip(mults, products)])
    return ncols, [tuple(zip(cols, values[e])) for e, cols in rows]


def _int_restricted_rank(
    M: list[list[int]], form: list[int], pivot: int, degree: int
) -> int:
    """The suites' restriction kernel: the rank of the restrictions of the
    polynomials with integer coefficient rows M (over monomial_basis order)
    to the hyperplane of the integer form `form` with that pivot.  It is
    the rank of M . R_H, with each row of M multiplied by the sparse R_H
    directly as `_rank_int_rows` asks for it, so the rows past the point
    where the rank reaches the width C(n_vars-2+degree, degree) are never
    multiplied.  It equals exact_rank(coefficient_rows([restrict(p, H)
    ...])), its reference; M is not modified, so one M serves many
    hyperplanes."""
    if not M:
        return 0
    ncols, R = _int_restriction_rows(form, pivot, degree)

    def product():
        for row in M:
            out = [0] * ncols
            for v, entries in zip(row, R):
                if v:
                    for col, r in entries:
                        out[col] += v * r
            yield out

    return _rank_int_rows(product(), ncols)


def _random_int_rows(rng: random.Random, n_vars: int, degree: int) -> list[list[int]]:
    """The M_W of the reference `random_subspace` (tests/reference_table.py),
    from the same draws (`_small_ints` for the entries): the basis drawn as
    integer coefficient rows, the all-zero ones dropped as the reference
    `cleared_rows` drops them."""
    size = math.comb(n_vars - 1 + degree, degree)
    count = rng.randint(1, size + 2)
    entries = _small_ints(rng, count * size)
    rows = (entries[i:i + size] for i in range(0, count * size, size))
    return [row for row in rows if any(row)]


def image_span_dim(components: list[Poly]) -> int:
    """Projective dimension of the linear span of the component list, from
    the `span_rank` of their sparse cleared coefficients; the reference is
    exact_rank(support_rows(components)) - 1, `support_rows` in
    tests/reference_table.py."""
    for p in components:
        _check_member(p, components[0].n_vars, components[0].degree)
    return cleared_span_dim([clear(p.coeffs)[1] for p in components])


def cleared_span_dim(rows: list[dict]) -> int:
    """`image_span_dim` of cleared components, given as their pairs dicts
    {exps: (re, im)}, all of one variable count and degree."""
    if not rows:
        raise ValueError("no components")
    if not any(rows):
        raise ValueError("all components are zero")
    return span_rank(rows) - 1


# ---------------------------------------------------------------------------
# the two bound harnesses

class GreenRecord(FrozenRecord):
    __slots__ = ("n", "d", "c", "c_h", "bound", "holds")

    def __init__(self, n: int, d: int, c: int, c_h: int, bound: int, holds: bool):
        self._freeze(n, d, c, c_h, bound, holds)


def _green_record(n: int, d: int, c: int, c_h: int) -> GreenRecord:
    bound = op_lower(c, d)
    return GreenRecord(n=n, d=d, c=c, c_h=c_h, bound=bound, holds=c_h <= bound)


def verify_green(W: PolySubspace, H: Hyperplane) -> GreenRecord:
    """Codimension of one restriction against the shifted codimension bound:
    c of W and c_h of its `restrict`ed members, both by `exact_rank`, the
    plain reference for `green_suite`.  The bound only applies to a general
    hyperplane; callers sampling several hyperplanes should compare the
    minimum c_h against it.
    """
    if W.n_vars != len(H.coeffs):
        raise ValueError("hyperplane lives in a different variable count")
    n = W.n_vars - 1
    d = W.degree
    c = math.comb(n + d, d) - subspace_rank(W)
    restricted = [restrict(p, H) for p in W.basis]
    c_h = math.comb(n - 1 + d, d) - exact_rank(coefficient_rows(restricted, n, d))
    return _green_record(n, d, c, c_h)


class GreenSuiteReport(SuiteReport):
    """Counts of a `green_suite` run.  `checks` sums the hyperplane budgets
    of its subspaces (`_green_subspace`), which bound the hyperplanes drawn.
    `violations` holds a (subspace index, GreenRecord) pair per violating
    subspace, where the index i is that of its stream
    `rng_for(seed, f"green|n{n}|d{d}|s{i}")`."""

    __slots__ = ("subspace_count",)

    def __init__(self, checks: int = 0, violations: list | None = None,
                 subspace_count: int = 0):
        super().__init__(checks, violations)
        self.subspace_count = subspace_count


def _green_subspace(rng: random.Random, n: int, d: int,
                    trials: int) -> tuple[GreenRecord | None, int]:
    """The GreenRecord of the next subspace of `rng` (P^n, degree d) at its
    minimum c_h, and its hyperplane budget: `trials`, then, since a miss
    may be a special hyperplane, up to `trials` more until one meets the
    bound.  The budget counts the hyperplanes that would be drawn, not the
    ones that are: rank(M . R_H) <= rank M <= len(M), so once a restricted
    rank reaches len(M) no later hyperplane can lower c_h, and the rest of
    the budget is counted but not drawn.  The record is None when one of
    the first `trials` restrictions has full width: then c_h = 0 <= c_<d>
    for every c >= 0, so the bound holds and M is not ranked."""
    M = _random_int_rows(rng, n + 1, d)
    restricted_size = math.comb(n - 1 + d, d)
    rank = 0
    for _ in range(trials):
        rank = max(rank, _int_restricted_rank(M, *_random_form(rng, n + 1), d))
        if rank == len(M):
            break
    if rank == restricted_size:
        return None, trials
    size = math.comb(n + d, d)
    # the rank of M or of its transpose, whichever is narrower
    c = size - (_rank_int_rows(zip(*M), len(M)) if len(M) < size else _rank_int_rows(M, size))
    best = _green_record(n, d, c, restricted_size - rank)
    drawn = trials
    while not best.holds and drawn < 2 * trials:
        drawn += 1
        if rank < len(M):
            rank = max(rank, _int_restricted_rank(M, *_random_form(rng, n + 1), d))
            best = _green_record(n, d, c, restricted_size - rank)
    return best, drawn


def green_suite(ns, ds, subspaces: int, trials: int, seed: int) -> GreenSuiteReport:
    """Sampled check of the restriction codimension bound: for each random
    subspace, min over its hyperplanes (`_green_subspace`) of c_h must not
    exceed c_<d>.  `checks` sums the subspaces' hyperplane budgets, not
    the hyperplanes drawn; a subspace whose best restriction has full width
    holds without a record."""
    report = GreenSuiteReport()
    for n in ns:
        for d in ds:
            for i in range(subspaces):
                rng = rng_for(seed, f"green|n{n}|d{d}|s{i}")
                best, drawn = _green_subspace(rng, n, d, trials)
                report.subspace_count += 1
                report.checks += drawn
                if best is not None and not best.holds:
                    report.violations.append((i, best))
    return report


class RestrictionRecord(FrozenRecord):
    __slots__ = ("n", "N", "bound", "dims", "max_dim", "holds")

    def __init__(self, n: int, N: int, bound: int, dims: tuple[int, ...],
                 max_dim: int, holds: bool):
        self._freeze(n, N, bound, dims, max_dim, holds)


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
    d = components[0].degree
    rng = rng_for(seed, f"restriction|n{n}|d{d}")
    dims = []
    for _ in range(trials):
        H = random_hyperplane(rng, n_vars)
        restricted = [restrict(p, H) for p in components]
        dims.append(exact_rank(coefficient_rows(restricted, n, d)) - 1)
    best = max(dims)
    return RestrictionRecord(
        n=n, N=N, bound=bound, dims=tuple(dims), max_dim=best, holds=best >= bound
    )


def veronese_suite(max_n: int, max_degree: int, trials: int, seed: int) -> SuiteReport:
    """Equality case of the span bound: for the full monomial map every
    sampled hyperplane section spans exactly the shifted dimension.  A
    violation is (n, d, dimension found, dimension expected).

    The map is taken on integers alone: its components are the monomials
    themselves, so they span the whole space, N = C(n+d, d) - 1, and their
    coefficient rows in monomial_basis order are the identity M."""
    report = SuiteReport()
    for n in range(1, max_n + 1):
        for d in range(1, max_degree + 1):
            size = math.comb(n + d, d)
            expected = op_minus(size - 1, n)
            rng = rng_for(seed, f"veronese|n{n}|d{d}")
            M = [[int(i == j) for j in range(size)] for i in range(size)]
            for _ in range(trials):
                rank = _int_restricted_rank(M, *_random_form(rng, n + 1), d)
                report.checks += 1
                if rank - 1 != expected:
                    report.violations.append((n, d, rank - 1, expected))
    return report


def rank_work_upto(lo: int, max_n: int, max_degree: int, ranks: int,
                   cap: int) -> int | None:
    """Work of `ranks` exact ranks in every cell (n, d) with lo <= n <= max_n
    and lo <= d <= max_degree, if it is at most `cap`, else None.

    A rank in cell (n, d) counts C(n+d, d)^3: its matrices have about
    C(n+d, d) rows and at most as many columns, so that bounds the steps of
    the product M . R_H and of Bareiss elimination.  The cells are summed
    from the largest down, and the sum and each binomial (`comb_upto`) stop
    once they pass `cap`, so the answer costs O(log cap) steps per cell it
    visits at any bounds; a cell it visits has at most cap^(1/3) monomials.
    """
    total = 0
    for n in range(max_n, lo - 1, -1):
        for d in range(max_degree, lo - 1, -1):
            size = comb_upto(n + d, d, cap)
            if size is None:
                return None
            total += ranks * size**3
            if total > cap:
                return None
    return total
