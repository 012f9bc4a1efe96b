import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgap import gaussint, polyspace
from macgap.binom_core import op_lower, op_minus
from macgap.polyspace import (
    GRat,
    Hyperplane,
    Poly,
    PolyFormatError,
    PolySubspace,
    cleared_parser,
    coefficient_rows,
    exact_rank,
    format_grat,
    format_poly,
    green_suite,
    image_span_dim,
    mono,
    monomial_basis,
    parse_grat,
    parse_poly,
    random_hyperplane,
    rank_work_upto,
    restrict,
    rng_for,
    subspace_rank,
    verify_green,
    verify_restriction_theorem,
    veronese_suite,
)
from reference_table import (
    cleared_rows,
    parse_cleared,
    random_form,
    random_subspace,
    rank_int_rows,
    support_rows,
    veronese_components,
)


def rank_by_division(rows):
    """Independent oracle: plain Gaussian elimination with exact division,
    on (re, im) Fraction pairs."""
    mat = [[(c.re, c.im) for c in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next(
            (i for i in range(rank, len(mat)) if mat[i][col] != (0, 0)), None
        )
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pa, pb = mat[rank][col]
        nrm = pa * pa + pb * pb
        inv = (pa / nrm, -pb / nrm)
        for i in range(rank + 1, len(mat)):
            fa, fb = mat[i][col]
            if (fa, fb) == (0, 0):
                continue
            ra = fa * inv[0] - fb * inv[1]
            rb = fa * inv[1] + fb * inv[0]
            mat[i] = [
                (
                    xa - (ra * ya - rb * yb),
                    xb - (ra * yb + rb * ya),
                )
                for (xa, xb), (ya, yb) in zip(mat[i], mat[rank])
            ]
        rank += 1
    return rank


grat_st = st.builds(
    GRat,
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


# up to six sparse members, each up to four (monomial index, coefficient)
# terms; the index is taken modulo the size of the monomial basis
members_st = st.lists(
    st.lists(st.tuples(st.integers(0, 200), grat_st), max_size=4),
    min_size=1,
    max_size=6,
)


real_grat_st = st.builds(
    GRat, st.fractions(min_value=-5, max_value=5, max_denominator=12)
)


@st.composite
def poly_st(draw, n_vars=None, degree=None, nonzero=False, coeff=grat_st):
    nv = n_vars if n_vars is not None else draw(st.integers(2, 3))
    d = degree if degree is not None else draw(st.integers(1, 3))
    basis = monomial_basis(nv, d)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(basis), coeff),
            min_size=1 if nonzero else 0,
            max_size=len(basis),
        )
    )
    p = Poly(nv, d, dict(pairs))
    if nonzero and p.is_zero:
        p = mono(nv, basis[0])
    return p


class TestGRat:
    def test_coercion(self):
        assert GRat(2).re == Fraction(2)
        assert GRat("1/3").re == Fraction(1, 3)

    def test_field_ops(self):
        i = GRat(0, 1)
        assert i * i == GRat(-1)
        a = GRat(Fraction(1, 2), Fraction(3, 4))
        b = GRat(Fraction(-2), Fraction(1, 3))
        assert (a * b) / b == a
        assert a + (-a) == GRat()
        assert a.conjugate().conjugate() == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GRat(1) / GRat()

    @given(grat_st)
    def test_text_round_trip(self, c):
        assert parse_grat(format_grat(c)) == c

    def test_format_examples(self):
        assert format_grat(GRat(Fraction(-2, 3))) == "-2/3"
        assert format_grat(GRat(Fraction(1, 2), Fraction(5))) == "1/2,5/1"

    @pytest.mark.parametrize("bad", ["", ",", "1/0", "a/b", "1/2,3/4,5", "1e3", "1/2,1E2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PolyFormatError):
            parse_grat(bad)


class TestPoly:
    def test_validation(self):
        with pytest.raises(ValueError):
            Poly(2, 2, {(1, 0): GRat(1)})  # degree mismatch
        with pytest.raises(ValueError):
            Poly(2, 2, {(1, 1, 0): GRat(1)})  # wrong length
        with pytest.raises(ValueError):
            Poly(2, 1, {(2, -1): GRat(1)})

    def test_zero_drops(self):
        p = Poly(2, 2, {(2, 0): GRat(0), (1, 1): GRat(3)})
        assert list(p.coeffs) == [(1, 1)]
        assert not p.is_zero

    def test_add_cancellation(self):
        p = mono(2, (1, 1), 2)
        q = mono(2, (1, 1), -2)
        assert (p + q).is_zero
        assert (p + q).degree == 2

    def test_degree_mismatch_add(self):
        with pytest.raises(ValueError):
            mono(2, (1, 0)) + mono(2, (1, 1))

    def test_mul(self):
        p = mono(2, (1, 0)) + mono(2, (0, 1))
        sq = p * p
        assert sq.degree == 2
        assert sq.coeffs[(1, 1)] == GRat(2)

    def test_scalar_mul(self):
        p = mono(3, (1, 1, 0), 3)
        assert (p * 2).coeffs[(1, 1, 0)] == GRat(6)
        assert (Fraction(1, 3) * p).coeffs[(1, 1, 0)] == GRat(1)

    def test_evaluate(self):
        p = mono(2, (2, 0)) + mono(2, (0, 2), -1)
        vals = [GRat(3), GRat(2)]
        assert p.evaluate(vals) == GRat(5)
        i = GRat(0, 1)
        assert mono(2, (1, 1)).evaluate([i, i]) == GRat(-1)

    def test_conjugate_coeffs(self):
        p = mono(2, (1, 0), GRat(1, 2))
        assert p.conjugate_coeffs().coeffs[(1, 0)] == GRat(1, -2)


class TestMonomialBasis:
    def test_order_two_vars(self):
        assert monomial_basis(2, 1) == [(1, 0), (0, 1)]

    @pytest.mark.parametrize(
        "n_vars,d,count", [(3, 2, 6), (4, 3, 20), (1, 5, 1), (3, 0, 1)]
    )
    def test_counts(self, n_vars, d, count):
        basis = monomial_basis(n_vars, d)
        assert len(basis) == count
        assert len(basis) == math.comb(n_vars - 1 + d, d)
        assert all(sum(e) == d for e in basis)
        assert basis == sorted(basis, reverse=True)

    def test_rejects(self):
        with pytest.raises(ValueError):
            monomial_basis(0, 2)


# pieces of the text format and hostile tokens (control characters, huge
# integers, zero denominators, exponent notation), so that fuzzed text gets
# past the first checks of the parser
POLY_FUZZ_TOKENS = [
    " ", ";", "; ", ",", "0", "1", "2", "-1", "1/1", "-2/3", "1/2,3/4", "0,1/1",
    "1/0", "0/0", "1/2,1/0", "9" * 5000, "1/" + "9" * 5000, "1e1000000000", "nan",
    "inf", "x", "+", "-", "_", "1_0", "\x00", "\x0c", "\t", "\n", "\u2028", "\u0663",
]


class TestPolyText:
    @settings(max_examples=150)
    @given(poly_st())
    def test_round_trip(self, p):
        text = format_poly(p)
        q = parse_poly(text, n_vars=p.n_vars, degree=p.degree)
        assert q == p
        assert format_poly(q) == text

    def test_zero_needs_context(self):
        assert parse_poly("0", n_vars=3, degree=2).is_zero
        with pytest.raises(PolyFormatError):
            parse_poly("0")

    def test_merges_duplicate_terms(self):
        p = parse_poly("1/2 1 1; 1/2 1 1")
        assert p.coeffs[(1, 1)] == GRat(1)

    @pytest.mark.parametrize(
        "bad",
        ["", "1/2", "x 1 2", "1/0 1 1", "1/2 1 x", "1/2 1 -1", "1/1 1 0; 1/1 2 0",
         "1e1000000000 1 0", "1/1 1 0; 0,1e-1000000000 0 1"],
    )
    def test_rejects(self, bad):
        with pytest.raises(PolyFormatError):
            parse_poly(bad)

    def test_rejects_integers_past_the_digit_limit(self):
        # Python converts at most 4300 digits between str and int
        for bad in ("9" * 5000 + " 1 0", "1/" + "9" * 5000 + " 1 0", "1/1 " + "9" * 5000):
            with pytest.raises(PolyFormatError):
                parse_poly(bad)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.text(), st.lists(st.sampled_from(POLY_FUZZ_TOKENS), max_size=24).map("".join)),
        st.integers(1, 4),
        st.integers(0, 3),
        st.booleans(),
        st.booleans(),
    )
    def test_arbitrary_text_raises_only_format_errors(self, text, n_vars, degree,
                                                      with_n_vars, with_degree):
        # cleared_parser, which always gets the shape, gives the same
        # result or the same message; parse_poly also reads shape-less text
        assert_parsers_agree(text, n_vars, degree)
        try:
            p = parse_poly(text, n_vars=n_vars if with_n_vars else None,
                           degree=degree if with_degree else None)
        except PolyFormatError:
            return
        assert parse_poly(format_poly(p), n_vars=p.n_vars, degree=p.degree) == p

    def test_dimension_checks(self):
        with pytest.raises(PolyFormatError):
            parse_poly("1/1 1 0", n_vars=3)
        with pytest.raises(PolyFormatError):
            parse_poly("1/1 1 0", degree=2)


def _outcome(parse, text, n_vars, degree):
    """The cleared result with its term order, or the format error."""
    try:
        L, pairs = parse(text, n_vars, degree)
    except PolyFormatError as exc:
        return "error", str(exc)
    return L, list(pairs.items())


def assert_parsers_agree(text, n_vars, degree):
    want = _outcome(parse_cleared, text, n_vars, degree)
    assert _outcome(cleared_parser(), text, n_vars, degree) == want
    return want


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def coeff_part_st(draw):
    """One part of a coefficient token, in any notation parse_grat reads,
    and its value; now and then a part it refuses, with value None."""
    n = draw(st.integers(-3000, 3000))
    d = draw(st.integers(1, 60))
    style = draw(st.sampled_from(
        ["fraction", "fraction", "integer", "signed", "unreduced", "decimal",
         "underscores", "unicode", "hostile"]))
    if style == "fraction":
        return f"{n}/{d}", Fraction(n, d)
    if style == "integer":
        return str(n), Fraction(n)
    if style == "signed":
        return f"+{abs(n)}/{d}", Fraction(abs(n), d)
    if style == "unreduced":
        return f"{n * d}/{d * d}", Fraction(n, d)
    if style == "decimal":
        return f"{'-' if n < 0 else ''}{abs(n) // 100}.{abs(n) % 100:02d}", Fraction(n, 100)
    if style == "underscores":
        return f"{n * 1000:_}", Fraction(n * 1000)
    if style == "unicode":
        return f"{n}/{d}".translate(_ARABIC_INDIC), Fraction(n, d)
    hostile = ["9" * 5000, "1/" + "9" * 5000, "1/0", "0/0", "1e3", "2E-1", ""]
    return draw(st.sampled_from(hostile)), None


@st.composite
def poly_text_st(draw):
    """(text, n_vars, degree): terms on a few monomials, so that repeated
    and cancelling terms are common, or the line "0"."""
    nv = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    if draw(st.integers(0, 9)) == 0:
        return "0", nv, d
    basis = monomial_basis(nv, d)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        exps = " ".join(map(str, draw(st.sampled_from(basis))))
        (token, a), im = draw(coeff_part_st()), draw(st.none() | coeff_part_st())
        b = Fraction(0) if im is None else im[1]
        terms.append(f"{token if im is None else token + ',' + im[0]} {exps}")
        if a is not None and b is not None and draw(st.booleans()):
            # the same value with the other sign cancels the term
            terms.append(f"{format_grat(GRat(-a, -b))} {exps}")
    return "; ".join(terms), nv, d


# characters that one-character edits of a canonical line insert or
# substitute: control bytes, whitespace that str.split splits at or not,
# separators, signs and digits of several scripts
EDIT_CHARS = ["\x05", "\t", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", " ", ";",
              ",", "/", "+", "-", "0", "7", "\u0663", "e", "x"]


@st.composite
def canonical_line_st(draw):
    """(text, n_vars, degree): a line in the layout `format_poly` writes,
    with coefficients in any notation of `coeff_part_st`; the degree runs
    up to 12, so that some exponents have two digits, and monomials may
    repeat."""
    nv = draw(st.integers(1, 4))
    d = draw(st.integers(0, 12))
    basis = monomial_basis(nv, d)
    terms = []
    for exps in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=5)):
        token = draw(coeff_part_st())[0]
        if draw(st.booleans()):
            token += "," + draw(coeff_part_st())[0]
        terms.append(token + " " + " ".join(map(str, exps)))
    return "; ".join(terms), nv, d


@st.composite
def mutated_line_st(draw):
    """A `canonical_line_st` case with at most one character replaced,
    inserted or deleted."""
    text, nv, d = draw(canonical_line_st())
    i = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    char = draw(st.sampled_from(EDIT_CHARS))
    if edit == "replace":
        text = text[:i] + char + text[i + 1:]
    elif edit == "insert":
        text = text[:i] + char + text[i:]
    elif edit == "delete":
        text = text[:i] + text[i + 1:]
    return text, nv, d


class TestParseCleared:
    @settings(max_examples=300, deadline=None)
    @given(poly_text_st())
    def test_matches_parse_poly_cleared(self, case):
        text, n_vars, degree = case
        assert_parsers_agree(text, n_vars, degree)

    @pytest.mark.parametrize("text, want", [
        ("1/2 1 1; 1/2 1 1", (1, [((1, 1), (1, 0))])),
        ("1/3,2/9 2 0; -1/3,-2/9 2 0; 3/4 0 2", (4, [((0, 2), (3, 0))])),
        ("0/5 2 0; 0,0 1 1; 2/6,1/10 0 2", (30, [((0, 2), (10, 3))])),
        ("1.5 1 1; 1_0 2 0; \u0663/\u0664 0 2", (4, [((1, 1), (6, 0)), ((2, 0), (40, 0)), ((0, 2), (3, 0))])),
        ("0", (1, [])),
    ])
    def test_known_values(self, text, want):
        assert assert_parsers_agree(text, 2, 2) == want

    @pytest.mark.parametrize("token", POLY_FUZZ_TOKENS + ["9" * 5000 + ",1", "1,1/" + "9" * 5000])
    def test_hostile_coefficients(self, token):
        assert_parsers_agree(f"{token} 1 0", 2, 1)
        assert_parsers_agree(f"1/1 1 0; {token} 0 1", 2, 1)

    @settings(max_examples=400, deadline=None)
    @given(mutated_line_st())
    def test_one_character_edits_of_canonical_lines(self, case):
        text, n_vars, degree = case
        assert_parsers_agree(text, n_vars, degree)

    @pytest.mark.parametrize("text, fast", [
        # a line as `format_poly` writes it
        ("1/2 2 1 0; -3/4,1/5 0 0 3", True),
        # bytes below "0" in a digit slot, where a table that clipped
        # them to 0 or kept their low four bits would give the degree
        ("1/2 3 \x05 0; -3/4,1/5 0 0 3", False),
        ("1/2 \x03 0 0; -3/4,1/5 0 0 3", False),
        ("1/2 2 ! 0; -3/4,1/5 0 0 3", False),
        # whitespace in the coefficient token: str.split also splits at \x1c-\x1f
        ("1/\t2 2 1 0; -3/4,1/5 0 0 3", False),
        ("1/\x1c2 2 1 0; -3/4,1/5 0 0 3", False),
        ("1/2 2 1 0; -3/4,\x0b1/5 0 0 3", False),
        ("\t1/2 2 1 0; -3/4,1/5 0 0 3", False),
        # a bad shape in a term before, in or after a bad coefficient
        ("1/2 2 1 0 0; x 0 0 3", False),
        ("1/2 2 1; 1/0 0 0 3", False),
        ("x 2 1; -3/4,1/5 0 0 3", False),
        # every term has a coefficient and three one-digit exponents at
        # the fixed offsets, so the first bad coefficient is refused first
        ("x 2 1 0; 1/2 0 0 3 0", True),
        ("x 2 1 0; 1/0 0 0 3", True),
        ("1/2 2 1 0; 1/0 0 0 3; x 1 1 1", True),
        ("1/2 2 1 0; 1e3 0 0 3", True),
        # spacing and separators
        ("1/2  2 1 0; -3/4,1/5 0 0 3", False),
        ("1/2 2 1 0;  -3/4,1/5 0 0 3", False),
        ("1/2 2 1 0 ; -3/4,1/5 0 0 3", False),
        ("1/2 2 1 0;-3/4,1/5 0 0 3", False),
        ("1/2;3 2 1 0", False),
        ("1/2 2 1 0; ", False),
        # signs, other digits and two-digit exponents
        ("1/2 2 + 0; -3/4,1/5 0 0 3", False),
        ("1/2 2 -1 2", False),
        ("1/2 2 \u0661 0; -3/4,1/5 0 0 3", False),
        ("\u0661/2 2 1 0; -3/4,1/5 0 0 3", False),
        ("1/2 2 1 00; -3/4,1/5 0 0 3", False),
        ("00 2 1 0; -3/4,1/5 0 0 3", True),
        # a repeated monomial, and the zero line
        ("1/2 2 1 0; -3/4,1/5 2 1 0; 1/4 2 1 0", True),
        ("0", False),
    ])
    def test_fixed_offset_traps(self, text, fast, monkeypatch):
        # same result or message on both paths; `fast` says whether the
        # fixed-offset read takes the line without `_parse_terms`
        want = assert_parsers_agree(text, 3, 3)
        slow = []
        parse_terms = polyspace._parse_terms

        def counted(*args):
            slow.append(args[0])
            return parse_terms(*args)

        monkeypatch.setattr(polyspace, "_parse_terms", counted)
        assert _outcome(cleared_parser(), text, 3, 3) == want
        assert (not slow) == fast

    def test_two_digit_exponents_above_degree_nine(self):
        for text in ("1/2 10 0; 1/3 5 5", "1/2 9 1; 1/3 5 5", "1/2 1 0; 1/3 10 0"):
            assert_parsers_agree(text, 2, 10)
        assert assert_parsers_agree("1/2 10 0", 2, 10) == (2, [((10, 0), (1, 0))])


def plane(ints, pivot=None):
    coeffs = tuple(GRat(v) for v in ints)
    if pivot is None:
        pivot = next(i for i, v in enumerate(ints) if v)
    return Hyperplane(coeffs, pivot)


@st.composite
def hyperplane_st(draw, n_vars):
    """Gaussian-rational linear form with any nonzero coefficient as pivot."""
    coeffs = draw(st.lists(grat_st, min_size=n_vars, max_size=n_vars))
    if not any(coeffs):
        coeffs[draw(st.integers(0, n_vars - 1))] = draw(grat_st.filter(bool))
    pivot = draw(st.sampled_from([i for i, c in enumerate(coeffs) if c]))
    return Hyperplane(tuple(coeffs), pivot)


@st.composite
def int_hyperplane_st(draw, n_vars):
    """Linear form with integer coefficients in [-9, 9]."""
    ints = draw(st.lists(st.integers(-9, 9), min_size=n_vars, max_size=n_vars))
    if not any(ints):
        ints[0] = 1
    pivot = draw(st.sampled_from([i for i, v in enumerate(ints) if v]))
    return Hyperplane(tuple(GRat(v) for v in ints), pivot)


def lift(H, x):
    """The point of H over x: x with z_pivot = -sum_j c_j x_j / c_pivot
    inserted at the pivot."""
    piv = H.pivot
    total = GRat()
    for c, v in zip(H.coeffs[:piv] + H.coeffs[piv + 1:], x):
        total = total + c * v
    return x[:piv] + [-total / H.coeffs[piv]] + x[piv:]


# Gaussian forms with fractional parts, pivots off the first coordinate and
# real forms over imaginary sections
GAUSSIAN_PLANES = [
    Hyperplane((GRat(1, 2), GRat(Fraction(1, 3)), GRat(0, -1)), 0),
    Hyperplane((GRat(0), GRat(2), GRat(Fraction(3, 4), 1)), 2),
    Hyperplane((GRat(5), GRat(0, 1), GRat(-3)), 1),
    Hyperplane((GRat(1), GRat(0, 1)), 0),
    Hyperplane((GRat(2), GRat(0, 1), GRat(1, 1)), 1),
]


class TestRestrict:
    def test_kills_pivot_square(self):
        assert restrict(mono(3, (2, 0, 0)), plane([1, 0, 0])).is_zero

    def test_diagonal(self):
        got = restrict(mono(3, (1, 1, 0)), plane([1, -1, 0]))
        assert got == mono(2, (2, 0))

    def test_expansion(self):
        p = mono(3, (2, 0, 0)) + mono(3, (0, 1, 1))
        got = restrict(p, plane([1, 1, 1]))
        want = mono(2, (2, 0)) + mono(2, (1, 1), 3) + mono(2, (0, 2))
        assert got == want

    def test_pivot_validation(self):
        with pytest.raises(ValueError):
            Hyperplane((GRat(0), GRat(1)), 0)
        with pytest.raises(ValueError):
            Hyperplane((GRat(1),), 1)
        with pytest.raises(ValueError):
            restrict(mono(2, (1, 0)), plane([1, 0, 0]))
        with pytest.raises(ValueError):
            restrict(mono(1, (2,)), Hyperplane((GRat(1),), 0))

    @settings(max_examples=80, deadline=None)
    @given(
        p=poly_st(n_vars=3, degree=2),
        q=poly_st(n_vars=3, degree=2),
        a=grat_st,
        b=grat_st,
        data=st.data(),
    )
    def test_linearity(self, p, q, a, b, data):
        ints = data.draw(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(any)
        )
        H = plane(ints)
        lhs = restrict(p.scale(a) + q.scale(b), H)
        rhs = restrict(p, H).scale(a) + restrict(q, H).scale(b)
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_commutes_with_evaluation(self, data):
        # the restriction at x is p on the point of H over x; `evaluate`
        # shares no expansion code with `restrict`
        nv = data.draw(st.integers(2, 4), label="n_vars")
        d = data.draw(st.integers(0, 4), label="degree")
        p = data.draw(poly_st(n_vars=nv, degree=d), label="p")
        H = data.draw(hyperplane_st(nv), label="H")
        x = data.draw(st.lists(grat_st, min_size=nv - 1, max_size=nv - 1), label="x")
        assert restrict(p, H).evaluate(x) == p.evaluate(lift(H, x))

    @pytest.mark.parametrize("H", GAUSSIAN_PLANES)
    def test_evaluation_on_gaussian_planes(self, H):
        nv = len(H.coeffs)
        i = GRat(0, 1)
        polys = [mono(nv, e) for e in monomial_basis(nv, 2)] + [
            mono(nv, (2,) + (0,) * (nv - 1)) + mono(nv, (0,) * (nv - 2) + (1, 1), i),
            mono(nv, (0,) * (nv - 1) + (3,), GRat(Fraction(-2, 7)))
            + mono(nv, (1, 2) + (0,) * (nv - 2)),
        ]
        rng = rng_for(nv, "evaluation")
        for _ in range(3):
            x = [GRat(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(nv - 1)]
            for p in polys:
                assert restrict(p, H).evaluate(x) == p.evaluate(lift(H, x))


class TestExactRank:
    def test_known_int_ranks(self):
        rows = [
            [GRat(2), GRat(0), GRat(1)],
            [GRat(0), GRat(3), GRat(1)],
            [GRat(4), GRat(6), GRat(4)],
        ]
        assert exact_rank(rows) == 2

    def test_zero_and_empty(self):
        assert exact_rank([]) == 0
        assert exact_rank([[GRat(), GRat()]]) == 0

    def test_complex_dependency(self):
        i = GRat(0, 1)
        rows = [[GRat(1), i], [i, GRat(-1)]]
        assert exact_rank(rows) == 1
        rows = [[GRat(1), i], [i, GRat(1)]]
        assert exact_rank(rows) == 2

    def test_update_applies_to_rows_with_zero_leading_entry(self):
        # regression shape: middle row has a zero in the pivot column but
        # must still be rescaled for later exact divisions
        rows = [
            [GRat(2), GRat(1), GRat(1)],
            [GRat(0), GRat(3), GRat(5)],
            [GRat(2), GRat(7), GRat(11)],
        ]
        assert exact_rank(rows) == rank_by_division(rows)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_division_oracle_int(self, ints):
        rows = [[GRat(v) for v in row] for row in ints]
        assert exact_rank(rows) == rank_by_division(rows)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_division_oracle_gauss(self, pairs):
        rows = [[GRat(a, b) for a, b in row] for row in pairs]
        assert exact_rank(rows) == rank_by_division(rows)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.fractions(min_value=-3, max_value=3, max_denominator=8),
                    st.fractions(min_value=-3, max_value=3, max_denominator=8),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_division_oracle_rational(self, pairs):
        rows = [[GRat(a, b) for a, b in row] for row in pairs]
        assert exact_rank(rows) == rank_by_division(rows)


class TestSubspaceRank:
    def test_full_space(self):
        for n_vars, d in [(2, 3), (3, 2)]:
            W = PolySubspace(n_vars, d, veronese_components(n_vars, d))
            assert subspace_rank(W) == math.comb(n_vars - 1 + d, d)

    def test_duplicates(self):
        W = PolySubspace(
            2, 2, [mono(2, (2, 0)), mono(2, (2, 0)), mono(2, (1, 1))]
        )
        assert subspace_rank(W) == 2

    def test_planted_dependency(self):
        p1 = mono(4, (2, 0, 0, 0))
        p2 = mono(4, (1, 1, 0, 0)) + mono(4, (0, 0, 2, 0))
        p3 = mono(4, (0, 1, 0, 1))
        p4 = mono(4, (0, 0, 0, 2)) + mono(4, (1, 0, 1, 0))
        p5 = p1 + p2.scale(GRat(2)) - p3
        assert subspace_rank(PolySubspace(4, 2, [p1, p2, p3, p4, p5])) == 4

    def test_mixed_degree_rejected(self):
        W = PolySubspace(2, 2, [mono(2, (2, 0)), mono(2, (1, 0))])
        with pytest.raises(ValueError):
            subspace_rank(W)

    def test_rank_never_grows_under_restriction(self):
        rng = rng_for(11, "shrink")
        for _ in range(25):
            nv = rng.randint(3, 4)
            d = rng.randint(1, 3)
            basis = monomial_basis(nv, d)
            polys = []
            for _ in range(rng.randint(1, 6)):
                coeffs = {
                    e: GRat(rng.randint(-5, 5)) for e in basis if rng.random() < 0.5
                }
                polys.append(Poly(nv, d, coeffs))
            W = PolySubspace(nv, d, polys)
            H = random_hyperplane(rng, nv)
            restricted = [restrict(p, H) for p in polys]
            assert exact_rank(
                coefficient_rows(restricted, nv - 1, d)
            ) <= subspace_rank(W)


def reference_restricted_rank(polys, H, n_vars, d):
    restricted = [restrict(p, H) for p in polys]
    return exact_rank(coefficient_rows(restricted, n_vars - 1, d))


def int_rows(polys, n_vars, d):
    """The integer M of real members: real parts of their cleared rows."""
    return [[a for a, _ in row] for row in cleared_rows(polys, n_vars, d)]


class TestRestrictedRank:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_restrict_reference(self, data):
        nv = data.draw(st.integers(2, 4))
        d = data.draw(st.integers(0, 3))
        # members may be zero and the list may be empty
        polys = data.draw(st.lists(poly_st(n_vars=nv, degree=d, coeff=real_grat_st),
                                   max_size=5))
        H = data.draw(int_hyperplane_st(nv))
        if d >= 1:
            # multiples of the form restrict to zero, so the restricted rank
            # drops below the generic value
            form = Poly(nv, 1, {
                tuple(int(i == j) for i in range(nv)): c
                for j, c in enumerate(H.coeffs)
            })
            polys += [
                form * q
                for q in data.draw(st.lists(
                    poly_st(n_vars=nv, degree=d - 1, coeff=real_grat_st), max_size=3
                ))
            ]
        polys = data.draw(st.permutations(polys))
        M = int_rows(polys, nv, d)
        got = polyspace._int_restricted_rank(M, [int(c.re) for c in H.coeffs], H.pivot, d)
        assert got == reference_restricted_rank(polys, H, nv, d)
        # M is not modified, so one M serves many hyperplanes
        assert M == int_rows(polys, nv, d)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_kernel_matches_references(self, data):
        # the row-by-row kernel against the column-oriented reference, on
        # M, its transpose and M . R_H, and the restricted rank against
        # `restrict`
        nv = data.draw(st.integers(2, 5), label="n_vars")
        d = data.draw(st.integers(0, 3), label="degree")
        H = data.draw(int_hyperplane_st(nv), label="H")
        size = math.comb(nv - 1 + d, d)
        entry = st.just(0) | st.integers(-9, 9)
        row_st = st.lists(entry, min_size=size, max_size=size)
        shape = data.draw(st.sampled_from(["free", "deficient", "identity"]), label="shape")
        if shape == "identity":
            # veronese_suite's M
            M = [[int(i == j) for j in range(size)] for i in range(size)]
        else:
            # more rows than the width C(nv-2+d, d) whenever size + 3 > it
            M = data.draw(st.lists(row_st, max_size=size + 3), label="rows")
        if shape == "deficient" and M:
            # integer combinations of fewer rows
            base = M[: data.draw(st.integers(1, len(M)), label="base")]
            weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
            M = [
                [sum(w * row[j] for w, row in zip(ws, base)) for j in range(size)]
                for ws in data.draw(st.lists(weights, max_size=size + 3), label="weights")
            ]
        if M and data.draw(st.booleans(), label="repeat"):
            # a row that reduces to zero right after the first one
            M.insert(1, [-2 * v for v in M[0]])
        for _ in range(data.draw(st.integers(0, 2), label="zero rows")):
            M.insert(data.draw(st.integers(0, len(M)), label="at"), [0] * size)

        assert gaussint._rank_int_rows(M, size) == rank_int_rows(M, size)
        assert gaussint._rank_int_rows(zip(*M), len(M)) == rank_int_rows(M, size)
        form = [int(c.re) for c in H.coeffs]
        ncols, R = polyspace._int_restriction_rows(form, H.pivot, d)
        product = []
        for row in M:
            out = [0] * ncols
            for v, entries in zip(row, R):
                for col, r in entries:
                    out[col] += v * r
            product.append(out)
        rank = gaussint._rank_int_rows(product, ncols)
        assert rank == rank_int_rows(product, ncols)
        basis = monomial_basis(nv, d)
        polys = [Poly(nv, d, {e: GRat(v) for e, v in zip(basis, row) if v}) for row in M]
        got = polyspace._int_restricted_rank(M, form, H.pivot, d)
        assert got == rank == reference_restricted_rank(polys, H, nv, d)

    def test_zero_subspace(self):
        assert polyspace._int_restricted_rank([], [1, 2, 3], 0, 2) == 0
        assert polyspace._int_restricted_rank([[0] * 6], [1, 2, 3], 0, 2) == 0
        rec = verify_green(PolySubspace(3, 2, []), plane([1, 2, 3]))
        assert (rec.c, rec.c_h) == (6, 3)

    def test_verify_green_refuses_a_plane_of_another_variable_count(self):
        # an empty W restricts nothing, so the check must not wait for `restrict`
        for W in (PolySubspace(3, 2, []), PolySubspace(3, 2, [mono(3, (2, 0, 0))])):
            with pytest.raises(ValueError, match="^hyperplane lives in a different variable count$"):
                verify_green(W, Hyperplane((GRat(1), GRat(2)), 0))

    def test_two_variables(self):
        # the section of P^1 is a point: the restricted space has dimension 1
        def rank(polys):
            return polyspace._int_restricted_rank(int_rows(polys, 2, 3), [2, -3], 0, 3)

        assert rank(veronese_components(2, 3)) == 1
        assert rank([mono(2, (3, 0))]) == 1
        assert rank([mono(2, (0, 3))]) == 1
        assert rank([Poly(2, 3, {})]) == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matrix_rows_are_scaled_restrictions(self, data):
        # R_H from the template, row by row, is the restriction of each
        # monomial up to one positive scale shared by all rows
        nv = data.draw(st.integers(2, 4), label="n_vars")
        d = data.draw(st.integers(0, 3), label="degree")
        H = data.draw(int_hyperplane_st(nv), label="H")
        ints = [int(c.re) for c in H.coeffs]
        ncols, R = polyspace._int_restriction_rows(ints, H.pivot, d)
        cols = monomial_basis(nv - 1, d)
        assert ncols == len(cols) and len(R) == len(monomial_basis(nv, d))
        pairs = []
        for e, row in zip(monomial_basis(nv, d), R):
            dense = [0] * ncols
            for c, v in row:
                dense[c] = v
            want = restrict(mono(nv, e), H)
            pairs += [(dense[j], want.coeffs.get(col, GRat())) for j, col in enumerate(cols)]
        scale = next(got / want.re for got, want in pairs if want)
        assert scale > 0
        assert all(want.is_real() and got == want.re * scale for got, want in pairs)

    def test_validation(self):
        with pytest.raises(ValueError):
            cleared_rows([mono(2, (1, 1))], 3, 2)

    def test_template_cache_is_bounded(self):
        polyspace._restriction_template.cache_clear()
        for nv in range(2, 6):
            for d in range(4):
                for pivot in range(nv):
                    polyspace._restriction_template(nv, d, pivot)
        info = polyspace._restriction_template.cache_info()
        assert info.maxsize == polyspace.TEMPLATE_CACHE
        assert info.currsize <= polyspace.TEMPLATE_CACHE < 56

    def test_verify_green_reuses_rows(self):
        # on integer W and H, verify_green's c_h, from `restrict`, is the
        # kernel's, and one row matrix serves every hyperplane unmodified
        rng = rng_for(4, "reuse")
        W = PolySubspace(4, 3, [mono(4, e) for e in monomial_basis(4, 3)[::3]])
        M = int_rows(W.basis, 4, 3)
        for _ in range(5):
            H = random_hyperplane(rng, 4)
            rec = verify_green(W, H)
            form = [int(c.re) for c in H.coeffs]
            rank = polyspace._int_restricted_rank(M, form, H.pivot, 3)
            assert rec.c_h == math.comb(2 + 3, 3) - rank
            assert rec.c == math.comb(3 + 3, 3) - subspace_rank(W)
        assert M == int_rows(W.basis, 4, 3)

    def test_references_stay_off_the_template(self, monkeypatch):
        # the mirror of the CLI's test_suites_stay_on_the_integer_kernel:
        # the library verifiers restrict through `restrict` alone
        W = PolySubspace(4, 3, [mono(4, e) for e in monomial_basis(4, 3)[::3]])
        i = GRat(0, 1)
        G = PolySubspace(3, 2, [mono(3, (2, 0, 0)) + mono(3, (0, 1, 1), i),
                                mono(3, (1, 1, 0))])

        def run():
            greens = [verify_green(W, plane([3, -1, 0, 2], 1))]
            greens += [verify_green(G, H) for H in GAUSSIAN_PLANES if len(H.coeffs) == 3]
            return greens, [
                verify_restriction_theorem(veronese_components(3, 2), trials=6, seed=1),
                verify_restriction_theorem(G.basis, trials=3, seed=2),
            ]

        want = run()

        def refuse(*args, **kwargs):
            raise AssertionError("a reference reached the integer kernel")

        monkeypatch.setattr(polyspace, "_restriction_template", refuse)
        monkeypatch.setattr(polyspace, "_int_restricted_rank", refuse)
        assert run() == want


class TestIntegerDraws:
    def test_small_ints_match_randint(self):
        """`_small_ints` pins CPython's `_randbelow_with_getrandbits`, which
        `randint(-9, 9)` runs on: -9 plus getrandbits(5), drawn again while
        it is 19 or more.  A CPython that draws otherwise fails here, not in
        the digests of the seeded records."""
        for seed in range(2000):
            fast, ref = random.Random(seed), random.Random(seed)
            k = 1 + seed % 37
            assert polyspace._small_ints(fast, k) == [ref.randint(-9, 9) for _ in range(k)]
            assert fast.getstate() == ref.getstate()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), nv=st.integers(1, 4), d=st.integers(0, 3))
    def test_rows_match_random_subspace(self, seed, nv, d):
        fast, ref = rng_for(seed, "draw"), rng_for(seed, "draw")
        rows = polyspace._random_int_rows(fast, nv, d)
        want = cleared_rows(random_subspace(ref, nv, d).basis, nv, d)
        assert [[(v, 0) for v in row] for row in rows] == want
        assert fast.getstate() == ref.getstate()

    def test_zero_rows_dropped(self):
        # one monomial per row: some seed draws a zero row, which
        # `cleared_rows` drops too
        counts = []
        for seed in range(60):
            fast, ref = rng_for(seed, "zero"), rng_for(seed, "zero")
            W = random_subspace(ref, 2, 0)
            rows = polyspace._random_int_rows(fast, 2, 0)
            assert [[(v, 0) for v in row] for row in rows] == cleared_rows(W.basis, 2, 0)
            counts.append(len(W.basis) - len(rows))
        assert max(counts) > 0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), nv=st.integers(1, 5))
    def test_form_matches_random_hyperplane(self, seed, nv):
        # the fast draws against the randint reference, and the hyperplane
        # built on them
        fast, ref, plane = (rng_for(seed, "form") for _ in range(3))
        draws = [polyspace._random_form(fast, nv) for _ in range(5)]
        assert draws == [random_form(ref, nv) for _ in range(5)]
        want = [random_hyperplane(plane, nv) for _ in range(5)]
        assert [(tuple(GRat(v) for v in form), pivot) for form, pivot in draws] == [
            (H.coeffs, H.pivot) for H in want
        ]
        assert fast.getstate() == ref.getstate() == plane.getstate()


class TestGreen:
    def test_full_space_trivial(self):
        W = PolySubspace(3, 2, veronese_components(3, 2))
        rec = verify_green(W, plane([1, 2, 3]))
        assert (rec.c, rec.c_h, rec.bound) == (0, 0, 0)
        assert rec.holds

    def test_codim_one_restricts_onto(self):
        # dropping one monomial still covers the restricted space for a
        # general hyperplane: the bound 1_<d> = 0 forces c_h = 0
        basis = monomial_basis(3, 2)[:-1]
        W = PolySubspace(3, 2, [mono(3, e) for e in basis])
        rng = rng_for(3, "codim1")
        recs = [
            verify_green(W, random_hyperplane(rng, 3)) for _ in range(10)
        ]
        assert op_lower(1, 2) == 0
        assert min(r.c_h for r in recs) == 0

    def test_tight_instance(self):
        # W = span{z0^2, z1^2} in the 6-dim degree-2 space on P^2: c = 4,
        # bound = 4_<2> = 1, and no hyperplane can push c_h below 1
        W = PolySubspace(3, 2, [mono(3, (2, 0, 0)), mono(3, (0, 2, 0))])
        rng = rng_for(5, "tight")
        recs = [verify_green(W, random_hyperplane(rng, 3)) for _ in range(12)]
        best = min(r.c_h for r in recs)
        assert recs[0].c == 4
        assert recs[0].bound == 1
        assert best == 1

    def test_suite_smoke(self):
        report = green_suite(ns=(2,), ds=(2,), subspaces=8, trials=6, seed=2)
        assert report.ok
        assert report.subspace_count == 8
        assert report.checks == 48

    def test_suite_deterministic(self):
        a = green_suite(ns=(2,), ds=(3,), subspaces=4, trials=5, seed=9)
        b = green_suite(ns=(2,), ds=(3,), subspaces=4, trials=5, seed=9)
        assert a == b
        # each subspace's best record and hyperplane count replay from its
        # stream
        records = [
            [polyspace._green_subspace(rng_for(9, f"green|n2|d3|s{i}"), 2, 3, 5)
             for i in range(4)]
            for _ in range(2)
        ]
        assert records[0] == records[1]

    def test_violations_name_their_subspace(self, monkeypatch):
        # with every bound forced below zero, a subspace whose least c_h
        # over its trials is positive violates after drawing twice its
        # trials, and each violation replays from the stream of the index
        # it carries; one whose least c_h is 0 holds whatever its c, and
        # draws no more
        monkeypatch.setattr(polyspace, "op_lower", lambda c, d: -1)
        report = green_suite(ns=(2,), ds=(2,), subspaces=12, trials=3, seed=7)
        violations, checks = [], 0
        for i in range(12):
            rng = rng_for(7, f"green|n2|d2|s{i}")
            W = random_subspace(rng, 3, 2)
            replay = [verify_green(W, random_hyperplane(rng, 3)) for _ in range(3)]
            if min(r.c_h for r in replay):
                replay += [verify_green(W, random_hyperplane(rng, 3)) for _ in range(3)]
                violations.append((i, replay[0].c, min(r.c_h for r in replay)))
            checks += len(replay)
        assert [(i, rec.c, rec.c_h) for i, rec in report.violations] == violations
        assert [i for i, *_ in violations] == [7, 9, 10]
        assert report.checks == checks == 12 * 3 + 3 * 3

    def test_full_width_skips_the_rank_of_m(self, monkeypatch):
        # M is ranked, once, exactly for a subspace whose least c_h over its
        # trials is positive: every rank taken but the restricted ones
        ranks, restricted = [], []
        int_rows, int_restricted = polyspace._rank_int_rows, polyspace._int_restricted_rank

        def rank_spy(*args):
            ranks.append(args)
            return int_rows(*args)

        def restricted_spy(*args):
            restricted.append(int_restricted(*args))
            return restricted[-1]

        monkeypatch.setattr(polyspace, "_rank_int_rows", rank_spy)
        monkeypatch.setattr(polyspace, "_int_restricted_rank", restricted_spy)
        kinds = set()
        for i in range(12):
            ranks.clear()
            restricted.clear()
            rng = rng_for(7, f"green|n2|d2|s{i}")
            rec, drawn = polyspace._green_subspace(rng, 2, 2, 3)
            least_c_h = math.comb(3, 2) - max(restricted[:3])
            assert len(restricted) == drawn
            assert len(ranks) - drawn == (least_c_h > 0)
            assert (rec is None) == (least_c_h == 0)
            kinds.add(least_c_h > 0)
        assert kinds == {True, False}

    def test_special_hyperplane_is_redrawn(self):
        # the first hyperplane of this subspace is special (c_h = 2 against
        # the bound 1); one more draw from its stream meets the bound
        rng = rng_for(0, "green|n2|d2|s142628")
        rec, drawn = polyspace._green_subspace(rng, 2, 2, 1)
        assert (rec.c, rec.bound, rec.c_h, rec.holds, drawn) == (4, 1, 1, True, 2)
        rng = rng_for(0, "green|n2|d2|s142628")
        W = random_subspace(rng, 3, 2)
        replay = [verify_green(W, random_hyperplane(rng, 3)) for _ in range(2)]
        assert [(r.c_h, r.holds) for r in replay] == [(2, False), (1, True)]


# Hyperplanes drawn per cell of the lex-segment oracle.  A lex segment W is
# strongly stable: with z^e in W and i < j, z^e z_i / z_j is earlier in
# descending lex order, so also in W.  Hence the substitution z_n -> z_n +
# sum_{i<n} a_i z_i maps W onto itself, and it carries the ideal (z_n) onto
# that of any form with a nonzero z_n coefficient: every such hyperplane
# restricts W with the rank of z_n = 0, the general rank, which is the
# number of members z^e with e_n = 0.  Only a form whose z_n coefficient is
# 0 can be special, and a drawn coefficient is 0 with probability below
# 1/19.  The same forms serve every k of a cell, so the best of LEX_DRAWS
# misses the general rank in some cell with probability below
# 16 / 19**LEX_DRAWS < 2e-4.
LEX_DRAWS = 4


class TestLexSegments:
    """Both restriction bounds are equalities on lex segments: W spanned by
    the first k monomials of monomial_basis(n+1, d), for every k in every
    cell with n, d <= 4.  With c = C(n+d, d) - k, a general hyperplane
    restricts W to codimension exactly op_lower(c, d), and to a span of
    dimension exactly op_minus(k - 1, n).  Green proved the first (c_h <=
    c_<d>, attained by lex segments: "Restrictions of linear series to
    hyperplanes", LNM 1389, 1989).  The second, the paper's span bound met
    with equality, is only observed, in these cells.  Unlike the suites,
    which check inequalities and compare the fast kernel with its
    reference, this sees a fault they share, or one in `monomial_basis`,
    `op_lower` or `op_minus`: a rank overstated by one passes every suite
    but not this."""

    @pytest.mark.parametrize("d", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_both_bounds_are_equalities(self, n, d):
        basis = monomial_basis(n + 1, d)
        size, width = len(basis), math.comb(n - 1 + d, d)
        rng = rng_for(0, f"lex|n{n}|d{d}")
        forms = [polyspace._random_form(rng, n + 1) for _ in range(LEX_DRAWS)]
        # each monomial restricted once per hyperplane; W is a prefix
        restricted = [
            [restrict(mono(n + 1, e), Hyperplane(tuple(map(GRat, form)), pivot))
             for e in basis]
            for form, pivot in forms
        ]
        identity = [[int(i == j) for j in range(size)] for i in range(size)]
        for k in range(1, size + 1):
            fast = max(polyspace._int_restricted_rank(identity[:k], form, pivot, d)
                       for form, pivot in forms)
            ref = max(exact_rank(coefficient_rows(polys[:k], n, d)) for polys in restricted)
            expected = (op_lower(size - k, d), op_minus(k - 1, n))
            assert (width - fast, fast - 1) == expected, (n, d, k, "fast")
            assert (width - ref, ref - 1) == expected, (n, d, k, "reference")
            assert fast == sum(not e[-1] for e in basis[:k]), (n, d, k)


class TestRankWork:
    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(1, 2), max_n=st.integers(0, 6), max_degree=st.integers(0, 6),
           ranks=st.integers(1, 50), cap=st.integers(0, 10**7))
    def test_matches_the_sum(self, lo, max_n, max_degree, ranks, cap):
        total = sum(
            ranks * math.comb(n + d, d) ** 3
            for n in range(lo, max_n + 1)
            for d in range(lo, max_degree + 1)
        )
        got = rank_work_upto(lo, max_n, max_degree, ranks, cap)
        assert got == (total if total <= cap else None)


class TestImageSpan:
    def test_veronese(self):
        for n_vars, d in [(2, 2), (3, 2), (3, 3)]:
            comps = veronese_components(n_vars, d)
            assert image_span_dim(comps) == math.comb(n_vars - 1 + d, d) - 1

    def test_dependency(self):
        comps = [
            mono(2, (2, 0)),
            mono(2, (1, 1)),
            mono(2, (0, 2)),
            mono(2, (2, 0)) + mono(2, (0, 2)),
        ]
        assert image_span_dim(comps) == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            image_span_dim([Poly(2, 2, {})])
        with pytest.raises(ValueError):
            image_span_dim([])

    def test_member_shape_checked(self):
        with pytest.raises(ValueError):
            image_span_dim([mono(3, (2, 0, 0)), mono(2, (2, 0))])
        with pytest.raises(ValueError):
            image_span_dim([mono(3, (2, 0, 0)), mono(3, (1, 0, 0))])
        with pytest.raises(ValueError):
            image_span_dim([Poly(2, 2, {}), mono(2, (1, 0))])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_support_columns_match_dense_reference(self, data):
        nv = data.draw(st.integers(1, 6), label="n_vars")
        d = data.draw(st.integers(0, 4), label="degree")
        basis = monomial_basis(nv, d)
        gaussian = data.draw(st.booleans(), label="gaussian")

        def coeff(c):
            return c if gaussian else GRat(c.re)

        comps = [
            Poly(nv, d, {basis[i % len(basis)]: coeff(c) for i, c in terms})
            for terms in data.draw(members_st, label="members")
        ]
        if data.draw(st.booleans(), label="planted dependency"):
            comps.append(comps[0] - comps[-1] * coeff(data.draw(grat_st)))
        dense = coefficient_rows(comps, nv, d)
        # support_rows keeps exactly the nonzero columns, in basis order
        keep = [j for j in range(len(basis)) if any(row[j] for row in dense)]
        assert support_rows(comps) == [[row[j] for j in keep] for row in dense]
        if all(p.is_zero for p in comps):
            with pytest.raises(ValueError):
                image_span_dim(comps)
            return
        assert image_span_dim(comps) == exact_rank(dense) - 1

    def test_never_builds_the_monomial_basis(self, monkeypatch):
        def boom(*args):
            raise AssertionError("monomial_basis called")

        comps = [
            mono(40, (3,) + (0,) * 39),
            mono(40, (0,) * 39 + (3,), GRat(0, 1)),
            mono(40, (3,) + (0,) * 39) + mono(40, (1, 1) + (0,) * 37 + (1,)),
        ]
        monkeypatch.setattr(polyspace, "monomial_basis", boom)
        assert image_span_dim(comps) == 2
        assert image_span_dim(comps[:1]) == 0


class TestRestrictionTheorem:
    def test_veronese_equality(self):
        rec = verify_restriction_theorem(veronese_components(3, 2), trials=6, seed=1)
        assert rec.N == 5
        assert rec.bound == 2
        assert rec.holds
        assert set(rec.dims) == {2}

    def test_linear_embedding(self):
        comps = veronese_components(3, 1)
        rec = verify_restriction_theorem(comps, trials=5, seed=4)
        assert rec.N == 2 and rec.bound == 1
        assert rec.max_dim == 1 and rec.holds

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            verify_restriction_theorem(veronese_components(3, 1), trials=0)

    def test_veronese_suite_smoke(self):
        report = veronese_suite(max_n=3, max_degree=3, trials=2, seed=0)
        assert report.ok
        assert report.checks == 18


class TestSeeding:
    def test_substreams_stable(self):
        assert rng_for(7, "x").random() == rng_for(7, "x").random()
        assert rng_for(7, "x").random() != rng_for(7, "y").random()

    def test_hyperplane_sampler_never_zero(self):
        rng = rng_for(0, "h")
        for _ in range(200):
            H = random_hyperplane(rng, 3)
            assert any(H.coeffs)
            assert H.coeffs[H.pivot]
