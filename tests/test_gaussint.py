"""The Gaussian-integer kernel against its GRat references.

- the row-by-row integer rank `_rank_int_rows` against the column-oriented
  reference `rank_int_rows`, on rows and on their transpose;
- the Gaussian rank `_rank_gauss_int` against half the rank of the
  realified integer rows, `rank_gauss_int`;
- `span_rank` on sparse cleared rows against `exact_rank` of the dense
  coefficient rows;
- packed monomial keys against exponent tuples: round trip, order, and the
  guard-bit divisibility test against a componentwise >=, on one-byte and
  two-byte fields;
- the pairing built on pairs and packed keys, over its L, and its `Poly`
  view `pairing_poly`, against the GRat pairing `grat_pairing`;
- the zero test at a rational point scaled to Gaussian-integer pairs
  against `Poly.evaluate`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from macgap import hermitian
from macgap.gaussint import (
    Packing,
    _rank_gauss_int,
    _rank_int_rows,
    clear,
    span_rank,
    vanishes_at,
)
from macgap.hermitian import Signature, SignedMap, pairing_poly
from macgap.polyspace import (
    GRat,
    Poly,
    coefficient_rows,
    exact_rank,
    image_span_dim,
    monomial_basis,
)
from reference_table import grat_pairing, rank_gauss_int, rank_int_rows, support_rows

small = st.integers(-4, 4)
frac_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def grat_st(real):
    return st.builds(GRat, frac_st, st.just(0) if real else frac_st)


def dense_rank(rows, columns):
    """exact_rank of sparse pair rows laid out densely over `columns`."""
    return exact_rank([[GRat(*row.get(c, (0, 0))) for c in columns] for row in rows])


@st.composite
def sparse_rows_st(draw):
    """Rows over up to 8 columns: sparse or dense, real or Gaussian, with
    explicit zero entries, all-zero rows and planted dependencies."""
    ncols = draw(st.integers(1, 8), label="columns")
    real = draw(st.booleans(), label="real")
    density = draw(st.sampled_from([0.2, 0.5, 1.0]), label="density")
    entry = st.tuples(small, st.just(0) if real else small)
    rows = []
    for _ in range(draw(st.integers(1, 7), label="rows")):
        row = {}
        for c in range(ncols):
            if draw(st.floats(0, 1)) < density:
                row[c] = draw(entry)
        rows.append(row)
    # a planted dependency: an integer combination of two rows
    for _ in range(draw(st.integers(0, 2), label="dependencies")):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        u, v = draw(small), draw(small)
        row = {}
        for c in set(rows[i]) | set(rows[j]):
            (a, b), (x, y) = rows[i].get(c, (0, 0)), rows[j].get(c, (0, 0))
            row[c] = (u * a + v * x, u * b + v * y)
        rows.insert(draw(st.integers(0, len(rows))), row)
    return ncols, rows


@st.composite
def int_rows_st(draw):
    """Integer rows over up to 12 columns, up to four more rows than
    columns: small entries, or entries up to 10**12 in size, where an
    inexact division would show; sparse or dense, with all-zero rows and
    planted dependencies."""
    ncols = draw(st.integers(1, 12), label="columns")
    bound = draw(st.sampled_from([4, 10**12]), label="bound")
    entry = st.integers(-bound, bound)
    if draw(st.booleans(), label="sparse"):
        entry = st.just(0) | entry
    row_st = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row_st, max_size=ncols + 4), label="rows")
    # a planted dependency: an integer combination of two rows
    for _ in range(draw(st.integers(0, 3), label="dependencies") if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        u, v = draw(small), draw(small)
        rows.insert(draw(st.integers(0, len(rows))),
                    [u * a + v * b for a, b in zip(rows[i], rows[j])])
    return ncols, rows


class TestRankIntRows:
    @settings(max_examples=300, deadline=None)
    @given(int_rows_st())
    def test_matches_rank_int(self, case):
        ncols, rows = case
        before = [row[:] for row in rows]
        drawn = []
        rank = _rank_int_rows((drawn.append(row) or row for row in rows), ncols)
        # the rows are not modified, so one M serves its own rank and
        # every restricted rank
        assert rows == before
        assert rank == rank_int_rows(rows, ncols)
        # the transpose has the same rank
        assert _rank_int_rows(zip(*rows), len(rows)) == rank
        if rank == ncols:
            # the rows past the one that reached the width are never drawn
            assert rank_int_rows(drawn[:-1], ncols) < ncols

    def test_edge_cases(self):
        # the third row has a zero in the first pivot column; scaled by that
        # pivot anyway it stays exact and independent, left as it is the
        # division by -3 floors it to zero
        rows = [[0, 0, 0, -3], [0, -2, -1, 0], [0, -1, 0, 0]]
        assert _rank_int_rows(rows, 4) == rank_int_rows(rows, 4) == 3
        assert _rank_int_rows([], 3) == 0
        # the transpose of no rows, as green ranks an empty M
        assert _rank_int_rows(zip(*[]), 0) == 0
        assert _rank_int_rows([[0, 0], [0, 0]], 2) == 0

        def identity_then_refuse():
            yield from ([int(i == j) for j in range(3)] for i in range(3))
            raise AssertionError("a row past the width was drawn")

        assert _rank_int_rows(identity_then_refuse(), 3) == 3


@st.composite
def gauss_rows_st(draw):
    """Gaussian-integer pair rows over up to 7 columns: a product A B of
    drawn inner size, so often of low rank, with rows that are i times
    another row, all-imaginary rows and zero rows put in."""
    ncols = draw(st.integers(1, 7), label="columns")
    inner = draw(st.integers(1, 7), label="inner")
    entry = st.tuples(small, small)
    A = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=1, max_size=7))
    B = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=inner, max_size=inner))
    rows = [[(sum(a * c - b * d for (a, b), (c, d) in zip(arow, col)),
              sum(a * d + b * c for (a, b), (c, d) in zip(arow, col)))
             for col in zip(*B)] for arow in A]
    for _ in range(draw(st.integers(0, 3), label="special rows")):
        kind = draw(st.sampled_from(["times i", "imaginary", "zero"]))
        if kind == "times i":
            row = [(-b, a) for a, b in rows[draw(st.integers(0, len(rows) - 1))]]
        elif kind == "imaginary":
            row = [(0, draw(small)) for _ in range(ncols)]
        else:
            row = [(0, 0)] * ncols
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


class TestRankGaussInt:
    @settings(max_examples=300, deadline=None)
    @given(gauss_rows_st())
    def test_matches_realified_rank(self, rows):
        before = [row[:] for row in rows]
        want = rank_gauss_int(rows)
        assert rows == before
        # the kernel reorders and overwrites its rows, so it gets a copy
        assert _rank_gauss_int([row[:] for row in rows]) == want
        assert want <= min(len(rows), len(rows[0]))


class TestSpanRank:
    @settings(max_examples=300, deadline=None)
    @given(sparse_rows_st())
    def test_matches_dense_rank(self, case):
        ncols, rows = case
        before = [dict(row) for row in rows]
        assert span_rank(rows) == dense_rank(rows, range(ncols))
        assert rows == before

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.booleans(), st.booleans(), st.data())
    def test_singleton_chains(self, length, by_rows, closed, data):
        # by_rows: row i holds columns i-1 and i, so the first row is a
        # singleton row and peeling it makes the next one a singleton;
        # otherwise row i holds columns i and i+1, so the last column is a
        # singleton column and peeling its row frees the one before.  A
        # closing row on the two chain ends leaves a core, a cycle.
        entry = st.tuples(st.integers(1, 4), st.integers(-2, 2))
        rows = []
        for i in range(length):
            cols = (i - 1, i) if by_rows else (i, i + 1)
            rows.append({c: data.draw(entry) for c in cols if c >= 0})
        if closed:
            ends = (0, length - 1) if by_rows else (0, length)
            rows.append({c: data.draw(entry) for c in ends})
        columns = range(-1, length + 1)
        assert span_rank(rows) == dense_rank(rows, columns)

    def test_edge_cases(self):
        assert span_rank([]) == 0
        assert span_rank([{}, {3: (0, 0)}]) == 0
        assert span_rank([{"x": (2, -1)}]) == 1
        assert span_rank([{0: (1, 0), 1: (1, 0)}, {0: (2, 0), 1: (2, 0)}]) == 1
        # two rows on one column: rank 1, not 2
        assert span_rank([{0: (1, 0)}, {0: (0, 3)}]) == 1
        assert span_rank([{0: (1, 0), 1: (1, 0)}, {0: (1, 0), 1: (0, 1)}]) == 2

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.booleans(), st.data())
    def test_image_span_matches_reference(self, nv_minus, d, real, data):
        # whole polynomials, with zero members and planted combinations
        nv = nv_minus + 1
        basis = monomial_basis(nv, d)
        coeff = grat_st(real)
        polys = [
            Poly(nv, d, dict(data.draw(st.lists(st.tuples(st.sampled_from(basis), coeff),
                                                max_size=len(basis)))))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        for _ in range(data.draw(st.integers(0, 2))):
            a, b = data.draw(st.sampled_from(polys)), data.draw(st.sampled_from(polys))
            polys.append(a * data.draw(coeff) + b * data.draw(coeff))
        rows = [clear(p.coeffs)[1] for p in polys]
        assert span_rank(rows) == exact_rank(coefficient_rows(polys, nv, d))
        if any(not p.is_zero for p in polys):
            assert image_span_dim(polys) == exact_rank(support_rows(polys)) - 1


@st.composite
def signed_map_st(draw):
    """Small maps of degree 0 to 2 with rational Gaussian coefficients
    whose components have different denominators, zero components, and
    null weights on both sides."""
    r, s, t = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    source = Signature(r, s, t)
    target = Signature(draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                       draw(st.integers(0, 1)))
    d = draw(st.integers(0, 2))
    basis = monomial_basis(source.n_vars, d)
    comps = [
        Poly(source.n_vars, d,
             dict(draw(st.lists(st.tuples(st.sampled_from(basis), grat_st(False)),
                                max_size=3))))
        for _ in range(target.n_vars)
    ]
    return SignedMap(source, target, d, comps)


@st.composite
def exponent_pair_st(draw):
    """(packing, a, b): two exponent vectors of one length with entries at
    most the packing's degree, b often close to a, so that both outcomes of
    the componentwise comparison are drawn."""
    degree = draw(st.sampled_from([0, 1, 3, 127, 128, 300, 40000]), label="degree")
    n = draw(st.integers(1, 8), label="n")
    entry = st.integers(0, degree)
    a = draw(st.lists(entry, min_size=n, max_size=n))
    if draw(st.booleans()):
        b = [max(0, min(degree, x - draw(st.integers(-1, 2)))) for x in a]
    else:
        b = draw(st.lists(entry, min_size=n, max_size=n))
    return Packing(n, degree), tuple(a), tuple(b)


class TestPacking:
    def test_field_widths(self):
        # one guard bit on top of the degree, in whole bytes
        assert [Packing(3, d).nb for d in (0, 3, 127, 128, 32767, 32768)] == [1, 1, 1, 2, 2, 3]
        assert Packing(2, 3).guard == 0x8080
        assert Packing(2, 200).guard == 0x80008000

    @settings(max_examples=300, deadline=None)
    @given(exponent_pair_st())
    def test_keys_match_tuples(self, case):
        keys, a, b = case
        ka, kb = keys.pack(a), keys.pack(b)
        assert keys.unpack(ka) == a and keys.unpack(kb) == b
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
        # lt(b) divides lt(a) iff a >= b in every entry
        assert (not (ka - kb) & keys.guard) == all(x >= y for x, y in zip(a, b))
        if not (ka - kb) & keys.guard:
            assert keys.unpack(ka - kb) == tuple(x - y for x, y in zip(a, b))
        # a product of monomials is the sum of their keys
        wide = Packing(keys.n, max(a) + max(b))
        assert wide.unpack(wide.pack(a) + wide.pack(b)) == tuple(x + y for x, y in zip(a, b))

    def test_degree_128_map_uses_two_byte_fields(self):
        # z0^128 is the first degree with two-byte fields; P = |z0^128|^2
        # pairs to the exponent 128 in a field of its own
        f = SignedMap(Signature(1, 1), Signature(1, 1), 128, [
            Poly(2, 128, {(128, 0): GRat(1)}), Poly(2, 128, {(0, 128): GRat(1)}),
        ])
        keys = Packing(4, 128)
        L, pairs = hermitian._pairing_pairs(f, keys)
        assert {keys.unpack(e): c for e, c in pairs.items()} == clear(grat_pairing(f).coeffs)[1]
        assert keys.nb == 2 and max(pairs) == 128 << 48 | 128 << 16


class TestPairing:
    @settings(max_examples=80, deadline=None)
    @given(signed_map_st())
    def test_matches_pairing_poly(self, f):
        P = grat_pairing(f)
        keys = Packing(2 * f.source.n_vars, f.degree)
        L, pairs = hermitian._pairing_pairs(f, keys)
        assert L >= 1
        unpacked = {keys.unpack(e): c for e, c in pairs.items()}
        assert hermitian._from_pairs(P.n_vars, P.degree, unpacked, L) == P
        assert (0, 0) not in pairs.values()
        assert pairing_poly(f) == P

    def test_denominators_squared(self):
        # (1/2) z0 and (1/3) z1, both positive: P = z0 w~0 / 4 + z1 w~1 / 9
        f = SignedMap(Signature(2, 0), Signature(2, 0), 1, [
            Poly(2, 1, {(1, 0): GRat("1/2")}),
            Poly(2, 1, {(0, 1): GRat("1/3")}),
        ])
        keys = Packing(4, 1)
        assert hermitian._pairing_pairs(f, keys) == (36, {keys.pack((1, 0, 1, 0)): (9, 0),
                                                          keys.pack((0, 1, 0, 1)): (4, 0)})


class TestZeroTest:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.booleans(), st.data())
    def test_matches_poly_evaluate(self, nv, d, on_zero, data):
        basis = monomial_basis(nv, d)
        p = Poly(nv, d, dict(data.draw(st.lists(
            st.tuples(st.sampled_from(basis), grat_st(False)), max_size=5))))
        # P = p * (x0 - x1) vanishes wherever x0 = x1
        e0 = tuple(1 if i == 0 else 0 for i in range(nv))
        e1 = tuple(1 if i == 1 else 0 for i in range(nv))
        P = p * Poly(nv, 1, {e0: GRat(1), e1: GRat(-1)})
        point = data.draw(st.lists(grat_st(False), min_size=nv, max_size=nv))
        if on_zero:
            point[1] = point[0]
        want = not P.evaluate(point)
        # the point scaled to Gaussian-integer pairs by its common
        # denominator D: P(D x) = D^deg P(x), so the zero test stays exact
        assert vanishes_at(clear(P.coeffs)[1], clear(point)[1]) == want
        if on_zero:
            assert want
