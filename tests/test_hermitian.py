import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgap import hermitian, polyspace
from macgap.binom_core import op_minus
from macgap.gaussint import Packing, clear
from macgap.hermitian import (
    MapFormatError,
    ObstructionRecord,
    Signature,
    SignedMap,
    format_map,
    null_prolongation,
    orthogonality_certificate,
    pairing_poly,
    parse_map,
    sharpness_map,
    sharpness_quotient,
    sharpness_suite,
    span_obstruction_check,
)
from macgap.polyspace import (
    GRat,
    Poly,
    image_span_dim,
    mono,
    monomial_basis,
    rng_for,
    verify_restriction_theorem,
)
import reference_table
from reference_table import (
    _divide_exact_ref,
    _pseudo_remainder_ref,
    _rand_grat,
    _solve_chart,
    _witness_search_ref,
    embed,
    grat_pairing,
    source_form_poly,
)
from test_bench_smoke import load_workloads


def g(*vals):
    return [GRat(v) for v in vals]


def inner_product(z, w, sig):
    """Sum eps_i * z_i * conj(w_i); the last t coordinates are ignored."""
    if len(z) != sig.n_vars or len(w) != sig.n_vars:
        raise ValueError("coordinate length does not match signature")
    total = GRat()
    for i in range(sig.r + sig.s):
        term = z[i] * w[i].conjugate()
        total = total + term if sig.eps(i) == 1 else total - term
    return total


def classify_point(z, sig):
    if not any(z):
        raise ValueError("zero vector is not a projective point")
    norm = inner_product(z, z, sig)
    if norm.im:
        raise RuntimeError(f"Hermitian norm {norm} of a point is not real")
    if norm.re > 0:
        return "positive"
    if norm.re < 0:
        return "negative"
    return "null"


def identity_map(sig):
    comps = [mono(sig.n_vars, tuple(int(j == i) for j in range(sig.n_vars)))
             for i in range(sig.n_vars)]
    return SignedMap(sig, sig, 1, comps)


def sample_orthogonal_pair(sig, rng):
    """Exact pair with <z, w> = 0, via the solved chart of the witness
    search's reference."""
    if sig.r + sig.s < 1:
        raise ValueError("no non-null coordinates to solve against")
    nv = sig.n_vars
    while True:
        z = [_rand_grat(rng) for _ in range(nv)]
        pivot = next((i for i in range(sig.r + sig.s) if z[i]), None)
        if pivot is not None:
            break
    wt = [_rand_grat(rng) for _ in range(nv)]
    _solve_chart(sig, z, wt, pivot)
    return tuple(z), tuple(c.conjugate() for c in wt)


class TestSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signature(0, 0, 0)
        with pytest.raises(ValueError):
            Signature(-1, 2)
        assert Signature(1, 1).n_vars == 2

    def test_eps(self):
        sig = Signature(2, 1, 1)
        assert [sig.eps(i) for i in range(4)] == [1, 1, -1, 0]


class TestInnerProduct:
    def test_null_self_pairing(self):
        sig = Signature(1, 1)
        assert inner_product(g(1, 1), g(1, 1), sig) == GRat()

    def test_orthogonal_axes(self):
        assert inner_product(g(1, 0), g(0, 1), Signature(1, 1)) == GRat()

    def test_three_vars(self):
        sig = Signature(1, 2)
        assert inner_product(g(2, 1, 1), g(1, 1, 1), sig) == GRat()

    def test_null_coords_ignored(self):
        sig = Signature(1, 1, 1)
        assert inner_product(g(1, 0, 5), g(1, 0, -7), sig) == GRat(1)

    def test_conjugation_applied(self):
        sig = Signature(2, 0)
        i = GRat(0, 1)
        assert inner_product([i, GRat()], [i, GRat()], sig) == GRat(1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(g(1), g(1, 0), Signature(1, 1))

    def test_hermitian_symmetry(self):
        rng = rng_for(3, "sym")
        sig = Signature(2, 1, 1)
        for _ in range(40):
            z = [GRat(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
            w = [GRat(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
            assert inner_product(z, w, sig) == inner_product(w, z, sig).conjugate()


class TestClassifyPoint:
    def test_examples(self):
        assert classify_point(g(1, 0), Signature(1, 1)) == "positive"
        assert classify_point(g(1, 1), Signature(1, 1)) == "null"
        assert classify_point(g(1, 1, 1, 2), Signature(2, 2)) == "negative"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_point(g(0, 0), Signature(1, 1))

    def test_non_real_norm_raises(self, monkeypatch):
        monkeypatch.setitem(globals(), "inner_product", lambda z, w, sig: GRat(1, 1))
        with pytest.raises(RuntimeError):
            classify_point(g(1, 0), Signature(1, 1))


class TestPairingPolys:
    def test_identity_pairing_is_source_form(self):
        f = identity_map(Signature(1, 1))
        assert pairing_poly(f) == source_form_poly(Signature(1, 1))

    def test_source_form_skips_null(self):
        q = source_form_poly(Signature(1, 1, 1))
        assert q.n_vars == 6
        assert len(q.coeffs) == 2

    @pytest.mark.parametrize("sig", [(1, 1), (2, 1, 1), (1, 3), (3, 0, 2), (2, 2, 3)])
    def test_source_form_pairs_match_reference(self, sig):
        sig = Signature(*sig)
        for degree in (1, 3, 200):
            keys = Packing(2 * sig.n_vars, degree)
            pairs = hermitian._source_form_pairs(sig, keys)
            assert ({keys.unpack(e): c for e, c in pairs.items()}
                    == clear(source_form_poly(sig).coeffs)[1])

    def test_conjugation_in_second_block(self):
        i = GRat(0, 1)
        f = SignedMap(
            Signature(1, 1), Signature(1, 1), 1,
            [mono(2, (1, 0), i), mono(2, (0, 1))],
        )
        p = pairing_poly(f)
        # i * conj(i) = 1 on the positive component
        assert p.coeffs[(1, 0, 1, 0)] == GRat(1)


class TestCertificate:
    def test_identity(self):
        cert = orthogonality_certificate(identity_map(Signature(1, 1)))
        assert cert.verdict
        assert cert.quotient == mono(4, (0, 0, 0, 0))

    def test_squares_map(self):
        f = SignedMap(
            Signature(1, 1), Signature(1, 1), 2,
            [mono(2, (2, 0)), mono(2, (0, 2))],
        )
        cert = orthogonality_certificate(f)
        assert cert.verdict
        # z0²w̃0² − z1²w̃1² = (z0w̃0 − z1w̃1)(z0w̃0 + z1w̃1)
        want = Poly(4, 2, {(1, 0, 1, 0): GRat(1), (0, 1, 0, 1): GRat(1)})
        assert cert.quotient == want

    def test_monomial_factor_quotient(self):
        f = SignedMap(
            Signature(1, 1), Signature(1, 1), 2,
            [mono(2, (2, 0)), mono(2, (1, 1))],
        )
        cert = orthogonality_certificate(f)
        assert cert.verdict
        assert cert.quotient == mono(4, (1, 0, 1, 0))

    def test_quotient_multiplies_back(self):
        for k, n in [(1, 2), (2, 3), (2, 5)]:
            f = sharpness_map(k, n)
            cert = orthogonality_certificate(f)
            assert cert.verdict
            assert source_form_poly(f.source) * cert.quotient == grat_pairing(f)

    def test_refuted_map_carries_witness(self):
        f = SignedMap(
            Signature(1, 1), Signature(2, 0), 1,
            [mono(2, (1, 0)), mono(2, (0, 1))],
        )
        cert = orthogonality_certificate(f)
        assert not cert.verdict
        assert cert.quotient is None
        z, w = cert.witness
        assert inner_product(z, w, f.source) == GRat()
        assert inner_product(f.evaluate(z), f.evaluate(w), f.target) != GRat()

    def test_pivot_invariance(self):
        maps = [
            identity_map(Signature(2, 1)),
            sharpness_map(2, 3),
            SignedMap(
                Signature(1, 1), Signature(2, 0), 1,
                [mono(2, (1, 0)), mono(2, (0, 1))],
            ),
        ]
        for f in maps:
            certs = [orthogonality_certificate(f, pivot=p)
                     for p in range(f.source.r + f.source.s)]
            assert len({cert.verdict for cert in certs}) == 1
            for cert in certs:
                if cert.verdict:
                    continue
                # the pivot picks the chart of the witness search only
                z, w = cert.witness
                assert inner_product(z, w, f.source) == GRat()
                assert inner_product(f.evaluate(z), f.evaluate(w), f.target) != GRat()

    def test_pivot_validation(self):
        f = identity_map(Signature(1, 1))
        with pytest.raises(ValueError):
            orthogonality_certificate(f, pivot=2)

    def test_degenerate_source_rejected(self):
        sig = Signature(1, 0, 1)
        f = SignedMap(sig, Signature(1, 0, 1), 1, identity_map(sig).components)
        with pytest.raises(ValueError):
            orthogonality_certificate(f)

    def test_null_source_coordinate(self):
        sig = Signature(1, 1, 1)
        f = identity_map(sig)
        f = SignedMap(sig, Signature(1, 1, 1), 1, f.components)
        assert orthogonality_certificate(f).verdict

    def test_constant_maps(self):
        # P = |1|^2 - |1|^2 = 0 has no quotient of degree -2; P = 2 is refused
        one = Poly(2, 0, {(0, 0): GRat(1)})
        cert = orthogonality_certificate(
            SignedMap(Signature(1, 1), Signature(1, 1), 0, [one, one])
        )
        assert cert.verdict and cert.quotient is None
        f = SignedMap(Signature(1, 1), Signature(2, 0), 0, [one, one])
        cert = orthogonality_certificate(f)
        assert not cert.verdict
        z, w = cert.witness
        assert inner_product(z, w, f.source) == GRat()

    def test_soundness_on_sampled_pairs(self):
        f = sharpness_map(2, 3)
        assert orthogonality_certificate(f).verdict
        rng = rng_for(17, "soundness")
        for _ in range(200):
            z, w = sample_orthogonal_pair(f.source, rng)
            assert inner_product(z, w, f.source) == GRat()
            assert inner_product(f.evaluate(z), f.evaluate(w), f.target) == GRat()


@st.composite
def disguised_sharpness_st(draw):
    """sharpness_map(k, n) under (3/5, 4/5) rotations within a target block
    and unit phases, which keep the pairing polynomial; optionally with
    z_q^3 (q >= k) added to one component, which breaks orthogonality."""
    k = draw(st.integers(1, 2), label="k")
    n = draw(st.integers(k + 1, 6), label="n")
    f = sharpness_map(k, n)
    comps = list(f.components)
    blocks = [range(f.target.r), range(f.target.r, f.target.n_vars)]
    c, s = GRat(Fraction(3, 5)), GRat(Fraction(4, 5))
    for _ in range(draw(st.integers(0, 3), label="rotations")):
        block = draw(st.sampled_from([b for b in blocks if len(b) >= 2]))
        a, b = draw(st.lists(st.sampled_from(block), min_size=2, max_size=2,
                             unique=True))
        comps[a], comps[b] = comps[a] * c - comps[b] * s, comps[a] * s + comps[b] * c
    units = [GRat(1), GRat(-1), GRat(0, 1), GRat(0, -1)]
    comps = [p * draw(st.sampled_from(units)) for p in comps]
    perturbed = draw(st.booleans(), label="perturbed")
    if perturbed:
        q = draw(st.integers(k, n))
        j = draw(st.integers(0, len(comps) - 1))
        comps[j] = comps[j] + mono(n + 1, tuple(3 if i == q else 0
                                                for i in range(n + 1)))
    pivot = draw(st.integers(0, n), label="pivot")
    return SignedMap(f.source, f.target, 3, comps), perturbed, pivot


def _keys(f):
    """The packing of the certificate of f."""
    return Packing(2 * f.source.n_vars, f.degree)


def _tuple_pairing(f):
    """P of `_pairing_pairs` keyed by exponent tuples, as the witness
    searches read it."""
    keys = _keys(f)
    return {keys.unpack(e): c for e, c in hermitian._pairing_pairs(f, keys)[1].items()}


class TestIntegerPairCertificate:
    @settings(max_examples=60, deadline=None)
    @given(disguised_sharpness_st())
    def test_matches_grat_reference(self, case):
        f, perturbed, pivot = case
        P = grat_pairing(f)
        ref = _pseudo_remainder_ref(P, f.source, pivot)
        assert ref.is_zero == (not perturbed)
        # the division's verdict is the pseudo-remainder's in every chart
        cert = orthogonality_certificate(f, pivot=pivot)
        assert cert.verdict == ref.is_zero
        if cert.verdict:
            Q = source_form_poly(f.source)
            assert cert.quotient == _divide_exact_ref(P, Q)
            assert cert.quotient == sharpness_quotient(f.source.r, f.source.n_vars - 1)
        else:
            z, w = cert.witness
            assert inner_product(z, w, f.source) == GRat()
            assert inner_product(f.evaluate(z), f.evaluate(w), f.target) != GRat()
            P = _tuple_pairing(f)
            assert cert.witness == _witness_search_ref(f, P, pivot)

    def test_witness_with_a_null_source_coordinate(self):
        # z3 is null: the chart sum skips it, and only the pivot is solved
        sig = Signature(1, 2, 1)
        f = SignedMap(sig, Signature(2, 0, 1), 1, [
            mono(4, (1, 0, 0, 0)), mono(4, (0, 1, 0, 0)), mono(4, (0, 0, 0, 1)),
        ])
        P = _tuple_pairing(f)
        for pivot in range(3):
            cert = orthogonality_certificate(f, pivot=pivot)
            assert not cert.verdict
            assert cert.witness == _witness_search_ref(f, P, pivot)
            z, w = cert.witness
            assert inner_product(z, w, sig) == GRat()
            assert inner_product(f.evaluate(z), f.evaluate(w), f.target) != GRat()

    def test_witness_search_stays_on_integers(self, monkeypatch):
        # the search builds no GRat or Fraction, and every candidate reaches
        # the zero test as Gaussian-integer pairs; the certificate builds
        # the 12 GRats of the witness only when `witness` is read, and its
        # text reads the integers
        events = []
        zero_test = hermitian.vanishes_at

        def spy(P, point):
            assert all(type(a) is int and type(b) is int for a, b in point)
            events.append("test")
            return zero_test(P, point)

        def recorder(name, make):
            def build(*args):
                events.append(name)
                return make(*args)
            return build

        monkeypatch.setattr(hermitian, "vanishes_at", spy)
        monkeypatch.setattr(hermitian, "GRat", recorder("GRat", GRat))
        monkeypatch.setattr(hermitian, "Fraction", recorder("Fraction", Fraction))
        f = sharpness_map(2, 5)
        comps = f.components
        comps[0] = comps[0] + mono(6, (0, 0, 0, 3, 0, 0))
        f = SignedMap(f.source, f.target, 3, comps)
        P = _tuple_pairing(f)
        for pivot in range(6):
            events.clear()
            cert = hermitian.OrthCertificate(
                False, witness_pairs=hermitian._witness_search(f, P, pivot))
            assert set(events) == {"test"}
            text = cert.witness_text()
            assert set(events) == {"test"}
            witness = cert.witness
            assert events.count("GRat") == 12
            assert witness == _witness_search_ref(f, P, pivot)
            assert text == tuple(" ".join(map(polyspace.format_grat, p)) for p in witness)

    def test_rational_coefficients_cleared(self):
        # P = (1/4)(z0^2 w~0^2 - z1^2 w~1^2) = Q * (1/4)(z0 w~0 + z1 w~1)
        f = SignedMap(
            Signature(1, 1), Signature(1, 1), 2,
            [mono(2, (2, 0), GRat(Fraction(1, 2))),
             mono(2, (0, 2), GRat(Fraction(1, 2)))],
        )
        cert = orthogonality_certificate(f)
        P = grat_pairing(f)
        Q = source_form_poly(f.source)
        assert clear(P.coeffs)[0] == hermitian._pairing_pairs(f, _keys(f))[0] == 4
        assert cert.quotient == _divide_exact_ref(P, Q)
        want = Poly(4, 2, {(1, 0, 1, 0): GRat(Fraction(1, 4)),
                           (0, 1, 0, 1): GRat(Fraction(1, 4))})
        assert cert.quotient == want

    def test_divide_exact_checks(self):
        keys = Packing(2, 3)
        k = keys.pack
        with pytest.raises(ValueError):
            hermitian._divide_exact({k((2, 2)): (4, 0)}, {k((1, 1)): (2, 0)}, keys)
        with pytest.raises(ArithmeticError):
            hermitian._divide_exact({k((2, 0)): (1, 0)}, {k((1, 1)): (1, 0)}, keys)
        assert hermitian._divide_exact({k((2, 1)): (3, -2)}, {k((1, 1)): (-1, 0)}, keys) == {
            k((1, 0)): (-3, 2)
        }

    def test_check_quotient_refuses_a_key_off_the_packing(self):
        keys = Packing(2, 2)
        k = keys.pack
        # z0^2 - z0 z1 = z0 (z0 - z1)
        P, Q = {k((2, 0)): (1, 0), k((1, 1)): (-1, 0)}, {k((1, 0)): (1, 0), k((0, 1)): (-1, 0)}
        hermitian._check_quotient(P, Q, {k((1, 0)): (1, 0)}, keys)
        with pytest.raises(RuntimeError):
            hermitian._check_quotient(P, Q, {k((1, 0)): (2, 0)}, keys)
        # z0 = (z0 / z1) z1 on keys alone: the key of z0 / z1 borrows across
        # fields, and its product with z1 is the key of z0, but it is no
        # monomial
        odd = k((1, 0)) - k((0, 1))
        assert odd & keys.guard and odd + k((0, 1)) == k((1, 0))
        with pytest.raises(RuntimeError):
            hermitian._check_quotient({k((1, 0)): (1, 0)}, {k((0, 1)): (1, 0)}, {odd: (1, 0)},
                                      keys)


@st.composite
def source_multiple_st(draw):
    """(sig, P, pivot): P = Q g for the source form Q of sig and a drawn g
    of bidegree (d-1, d-1) with Gaussian-integer coefficients, plus, half
    the time, drawn terms of bidegree (d, d), which mostly break Q | P.
    Degree 129 takes two-byte fields, on two source coordinates.  Two
    non-null coordinates or more make Q irreducible, so that the
    pseudo-remainder decides Q | P, as the certificate requires."""
    d = draw(st.sampled_from([1, 2, 3, 129]), label="d")
    if d == 129:
        sig = draw(st.sampled_from([Signature(1, 1), Signature(2, 0)]))
    else:
        r = draw(st.integers(1, 3))
        sig = Signature(r, draw(st.integers(max(0, 2 - r), 2)), draw(st.integers(0, 1)))
    nv = sig.n_vars
    unit = st.builds(GRat, st.integers(-3, 3), st.integers(-3, 3))

    def terms(deg, min_size, max_size):
        basis = st.sampled_from(monomial_basis(nv, deg))
        drawn = draw(st.lists(st.tuples(basis, basis, unit), min_size=min_size,
                              max_size=max_size))
        return Poly(2 * nv, 2 * deg, {a + b: c for a, b, c in drawn})

    P = source_form_poly(sig) * terms(d - 1, 0, 4)
    if draw(st.booleans(), label="perturbed"):
        P = P + terms(d, 1, 2)
    return sig, P, draw(st.integers(0, sig.r + sig.s - 1), label="pivot")


class TestPackedDivision:
    @settings(max_examples=120, deadline=None)
    @given(source_multiple_st())
    def test_matches_references(self, case):
        sig, P, pivot = case
        Q = source_form_poly(sig)
        keys = Packing(2 * sig.n_vars, P.degree // 2)
        L, pairs = clear(P.coeffs)
        assert L == 1
        Pk = {keys.pack(e): c for e, c in pairs.items()}
        Qk = hermitian._source_form_pairs(sig, keys)
        divisible = P.is_zero or _pseudo_remainder_ref(P, sig, pivot).is_zero
        if not divisible:
            with pytest.raises(ArithmeticError):
                hermitian._divide_exact(Pk, Qk, keys)
            with pytest.raises(ArithmeticError):
                _divide_exact_ref(P, Q)
            return
        quo = hermitian._divide_exact(Pk, Qk, keys)
        # Q has leading coefficient +-1, so the quotient stays integral
        L, ref = clear(_divide_exact_ref(P, Q).coeffs)
        assert L == 1 and {keys.unpack(e): c for e, c in quo.items()} == ref
        hermitian._check_quotient(Pk, Qk, quo, keys)
        for e in quo:
            a, b = quo[e]
            wrong = {**quo, e: (a, b + 1)}
            with pytest.raises(RuntimeError):
                hermitian._check_quotient(Pk, Qk, wrong, keys)


class TestWitnessDraws:
    def test_rand_pairs_match_randint(self):
        """`_rand_pairs` pins CPython's `_randbelow_with_getrandbits`, which
        the `randint` calls of `_rand_grat` run on; a CPython that draws
        otherwise fails here, not in the witnesses."""
        for seed in range(2000):
            fast, ref = random.Random(seed), random.Random(seed)
            k = 1 + seed % 23
            want = [_rand_grat(ref) for _ in range(k)]
            assert hermitian._rand_pairs(fast, k) == [(int(c.re), int(c.im)) for c in want]
            assert fast.getstate() == ref.getstate()


class TestSampling:
    @pytest.mark.parametrize("sig", [Signature(1, 1), Signature(2, 2),
                                     Signature(1, 2, 1), Signature(3, 0)])
    def test_pairs_exactly_orthogonal(self, sig):
        rng = rng_for(5, f"pairs|{sig.r}{sig.s}{sig.t}")
        for _ in range(50):
            z, w = sample_orthogonal_pair(sig, rng)
            assert inner_product(z, w, sig) == GRat()


class TestSharpnessMap:
    def test_k1_n2(self):
        f = sharpness_map(1, 2)
        assert f.source == Signature(1, 2)
        assert f.target == Signature(1, 2)
        assert f.components == [
            mono(3, (3, 0, 0)), mono(3, (2, 1, 0)), mono(3, (2, 0, 1)),
        ]

    def test_k2_n3(self):
        f = sharpness_map(2, 3)
        assert len(f.components) == 8
        assert f.target == Signature(4, 4)
        assert image_span_dim(f.components) == 7

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sharpness_map(3, 2)
        with pytest.raises(ValueError):
            sharpness_map(0, 2)

    def test_expected_quotient(self):
        for k, n in [(1, 3), (2, 7), (3, 12)]:
            cert = orthogonality_certificate(sharpness_map(k, n))
            assert cert.verdict
            assert cert.quotient == sharpness_quotient(k, n)

    def test_restricted_span_bound(self):
        f = sharpness_map(2, 3)
        rec = verify_restriction_theorem(f.components, trials=8, seed=2)
        assert rec.N == 7
        assert rec.bound == op_minus(7, 3) == 5
        assert rec.holds

    def test_suite_small(self):
        report = sharpness_suite(max_k=2, max_n=8)
        assert report.ok
        assert report.maps == 8
        assert report.checks == 7 * 8

    def test_suite_stops_at_the_last_k_with_maps(self):
        # only k with k(k+1) < max_n have maps; a larger max_k adds none
        small = sharpness_suite(max_k=2, max_n=8)
        huge = sharpness_suite(max_k=10**12, max_n=8)
        assert (huge.maps, huge.checks, huge.violations) == (small.maps, small.checks, [])

    def test_map_size_limit(self):
        # n + 1 variables in degree 3: C(85, 3) = 98 770 fits, C(86, 3) does not
        assert len(sharpness_map(1, 82).components) == 83
        for refused in (lambda: sharpness_map(1, 83), lambda: sharpness_suite(1, 83)):
            with pytest.raises(ValueError, match="limit of 100000 monomials"):
                refused()


class TestNullProlongation:
    def test_display_example(self):
        f = identity_map(Signature(1, 1))
        psi = mono(2, (1, 0))
        phi = mono(2, (2, 0))
        F = null_prolongation(f, psi, phi)
        assert F.target == Signature(2, 2)
        assert F.components == [
            mono(2, (2, 0)), mono(2, (2, 0)), mono(2, (1, 1)), mono(2, (2, 0)),
        ]
        assert orthogonality_certificate(F).verdict

    def test_pairing_factors(self):
        f = sharpness_map(1, 2)
        psi = mono(3, (0, 1, 0))
        phi = mono(3, (0, 2, 2))
        F = null_prolongation(f, psi, phi)
        lift = embed(psi, 6, 0) * embed(psi.conjugate_coeffs(), 6, 3)
        assert pairing_poly(F) == lift * pairing_poly(f)

    def test_degree_mismatch(self):
        f = identity_map(Signature(1, 1))
        with pytest.raises(ValueError):
            null_prolongation(f, mono(2, (1, 0)), mono(2, (3, 0)))

    def test_zero_phi(self):
        f = identity_map(Signature(1, 1))
        F = null_prolongation(f, mono(2, (1, 0)), Poly(2, 2, {}))
        assert orthogonality_certificate(F).verdict

    def test_preserves_failure(self):
        bad = SignedMap(
            Signature(1, 1), Signature(2, 0), 1,
            [mono(2, (1, 0)), mono(2, (0, 1))],
        )
        F = null_prolongation(bad, mono(2, (0, 1)), mono(2, (0, 2)))
        assert not orthogonality_certificate(F).verdict

    def test_null_target_rejected(self):
        sig = Signature(1, 1, 1)
        f = SignedMap(sig, sig, 1, identity_map(sig).components)
        with pytest.raises(ValueError):
            null_prolongation(f, mono(3, (1, 0, 0)), mono(3, (2, 0, 0)))


@st.composite
def obstruction_case(draw):
    """(f, E, vanished): a map with a nondegenerate target and Gaussian
    coefficients, a coordinate set E, and the side ("E", "E_perp", "both"
    or None) whose every term was taken out of f, so that it vanishes."""
    source = Signature(*draw(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
                             .filter(lambda rst: rst[0] + rst[1] >= 1)))
    target = Signature(*draw(st.tuples(st.integers(0, 2), st.integers(0, 2))
                             .filter(lambda rs: sum(rs) >= 1)))
    nv, degree = source.n_vars, draw(st.integers(0, 2))
    e_set = draw(st.sets(st.integers(0, nv - 1), min_size=1).filter(
        lambda e: len(e) < nv or source.t))
    perp = set(range(nv)) - e_set | set(range(source.r + source.s, nv))
    vanished = draw(st.sampled_from([None, "E", "E_perp", "both"]))
    gone = {None: [], "E": [e_set], "E_perp": [perp], "both": [e_set, perp]}[vanished]
    coeff = st.builds(
        GRat,
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
    )
    basis = [e for e in monomial_basis(nv, degree)
             if not any(all(e[i] == 0 for i in range(nv) if i not in side) for side in gone)]
    terms = st.lists(st.tuples(st.sampled_from(basis), coeff), max_size=3) if basis else st.just([])
    comps = [Poly(nv, degree, dict(draw(terms))) for _ in range(target.n_vars)]
    return SignedMap(source, target, degree, comps), sorted(e_set), vanished


def _obstruction_by_reference(f, e_indices):
    """`span_obstruction_check` with each side taken from `f.components`:
    the coordinates outside it set to zero, the rest renumbered, and the
    span ranked by `image_span_dim`."""
    nv = f.source.n_vars
    perp = set(range(nv)) - set(e_indices) | set(range(f.source.r + f.source.s, nv))
    dims = []
    for keep in (sorted(e_indices), sorted(perp)):
        side = [
            Poly(len(keep), f.degree, {
                tuple(e[i] for i in keep): c for e, c in p.coeffs.items()
                if all(e[i] == 0 for i in range(nv) if i not in keep)
            })
            for p in f.components
        ]
        dims.append(-1 if all(p.is_zero for p in side) else image_span_dim(side))
    if dims == [-1, -1]:
        degenerate = "both"
    elif dims[0] == -1:
        degenerate = "E"
    elif dims[1] == -1:
        degenerate = "E_perp"
    else:
        degenerate = None
    bound = f.target.r + f.target.s - 2
    holds = degenerate is not None or dims[0] + dims[1] <= bound
    return ObstructionRecord(dims[0], dims[1], bound, degenerate, holds)


class TestObstruction:
    def test_identity_small(self):
        rec = span_obstruction_check(identity_map(Signature(1, 1)), [0])
        assert rec == ObstructionRecord(0, 0, 0, None, True)

    def test_sharpness_degenerate_side(self):
        rec = span_obstruction_check(sharpness_map(2, 3), [0, 1])
        assert rec.dim_e_span == 3
        assert rec.degenerate == "E_perp"
        assert rec.dim_eperp_span == -1
        assert rec.holds

    def test_identity_four_vars(self):
        rec = span_obstruction_check(identity_map(Signature(2, 2)), [0, 2])
        assert rec.degenerate is None
        assert rec.dim_e_span == 1 and rec.dim_eperp_span == 1
        assert rec.bound == 2 and rec.holds

    def test_certified_maps_hold(self):
        # every coordinate split with both sides alive respects the bound
        for k, n in [(1, 3), (2, 5)]:
            f = sharpness_map(k, n)
            nv = f.source.n_vars
            for cut in range(1, nv):
                rec = span_obstruction_check(f, list(range(cut)))
                assert rec.holds

    @settings(max_examples=200, deadline=None)
    @given(obstruction_case())
    def test_matches_the_renumbered_reference(self, case):
        f, e_indices, vanished = case
        rec = span_obstruction_check(f, e_indices)
        assert rec == _obstruction_by_reference(f, e_indices)
        assert vanished is None or rec.degenerate in (vanished, "both")

    def test_validation(self):
        sig = Signature(1, 1, 1)
        f = SignedMap(sig, sig, 1, identity_map(sig).components)
        with pytest.raises(ValueError):
            span_obstruction_check(f, [0])
        with pytest.raises(ValueError):
            span_obstruction_check(identity_map(Signature(1, 1)), [])
        with pytest.raises(ValueError):
            span_obstruction_check(identity_map(Signature(1, 1)), [5])


# lines of the map format, hostile variants (huge and negative counts,
# degrees past the monomial limit) and broken components
MAP_FUZZ_LINES = [
    "source 1 1 0", "source 1 0 0", "source 0 0 0", "source -1 2 0", "source 1 1",
    "source x 1 0", "source 9" + "9" * 5000 + " 1 0", "source 99 99 99",
    "target 1 1 0", "target 0 0 1", "degree 1", "degree 0", "degree -1",
    "degree 99999", "degree 10000000000", "%pos", "%neg", "%null", "%other", "", "  ",
    "1/1 1 0", "1/1 0 1", "-1/2,3/4 1 1", "0", "1/0 1 0", "1e1000000000 1 0",
    "1/1 1", "1/1 1 0 0", "1/1 2 0", "1/1 -1 2", "1/1 " + "9" * 5000 + " 0",
    "\x00", "\x0c", "1/1 1 0; -1/1 1 0",
]


@st.composite
def map_st(draw):
    source = Signature(*draw(st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(0, 1))))
    target = Signature(*draw(st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(0, 1))))
    degree = draw(st.integers(0, 2))
    nv = source.n_vars
    coeff = st.builds(
        GRat,
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
    )
    exps = st.lists(st.integers(0, nv - 1), min_size=degree, max_size=degree).map(
        lambda idx: tuple(idx.count(i) for i in range(nv))
    )
    comps = [
        Poly(nv, degree, dict(draw(st.lists(st.tuples(exps, coeff), max_size=4))))
        for _ in range(target.n_vars)
    ]
    return SignedMap(source, target, degree, comps)


@st.composite
def mutated_map_text(draw):
    """A valid map file with up to three lines inserted, replaced or deleted."""
    lines = format_map(draw(map_st())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "delete":
            del lines[i]
        else:
            lines[i:i + (action == "replace")] = [draw(st.sampled_from(MAP_FUZZ_LINES))]
    return "\n".join(lines)


def _parse_map_by_reference(text):
    """parse_map with every component read by parse_poly and cleared."""
    with mock.patch.object(hermitian, "cleared_parser", reference_table.cleared_parser):
        return parse_map(text)


def _map_outcome(parse, text):
    """The parsed map with the term order of its components, or the error."""
    try:
        f = parse(text)
    except MapFormatError as exc:
        return "error", str(exc)
    return f.source, f.target, f.degree, [(L, list(P.items())) for L, P in f.cleared]


# lines that hold only whitespace, before a header; "\x1c" and "\x85" also
# end a line for `str.splitlines`, so each of them adds two empty lines
MAP_FILLERS = {
    "none": [], "blank": [""], "spaces": [" \t "], "fs": ["\x1c"], "nel": ["\x85"],
    "ideo": ["\u3000"], "mixed": ["", "\x1c\x85", "\u3000 "],
}
# the line numbers, as `str.splitlines` counts them, of the source, target
# and degree headers after each filler, and of a bad component with the
# filler before every header, before %pos and before the components
FILLER_HEADER_LINES = {
    "none": (1, 2, 3), "blank": (2, 3, 4), "spaces": (2, 3, 4), "fs": (3, 4, 5),
    "nel": (3, 4, 5), "ideo": (2, 3, 4), "mixed": (6, 7, 8),
}
FILLER_COMPONENT_LINE = {
    "none": 6, "blank": 11, "spaces": 11, "fs": 16, "nel": 16, "ideo": 11, "mixed": 31,
}
MAP_HEADERS = [("source", "source 1 1 0", 3), ("target", "target 2 0 0", 3),
               ("degree", "degree 1", 1)]
# a bad header line and its message; None is the end of the text
HEADER_FAULTS = {
    "eof": (None, "missing '{key}' header line"),
    "key": ("{other} 1 1 0", "line {n}: expected '{key} ...', got '{other} 1 1 0'"),
    "arity": ("{key} 1 2 3 4", "line {n}: '{key}' takes {want} integers"),
    "nonint": ("{key} {ints}x", "line {n}: non-integer in '{key}'"),
}


class TestMapFiles:
    @settings(max_examples=100, deadline=None)
    @given(map_st())
    def test_round_trip_generated(self, f):
        text = format_map(f)
        back = parse_map(text)
        assert back == f
        assert format_map(back) == text

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.lists(st.sampled_from(MAP_FUZZ_LINES), max_size=12).map("\n".join),
            mutated_map_text(),
        )
    )
    def test_arbitrary_text_raises_only_format_errors(self, text):
        # the same map or the same message as a parse_poly-based parse
        assert _map_outcome(parse_map, text) == _map_outcome(_parse_map_by_reference, text)
        try:
            f = parse_map(text)
        except MapFormatError:
            return
        assert parse_map(format_map(f)) == f

    @settings(max_examples=50, deadline=None)
    @given(map_st())
    def test_parsed_components_built_on_demand(self, f):
        back = parse_map(format_map(f))
        assert back.cleared == [clear(p.coeffs) for p in f.components]
        assert back.components == f.components

    def test_plain_map_needs_no_rationals(self):
        # the kernels of span, obstruct and a verdict read the cleared form
        # only: a map with plain coefficients builds no GRat on their way,
        # and the one GRat polynomial built is the printed quotient
        text = format_map(sharpness_map(2, 5))
        built = []

        def from_pairs(n_vars, degree, pairs, L):
            built.append(n_vars)
            return real(n_vars, degree, pairs, L)

        real = hermitian._from_pairs
        with mock.patch.object(polyspace, "parse_grat", side_effect=AssertionError), \
                mock.patch.object(hermitian, "_from_pairs", from_pairs):
            f = parse_map(text)
            assert span_obstruction_check(f, [0, 2, 3]).holds
            assert built == []
            cert = orthogonality_certificate(f)
        assert cert.verdict and built == [2 * f.source.n_vars]
        assert cert.quotient == sharpness_quotient(2, 5)
        assert f == sharpness_map(2, 5)

    def test_written_maps_take_the_fixed_offset_read(self, tmp_path, monkeypatch):
        # every component line of the seed-0 map-queries maps and of
        # `format_map` output is canonical, so the benchmark's parses never
        # reach `_parse_terms`, and they read as they do through it
        load_workloads(monkeypatch).build("map-queries", 0, tmp_path)
        texts = [path.read_text() for path in sorted(tmp_path.glob("*.map"))]
        assert len(texts) == 96
        texts += [format_map(sharpness_map(k, n)) for n in range(1, 7) for k in range(1, n + 1)]
        want = [_map_outcome(parse_map, text) for text in texts]
        assert not any(outcome[0] == "error" for outcome in want)
        monkeypatch.setattr(polyspace, "_parse_terms", mock.Mock(side_effect=AssertionError))
        assert [_map_outcome(parse_map, text) for text in texts] == want

    def test_round_trip_sharpness(self):
        f = sharpness_map(2, 3)
        text = format_map(f)
        back = parse_map(text)
        assert back == f
        assert format_map(back) == text

    def test_round_trip_with_zero_and_complex(self):
        comps = [
            mono(2, (1, 1), GRat(Fraction(1, 2), Fraction(-3, 7))) + mono(2, (2, 0)),
            Poly(2, 2, {}),
            mono(2, (0, 2), GRat(-2)),
        ]
        f = SignedMap(Signature(1, 1), Signature(1, 1, 1), 2, comps)
        text = format_map(f)
        assert "\n0\n" in text
        back = parse_map(text)
        assert back == f
        assert format_map(back) == text

    def test_blank_lines_tolerated(self):
        f = identity_map(Signature(1, 1))
        text = format_map(f).replace("%neg", "\n%neg\n")
        assert parse_map(text) == f

    def test_header_errors(self):
        with pytest.raises(MapFormatError):
            parse_map("")
        with pytest.raises(MapFormatError, match="line 1"):
            parse_map("target 1 1 0\nsource 1 1 0\ndegree 1\n")
        with pytest.raises(MapFormatError, match="line 3"):
            parse_map("source 1 1 0\ntarget 1 1 0\ndegree x\n")

    @pytest.mark.parametrize("fault", HEADER_FAULTS)
    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("filler", MAP_FILLERS)
    def test_header_messages_keep_their_text_and_line(self, filler, at, fault):
        key, _, want = MAP_HEADERS[at]
        line, message = HEADER_FAULTS[fault]
        other = "source" if key == "degree" else "degree"
        lines = [text for _, text, _ in MAP_HEADERS[:at]] + MAP_FILLERS[filler]
        if line is not None:
            lines.append(line.format(key=key, other=other, ints="1 " * (want - 1)))
        with pytest.raises(MapFormatError) as info:
            parse_map("\n".join(lines))
        n = FILLER_HEADER_LINES[filler][at]
        assert str(info.value) == message.format(key=key, other=other, n=n, want=want)

    @pytest.mark.parametrize("filler", MAP_FILLERS)
    def test_component_lines_count_the_filler(self, filler):
        fill = MAP_FILLERS[filler]
        lines = [*fill, "source 1 1 0", *fill, "target 2 0 0", *fill, "degree 1",
                 *fill, "%pos", *fill, "1/1 1 0", "1/1 1"]
        with pytest.raises(MapFormatError) as info:
            parse_map("\n".join(lines))
        assert str(info.value) == (f"line {FILLER_COMPONENT_LINE[filler]}: "
                                   "term '1/1 1' has 1 exponents, expected 2")

    def test_block_errors(self):
        header = "source 1 1 0\ntarget 1 1 0\ndegree 1\n"
        with pytest.raises(MapFormatError, match="%pos"):
            parse_map(header + "1/1 1 0\n")
        with pytest.raises(MapFormatError, match="expected 1"):
            parse_map(header + "%pos\n%neg\n1/1 0 1\n%null\n")
        with pytest.raises(MapFormatError, match="too many"):
            parse_map(header + "%pos\n1/1 1 0\n1/1 0 1\n%neg\n1/1 0 1\n%null\n")
        with pytest.raises(MapFormatError, match="missing separator %null"):
            parse_map(header + "%pos\n1/1 1 0\n%neg\n1/1 0 1\n")

    def test_poly_error_carries_line_number(self):
        header = "source 1 1 0\ntarget 1 1 0\ndegree 1\n"
        with pytest.raises(MapFormatError, match="line 5"):
            parse_map(header + "%pos\n1/1 1\n%neg\n1/1 0 1\n%null\n")

    def test_component_degree_enforced(self):
        header = "source 1 1 0\ntarget 1 1 0\ndegree 2\n"
        with pytest.raises(MapFormatError, match="degree"):
            parse_map(header + "%pos\n1/1 1 0\n%neg\n1/1 0 2\n%null\n")
