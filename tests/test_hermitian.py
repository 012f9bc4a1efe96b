from fractions import Fraction

import pytest

from macgap import hermitian
from macgap.binom_core import op_minus
from macgap.hermitian import (
    MapFormatError,
    ObstructionRecord,
    Signature,
    SignedMap,
    classify_point,
    format_map,
    identity_map,
    inner_product,
    null_prolongation,
    orthogonality_certificate,
    pairing_poly,
    parse_map,
    sample_orthogonal_pair,
    sharpness_map,
    sharpness_quotient,
    sharpness_suite,
    source_form_poly,
    span_obstruction_check,
)
from macgap.polyspace import (
    GRat,
    Poly,
    image_span_dim,
    mono,
    rng_for,
    verify_restriction_theorem,
)


def g(*vals):
    return [GRat(v) for v in vals]


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
        monkeypatch.setattr(hermitian, "inner_product", lambda z, w, sig: GRat(1, 1))
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
            assert source_form_poly(f.source) * cert.quotient == pairing_poly(f)

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
            verdicts = {
                orthogonality_certificate(f, pivot=p, want_quotient=False).verdict
                for p in range(f.source.r + f.source.s)
            }
            assert len(verdicts) == 1

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

    def test_soundness_on_sampled_pairs(self):
        f = sharpness_map(2, 3)
        assert orthogonality_certificate(f, want_quotient=False).verdict
        rng = rng_for(17, "soundness")
        for _ in range(200):
            z, w = sample_orthogonal_pair(f.source, rng)
            assert inner_product(z, w, f.source) == GRat()
            assert inner_product(f.evaluate(z), f.evaluate(w), f.target) == GRat()


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
        from macgap.hermitian import _embed

        lift = _embed(psi, 6, 0) * _embed(psi.conjugate_coeffs(), 6, 3)
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
        assert not orthogonality_certificate(F, want_quotient=False).verdict

    def test_null_target_rejected(self):
        sig = Signature(1, 1, 1)
        f = SignedMap(sig, sig, 1, identity_map(sig).components)
        with pytest.raises(ValueError):
            null_prolongation(f, mono(3, (1, 0, 0)), mono(3, (2, 0, 0)))


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

    def test_validation(self):
        sig = Signature(1, 1, 1)
        f = SignedMap(sig, sig, 1, identity_map(sig).components)
        with pytest.raises(ValueError):
            span_obstruction_check(f, [0])
        with pytest.raises(ValueError):
            span_obstruction_check(identity_map(Signature(1, 1)), [])
        with pytest.raises(ValueError):
            span_obstruction_check(identity_map(Signature(1, 1)), [5])


class TestMapFiles:
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
