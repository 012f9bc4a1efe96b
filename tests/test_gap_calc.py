import pytest

from macgap import gap_calc
from macgap.binom_core import macaulay_rep, op_minus
from macgap.gap_calc import (
    GapInterval,
    NabForm,
    classify_gap,
    comparison_intervals,
    dim_prop_bounds,
    gap_argument_sweep,
    gap_intervals,
    ineq1_b_range,
    nab_decompose,
    nab_minus,
    nab_rep_terms,
    nab_value,
    plane_chain,
    plane_chain_closed_form,
    plane_step,
    verify_gap_argument,
)


def admissible_forms(n):
    return [
        NabForm(n, a, b)
        for a in range(n)
        for b in range(n - a)
    ]


class TestNabForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            NabForm(5, 1, 4)  # b > n-a-1
        with pytest.raises(ValueError):
            NabForm(0, 0, 0)
        with pytest.raises(ValueError):
            NabForm(5, -1, 0)
        NabForm(5, 1, 3)

    @pytest.mark.parametrize("n", [1, 2, 7, 31])
    def test_value_base(self, n):
        assert nab_value(NabForm(n, 0, 0)) == n + 1

    def test_value_examples(self):
        assert nab_value(NabForm(5, 1, 2)) == 13
        assert nab_value(NabForm(10, 1, 2)) == 23

    def test_rep_terms_match_greedy(self):
        # the displayed expansion really is the Macaulay representation
        assert nab_rep_terms(NabForm(5, 1, 2)) == (
            (6, 5), (5, 4), (3, 3), (2, 2),
        )
        for n in range(1, 13):
            for form in admissible_forms(n):
                v = nab_value(form)
                assert nab_rep_terms(form) == macaulay_rep(v, n).terms

    def test_decompose_examples(self):
        assert nab_decompose(8, 7) == NabForm(7, 0, 0)
        assert nab_decompose(23, 10) == NabForm(10, 1, 2)
        assert nab_decompose(10, 10) is None

    def test_decompose_round_trip(self):
        for n in range(1, 16):
            top = n * (n + 3) // 2
            for N in range(n + 1, top + 1):
                form = nab_decompose(N, n)
                assert form is not None and nab_value(form) == N
            assert nab_decompose(n, n) is None
            assert nab_decompose(top + 1, n) is None

    def test_decompose_bad_level(self):
        with pytest.raises(ValueError):
            nab_decompose(5, 0)


class TestDescent:
    def test_examples(self):
        assert nab_minus(NabForm(5, 1, 2)) == NabForm(4, 1, 2)
        assert nab_value(NabForm(4, 1, 2)) == 11
        assert nab_minus(NabForm(4, 1, 2)) == NabForm(3, 1, 1)
        assert nab_value(NabForm(3, 1, 1)) == 8
        assert nab_minus(NabForm(3, 0, 0)) == NabForm(2, 0, 0)

    def test_corner_rejected(self):
        with pytest.raises(ValueError):
            nab_minus(NabForm(3, 2, 0))

    def test_agrees_with_index_shift(self):
        # descent on forms = the minus operation on their values
        for n in range(2, 21):
            for form in admissible_forms(n):
                if form.n - form.a - form.b < 2 and form.b == 0:
                    continue
                down = nab_minus(form)
                assert down.n == n - 1
                assert nab_value(down) == op_minus(nab_value(form), n)


class TestDimPropBounds:
    def test_examples(self):
        assert dim_prop_bounds(6, 1, 2) == {5: 13, 4: 11, 3: 8, 2: 5}
        assert dim_prop_bounds(4, 0, 0) == {1: 2, 2: 3, 3: 4}
        assert dim_prop_bounds(5, 1, 3) == {2: 5, 3: 8, 4: 11}

    def test_matches_iterated_descent(self):
        for n in range(2, 13):
            for form in admissible_forms(n):
                bounds = dim_prop_bounds(n, form.a, form.b)
                assert sorted(bounds) == list(range(form.a + 1, n))
                f = form
                for m in range(n - 1, form.a, -1):
                    f = nab_minus(f)
                    assert f.n == m
                    assert nab_value(f) == bounds[m]

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            dim_prop_bounds(5, 1, 4)


class TestIntervals:
    def test_n10(self):
        assert gap_intervals(10) == [
            GapInterval(1, 10, 11, 18),
            GapInterval(2, 10, 22, 25),
        ]

    def test_singleton(self):
        assert GapInterval(3, 13, 42, 42) in gap_intervals(13)

    def test_emptiness_threshold(self):
        assert [iv.k for iv in gap_intervals(6)] == [1]
        assert gap_intervals(2) == []
        with pytest.raises(ValueError):
            gap_intervals(1)

    def test_first_interval_closed_form(self):
        for n in range(3, 51):
            first = gap_intervals(n)[0]
            assert (first.lo, first.hi) == (n + 1, 2 * n - 2)

    def test_endpoint_identity(self):
        # kn+k = (a+1)(n+1) and (k+1)n-(k^2+1) = (a+2)n-(a^2+2a+2) at a=k-1
        for n in range(3, 61):
            for iv in gap_intervals(n):
                a = iv.k - 1
                assert iv.lo == (a + 1) * (n + 1)
                assert iv.hi == (a + 2) * n - (a * a + 2 * a + 2)

    def test_contained_in_comparison(self):
        for n in range(3, 51):
            comp = {iv.k: iv for iv in comparison_intervals(n)}
            for iv in gap_intervals(n):
                other = comp[iv.k]
                assert other.tag == "conjectural (cited)"
                assert other.lo <= iv.lo and iv.hi <= other.hi
                equal = (iv.lo, iv.hi) == (other.lo, other.hi)
                assert equal == (iv.k == 1)

    def test_pairwise_disjoint(self):
        for n in range(3, 61):
            ivs = gap_intervals(n)
            for prev, nxt in zip(ivs, ivs[1:]):
                assert prev.hi < nxt.lo


class TestClassify:
    def test_examples(self):
        assert classify_gap(10, 15).k == 1
        assert classify_gap(13, 42).k == 3
        assert not classify_gap(10, 10).in_gap
        assert not classify_gap(6, 13).in_gap

    def test_matches_interval_scan(self):
        for n in range(2, 41):
            ivs = gap_intervals(n)
            for N in range(0, 3 * n + 1):
                hits = [iv.k for iv in ivs if iv.lo <= N <= iv.hi]
                verdict = classify_gap(n, N)
                assert verdict.in_gap == bool(hits)
                if hits:
                    assert verdict.k == hits[0] and len(hits) == 1

    def test_tiny_n(self):
        with pytest.raises(ValueError):
            classify_gap(1, 5)
        assert not classify_gap(2, 3).in_gap


class TestGapArgument:
    def test_case_i_example(self):
        r = verify_gap_argument(10, 1, 2)
        assert (r.n1, r.n2, r.case) == (4, 5, "I")
        assert (r.d_n1, r.d_n2, r.total) == (11, 13, 24)
        assert r.n_prime == 23 and r.holds

    def test_case_ii_example(self):
        r = verify_gap_argument(10, 1, 4)
        assert r.case == "II"
        assert r.total == 25 and r.n_prime == 25 and r.holds

    def test_smallest_instance(self):
        r = verify_gap_argument(3, 0, 0)
        assert (r.n1, r.n2) == (1, 1)
        assert r.total == 4 and r.n_prime == 4 and r.holds

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_gap_argument(3, 0, 1)
        with pytest.raises(ValueError):
            verify_gap_argument(5, 1, 0)
        with pytest.raises(ValueError):
            verify_gap_argument(10, -1, 0)

    def test_n_prime_sweeps_gap_interval(self):
        # as b runs through its admissible range, N(n;a,b) fills J_{a+1}
        for n in range(3, 41):
            a = 0
            while True:
                lo, hi = ineq1_b_range(n, a)
                if lo > hi:
                    break
                k = a + 1
                values = {
                    verify_gap_argument(n, a, b).n_prime for b in range(lo, hi + 1)
                }
                assert values == set(range(k * n + k, (k + 1) * n - k * k))
                a += 1

    def test_sweep(self):
        report = gap_argument_sweep(30)
        assert report.ok
        assert report.case_i > 0 and report.case_ii > 0
        expected = sum(
            max(0, ineq1_b_range(n, a)[1] - ineq1_b_range(n, a)[0] + 1)
            for n in range(1, 31)
            for a in range(n)
        )
        assert report.checks == expected


class TestPlanePropagation:
    def test_step_examples(self):
        assert plane_step(2, 1) == 1
        assert plane_step(1, 1) == 2
        assert plane_step(1, 2) == 5

    def test_step_cases(self):
        for ell in range(1, 6):
            for ep in range(ell):
                assert plane_step(ell, ep) == ep
            for ep in range(ell, 2 * ell):
                assert plane_step(ell, ep) == ep + 1

    def test_step_checks_closed_form(self, monkeypatch):
        monkeypatch.setattr(gap_calc, "op_upper", lambda A, n: A + 7)
        with pytest.raises(RuntimeError):
            plane_step(3, 1)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            plane_step(0, 1)
        with pytest.raises(ValueError):
            plane_step(1, -1)

    def test_chain_examples(self):
        assert plane_chain(1, 2, 1) == 5
        for k in range(1, 7):
            assert plane_chain(1, 1, k) == k + 1
        assert plane_chain(2, 1, 3) == 1

    def test_chain_closed_form(self):
        for ell in range(1, 7):
            for ep in range(13):
                for steps in range(1, 6):
                    assert plane_chain(ell, ep, steps) == plane_chain_closed_form(
                        ell, ep, steps
                    )

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            plane_chain(1, 1, 0)
