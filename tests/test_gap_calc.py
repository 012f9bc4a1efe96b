import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgap import gap_calc
from macgap.binom_core import macaulay_rep, op_minus
from macgap.gap_calc import (
    GapInterval,
    NabForm,
    classify_gap,
    comparison_intervals,
    dim_prop_bound,
    dim_prop_bounds,
    gap_argument_checks,
    gap_argument_sweep,
    gap_intervals,
    ineq1_b_range,
    interval_counts,
    nab_value,
    plane_chain,
    plane_chain_closed_form,
    plane_step,
    verify_gap_argument,
)
from reference_table import descent, gap_scan, gap_walk, nab_minus


def nab_rep_terms(form):
    """The level-n Macaulay terms of N(n;a,b): a+1 leading binomials
    C(n+1-j, n-j), then b singleton terms C(c,c) descending from n-a-1."""
    n, a, b = form.n, form.a, form.b
    terms = [(n + 1 - j, n - j) for j in range(a + 1)]
    terms += [(n - a - 1 - i, n - a - 1 - i) for i in range(b)]
    return tuple(terms)


def nab_decompose(N, n):
    """Inverse of nab_value at level n; None when N is outside
    [n+1, C(n+2,2)-1]."""
    if n < 1:
        raise ValueError("level must be positive")
    if N < n + 1 or N > n * (n + 3) // 2:
        return None
    # consecutive a-blocks [S(a), S(a)+n-a-1] tile the range, so scan for
    # the block containing N
    a = 0
    while (a + 2) * (n + 1) - (a + 1) * (a + 2) // 2 <= N:
        a += 1
    return NabForm(n, a, N - ((a + 1) * (n + 1) - a * (a + 1) // 2))


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

    def test_single_bound_matches_descent(self):
        # exhaustive for n <= 40: each D_m equals its entry in the dict and
        # the value reached by iterated descent from N(n;a,b)
        for n in range(1, 41):
            for form in admissible_forms(n):
                a, b = form.a, form.b
                bounds = dim_prop_bounds(n, a, b)
                f = form
                for m in range(n - 1, a, -1):
                    f = nab_minus(f)
                    assert dim_prop_bound(n, a, b, m) == bounds[m] == nab_value(f)
                for m in (a, n, -1, n + 5):
                    with pytest.raises(ValueError):
                        dim_prop_bound(n, a, b, m)

    def test_single_bound_validates_form(self):
        with pytest.raises(ValueError):
            dim_prop_bound(5, 1, 4, 3)
        with pytest.raises(ValueError):
            dim_prop_bound(5, -1, 0, 2)


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

    def test_counts_closed_form(self):
        # every n up to 3000 crosses many thresholds of both families
        for n in range(2, 3001):
            assert interval_counts(n) == (len(gap_intervals(n)), len(comparison_intervals(n)))
        for n in (10**6, 10**8 + 7):
            assert interval_counts(n) == (len(gap_intervals(n)), len(comparison_intervals(n)))
        with pytest.raises(ValueError):
            interval_counts(1)

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10**6), st.data())
    def test_closed_form_matches_interval_scan(self, n, data):
        # N = k(n+1) + offset covers each J_k, its two ends and the values
        # around it, for k up to past the last nonempty J_k
        k = data.draw(st.integers(0, math.isqrt(n) + 2))
        N = k * (n + 1) + data.draw(st.integers(-2, n + 1))
        hits = [iv.k for iv in gap_intervals(n) if iv.lo <= N <= iv.hi]
        verdict = classify_gap(n, N)
        assert (verdict.in_gap, verdict.k) == ((True, hits[0]) if hits else (False, None))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 400), st.sampled_from(["in", "between", "nonpositive"]), st.data())
    def test_matches_gap_scan(self, n, where, data):
        # N in a J_k, in a stretch between two of them (below J_1 and past
        # the last one included), or N <= 0
        ivs = gap_intervals(n)
        if where == "in" and ivs:
            iv = data.draw(st.sampled_from(ivs), label="J_k")
            N = data.draw(st.integers(iv.lo, iv.hi), label="N")
        elif where == "nonpositive":
            N = data.draw(st.integers(-3 * n, 0), label="N")
        else:
            ends = [0] + [x for iv in ivs for x in (iv.lo, iv.hi)] + [(len(ivs) + 2) * (n + 1)]
            i = 2 * data.draw(st.integers(0, len(ivs)), label="stretch")
            N = data.draw(st.integers(ends[i] + 1, ends[i + 1] - 1), label="N")
        verdict = classify_gap(n, N)
        assert verdict == gap_scan(n, N)
        assert verdict.in_gap == (where == "in" and bool(ivs))

    def test_tiny_n(self):
        with pytest.raises(ValueError):
            classify_gap(1, 5)
        with pytest.raises(ValueError):
            gap_scan(1, 5)
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

    def test_check_count_closed_form(self):
        for max_n in (0, 1, 2, 3, 4, 5, 9, 10, 23, 60):
            assert gap_argument_checks(max_n) == gap_argument_sweep(max_n).checks
        total = 0
        for n in range(1, 501):
            a = 0
            while True:
                lo, hi = ineq1_b_range(n, a)
                if lo > hi:
                    break
                total += hi - lo + 1
                a += 1
            assert gap_argument_checks(n) == total
        assert gap_argument_checks(120) == 35_464
        assert gap_argument_checks(400) == 777_138

    def test_sweep_records_under_reported_bounds(self, monkeypatch):
        # the one D_m helper of the sweep and of dim_prop_bound
        monkeypatch.setattr(gap_calc, "_dim_bound", lambda a, b, m: 1)
        report = gap_argument_sweep(12)
        assert not report.ok
        assert len(report.violations) == report.checks == gap_argument_checks(12)
        assert all(r.total == 2 and not r.holds for r in report.violations)

    def test_sweep_refuses_to_disagree_with_the_report(self, monkeypatch):
        # the integer check under-reports, the per-triple report (D_m by
        # descent) says the bound holds: an internal error, not a violation
        monkeypatch.setattr(gap_calc, "_dim_bound", lambda a, b, m: 1)
        monkeypatch.setattr(gap_calc, "dim_prop_bound", descent)
        with pytest.raises(RuntimeError, match="disagree"):
            gap_argument_sweep(12)

    @pytest.mark.parametrize("block", [(1, 8), (-2, -1)])
    def test_sweep_refuses_an_inadmissible_block(self, monkeypatch, block):
        # the b range of (n, a) = (9, 1), really [1, 3], widened past
        # n-a-1 = 7 or moved below 0: the sweep's integer check raises the
        # ValueError that NabForm raises for the block's last triple
        real = ineq1_b_range
        monkeypatch.setattr(gap_calc, "ineq1_b_range",
                            lambda n, a: block if (n, a) == (9, 1) else real(n, a))
        with pytest.raises(ValueError) as expected:
            NabForm(9, 1, block[1])
        with pytest.raises(ValueError) as caught:
            gap_argument_sweep(12)
        assert str(caught.value) == str(expected.value)
        assert gap_argument_sweep(8).checks == gap_argument_checks(8)


# concave dips planted in D_m: real value minus a convex function of b
DIPS = {
    "one": (lambda a, b: 1, None),
    "late-3": (lambda a, b: max(0, b - 3), "hi"),
    "late-12": (lambda a, b: max(0, b - 12), "hi"),
    "early-2": (lambda a, b: max(0, 2 - b), "lo"),
    "early-9": (lambda a, b: max(0, 9 - b), "lo"),
}


class TestGapSweepEndpoints:
    @pytest.mark.parametrize("name", DIPS)
    def test_planted_dips_match_the_walk(self, monkeypatch, name):
        dip, only_end = DIPS[name]
        real = gap_calc._dim_bound
        monkeypatch.setattr(gap_calc, "_dim_bound", lambda a, b, m: real(a, b, m) - dip(a, b))
        report = gap_argument_sweep(40)
        assert report == gap_walk(40)
        assert not report.ok
        if only_end is not None:
            # some block fails at this end alone, so a sweep that looked
            # only at the other end would miss it
            bad = {(r.n, r.a, r.b) for r in report.violations}

            def fails(n, a, end):
                lo, hi = ineq1_b_range(n, a)
                return (n, a, lo if end == "lo" else hi) in bad

            other = "hi" if only_end == "lo" else "lo"
            assert any(fails(n, a, only_end) and not fails(n, a, other) for n, a, _ in bad)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 4000), st.data())
    def test_slack_is_least_at_a_block_end(self, n, data):
        # the concavity the sweep relies on, with the real D_m
        a = data.draw(st.integers(0, (math.isqrt(4 * n - 3) - 3) // 2))
        lo, hi = ineq1_b_range(n, a)
        n1, n2 = gap_calc._halves(n)
        base = nab_value(NabForm(n, a, 0))
        f = [gap_calc._slack(a, b, n1, n2, base) for b in range(lo, hi + 1)]
        assert min(f) == min(f[0], f[-1])


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
