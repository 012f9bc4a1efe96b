import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgap.binom_core import (
    binom,
    lemma_checks,
    macaulay_rep,
    op_lower,
    op_minus,
    op_upper,
    verify_lemma_binom,
)


def all_decompositions(A, n):
    """Every sum of binomials C(a_n,n)+...+C(a_d,d) equal to A with consecutive
    levels from n, strictly decreasing tops, a_j >= j.  Independent of the
    greedy construction."""
    found = []

    def rec(level, max_top, rem, acc):
        if rem == 0:
            found.append(tuple(acc))
            return
        if level < 1:
            return
        for top in range(level, max_top + 1):
            c = math.comb(top, level)
            if c > rem:
                break
            acc.append((top, level))
            rec(level - 1, top - 1, rem - c, acc)
            acc.pop()

    rec(n, A + n, A, [])
    return found


class TestBinomConvention:
    def test_b_zero_is_zero(self):
        assert binom(5, 0) == 0
        assert binom(0, 0) == 0

    def test_a_less_than_b_is_zero(self):
        assert binom(3, 5) == 0

    def test_plain_value(self):
        assert binom(6, 3) == 20

    def test_matches_stdlib(self):
        for a in range(31):
            for b in range(1, 9):
                assert binom(a, b) == math.comb(a, b)
        assert binom(10**12, 3) == math.comb(10**12, 3)

    def test_negative_rejected(self):
        for a, b in ((-1, 2), (2, -1), (-1, 0)):
            with pytest.raises(ValueError):
                binom(a, b)


class TestMacaulayRep:
    def test_example_level3(self):
        assert macaulay_rep(8, 3).terms == ((4, 3), (3, 2), (1, 1))

    def test_single_term(self):
        assert macaulay_rep(1, 1).terms == ((1, 1),)

    def test_four_terms(self):
        rep = macaulay_rep(13, 5)
        assert rep.terms == ((6, 5), (5, 4), (3, 3), (2, 2))
        assert rep.value() == 13

    def test_str(self):
        assert str(macaulay_rep(8, 3)) == "C(4,3)+C(3,2)+C(1,1)"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            macaulay_rep(0, 3)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            macaulay_rep(5, 0)

    @settings(max_examples=200, deadline=None)
    @given(A=st.integers(1, 4000), n=st.integers(1, 6))
    def test_invariants(self, A, n):
        rep = macaulay_rep(A, n)
        assert rep.value() == A
        levels = [lev for _, lev in rep.terms]
        assert levels == list(range(n, n - len(levels), -1))
        tops = [top for top, _ in rep.terms]
        assert all(t >= lev for t, lev in rep.terms)
        assert all(x > y for x, y in zip(tops, tops[1:]))

    @settings(max_examples=200, deadline=None)
    @given(A=st.integers(1, 10**40), n=st.integers(1, 30))
    def test_large_values(self, A, n):
        rep = macaulay_rep(A, n)
        assert sum(math.comb(top, lev) for top, lev in rep.terms) == A
        tops = [top for top, _ in rep.terms]
        assert all(x > y for x, y in zip(tops, tops[1:]))
        assert all(top >= lev for top, lev in rep.terms)
        assert op_minus(op_upper(A, n), n + 1) == A

    def test_uniqueness_by_enumeration(self):
        for n in range(1, 4):
            for A in range(1, 81):
                decomps = all_decompositions(A, n)
                assert len(decomps) == 1, (A, n, decomps)
                assert decomps[0] == macaulay_rep(A, n).terms


class TestOps:
    def test_zero_maps_to_zero(self):
        for n in (1, 2, 5):
            assert op_lower(0, n) == 0
            assert op_minus(0, n) == 0
            assert op_upper(0, n) == 0

    def test_lower_examples(self):
        assert op_lower(3, 2) == 1
        assert op_lower(8, 3) == 2
        for m in (1, 2, 7, 40):
            assert op_lower(m, 1) == m - 1

    def test_minus_examples(self):
        assert op_minus(8, 3) == 5
        assert op_minus(9, 3) == 5
        assert op_minus(1, 1) == 0

    def test_minus_hockey_stick(self):
        # (C(n+d,n)-1)^-<n> = C(n+d-1,n-1)-1: the level-n rep of C(n+d,n)-1
        # telescopes and the final C(d-1,0) term vanishes by convention.
        for n in range(1, 6):
            for d in range(1, 6):
                lhs = op_minus(math.comb(n + d, n) - 1, n)
                assert lhs == math.comb(n + d - 1, n - 1) - 1

    def test_upper_examples(self):
        assert op_upper(2, 2) == 2
        assert op_upper(2, 1) == 3
        assert op_upper(8, 3) == 10

    @settings(max_examples=200, deadline=None)
    @given(A=st.integers(0, 2000), n=st.integers(1, 6))
    def test_duality(self, A, n):
        assert op_minus(op_upper(A, n), n + 1) == A

    def test_lower_monotone_adjacent(self):
        # c <= c' implies c_<d> <= c'_<d>; adjacent pairs give the full
        # statement by transitivity.
        for d in range(1, 5):
            prev = op_lower(0, d)
            for c in range(1, 301):
                cur = op_lower(c, d)
                assert prev <= cur
                prev = cur


class TestLemmaSweep:
    def test_small_sweep_clean(self):
        report = verify_lemma_binom(3, 3)
        assert report.ok
        assert report.counterexamples == []
        expected = sum(
            math.comb(m + k, k) for m in range(1, 4) for k in range(1, 4)
        )
        assert report.checks == expected

    def test_hand_instance(self):
        # m=2, k=2, split 2+3 of C(4,2)-1
        assert op_minus(2, 2) + op_lower(3, 2) == 2
        assert math.comb(3, 2) - 1 == 2

    def test_m_one_base_case(self):
        # every split of C(1+k,k)-1 = k lands on 0 + 0
        for k in (1, 2, 4):
            for A in range(k + 1):
                assert op_minus(A, 1) == 0
                assert op_lower(k - A, k) == 0

    def test_k_one_base_case(self):
        for m in (1, 3, 6):
            assert op_minus(0, m) + op_lower(m, 1) == m - 1

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_lemma_binom(0, 3)

    def test_check_count_closed_form(self):
        for m_max in range(1, 8):
            for k_max in range(1, 8):
                direct = sum(
                    math.comb(m + k, k)
                    for m in range(1, m_max + 1)
                    for k in range(1, k_max + 1)
                )
                assert lemma_checks(m_max, k_max) == direct
        assert lemma_checks(10, 10) == 705_410
        with pytest.raises(ValueError):
            lemma_checks(0, 3)
