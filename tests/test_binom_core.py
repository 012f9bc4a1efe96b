import math
import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgap import binom_core
from macgap.binom_core import (
    binom,
    comb_upto,
    lemma_checks_upto,
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

    @settings(max_examples=300, deadline=None)
    @given(rem=st.integers(1, 10**60), level=st.integers(1, 80), gap=st.integers(1, 10**4))
    def test_search_down_matches_search_up(self, rem, level, gap):
        # any top above the answer has a binomial past rem, so the search
        # down from it must land where the search up from the level does
        top = binom_core._largest_top(rem, level)
        assert math.comb(top, level) <= rem < math.comb(top + 1, level)
        assert binom_core._top_below(rem, level, top + gap) == top

    @settings(max_examples=100, deadline=None)
    @given(A=st.integers(1, 10**80), n=st.integers(1, 60))
    def test_terms_match_search_up_at_every_level(self, A, n):
        terms, rem, level = [], A, n
        while rem:
            top = binom_core._largest_top(rem, level)
            terms.append((top, level))
            rem -= math.comb(top, level)
            level -= 1
        assert macaulay_rep(A, n).terms == tuple(terms)


def per_split_sweep(m_max, k_max):
    """The split identity checked one split at a time, each shift computed
    afresh through the module's op_minus and op_lower."""
    checks, bad = 0, []
    for m in range(1, m_max + 1):
        for k in range(1, k_max + 1):
            total = math.comb(m + k, k) - 1
            target = math.comb(m + k - 1, k) - 1
            for A in range(total + 1):
                checks += 1
                if binom_core.op_minus(A, m) + binom_core.op_lower(total - A, k) != target:
                    bad.append((m, k, A, total - A))
    return checks, bad


def direct_checks(m_max, k_max):
    """The splits the sweep checks, summed directly: C(m+k, k) per (m, k)."""
    return sum(math.comb(m + k, k) for m in range(1, m_max + 1) for k in range(1, k_max + 1))


class TestOps:
    @settings(max_examples=200, deadline=None)
    @given(A=st.integers(1, 10**40), n=st.integers(1, 30))
    def test_rep_methods_match_term_sums(self, A, n):
        def c0(a, b):
            return math.comb(a, b) if b > 0 else 0

        rep = macaulay_rep(A, n)
        assert rep.lower() == op_lower(A, n) == sum(c0(t - 1, lv) for t, lv in rep.terms)
        assert rep.minus() == op_minus(A, n) == sum(c0(t - 1, lv - 1) for t, lv in rep.terms)
        assert rep.upper() == op_upper(A, n) == sum(c0(t + 1, lv + 1) for t, lv in rep.terms)

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

    def test_lookup_matches_per_split_reference(self):
        for m_max, k_max in ((1, 1), (1, 6), (6, 1), (4, 5)):
            report = verify_lemma_binom(m_max, k_max)
            assert (report.checks, report.counterexamples) == per_split_sweep(m_max, k_max)
            assert report.ok

    @staticmethod
    def _corrupt_three_minus_two(monkeypatch):
        """Gives the sweep a level-2 minus table that holds 3^-<2> + 1 at
        A = 3, in a copy of the table's own typecode; returns the list of
        entry widths of every table the sweep is then given."""
        levels = binom_core._shift_levels
        widths = []

        def corrupted(span, top, minus):
            for j, table in levels(span, top, minus):
                widths.append(table.itemsize)
                if minus and j == 2:
                    table = array(table.typecode, table)
                    table[3] += 1
                yield j, table

        monkeypatch.setattr(binom_core, "_shift_levels", corrupted)
        return widths

    def test_wrong_shift_is_recorded(self, monkeypatch):
        # the same wrong value of 3^-<2> in the sweep's minus table and in
        # the reference's op_minus
        right = binom_core.op_minus
        monkeypatch.setattr(
            binom_core, "op_minus", lambda A, m: right(A, m) + (m == 2 and A == 3)
        )
        self._corrupt_three_minus_two(monkeypatch)
        report = verify_lemma_binom(4, 3)
        checks, bad = per_split_sweep(4, 3)
        assert (report.checks, report.counterexamples) == (checks, bad)
        # every split with A = 3 at m = 2, one per k with C(2+k, k) > 3
        assert bad == [(2, k, 3, math.comb(2 + k, k) - 4) for k in (2, 3)]
        assert not report.ok

    @pytest.mark.parametrize("m_max, k_max, width", [(5, 15, 2), (5, 16, 4), (16, 5, 4)])
    def test_wrong_shift_is_recorded_at_each_width(self, monkeypatch, m_max, k_max, width):
        # C(20, 5) = 15 504 fits 2-byte lanes (bound 2^14 = 16 384), and
        # C(21, 5) = 20 349 needs 4 bytes, with the bounds either way round
        assert (math.comb(m_max + k_max, k_max) <= 2**14) == (width == 2)
        widths = self._corrupt_three_minus_two(monkeypatch)
        report = verify_lemma_binom(m_max, k_max)
        assert widths == [width] * (m_max + k_max)
        assert report.checks == direct_checks(m_max, k_max)
        assert report.counterexamples == [
            (2, k, 3, math.comb(2 + k, k) - 4) for k in range(2, k_max + 1)]

    def test_shift_tables_match_ops(self):
        # every X at every level up to the top, for every span up to 8 at
        # top 8 (2-byte entries) and at span 16, top 5 (4-byte entries,
        # since C(21, 5) = 20 349 passes 2^14): the recurrence against the
        # representation-based shifts
        shapes = [(span, 8, 2) for span in range(9)] + [(16, 5, 4)]
        for span, top, width in shapes:
            for minus, op in ((False, op_lower), (True, op_minus)):
                levels = list(binom_core._shift_levels(span, top, minus))
                assert [j for j, _ in levels] == list(range(1, top + 1))
                for j, table in levels:
                    assert table.itemsize == width
                    assert len(table) == math.comb(span + j, j)
                    assert table.tolist() == [op(X, j) for X in range(len(table))]

    def test_shift_tables_take_the_narrowest_lanes(self, monkeypatch):
        # C(span+top, top) at most 2^14 takes 2-byte entries, at most 2^30
        # 4-byte ones and at most 2^62 8-byte ones; one span past each bound
        # takes the next width.  Only the typecode of the first array is
        # read, so no table is built.
        class Allocated(Exception):
            pass

        def allocate(code, *args):
            raise Allocated(array(code).itemsize)

        monkeypatch.setattr(binom_core, "array", allocate)
        for top in (1, 2, 5, 32):
            for width, bound in ((2, 2**14), (4, 2**30), (8, 2**62)):
                span, past = 0, bound
                while past - span > 1:
                    mid = (span + past) // 2
                    span, past = (mid, past) if math.comb(mid + top, top) <= bound else (span, mid)
                for minus in (False, True):
                    for shape, want in (((span, top), width), ((span + 1, top), 2 * width)):
                        for s, t in (shape, shape[::-1]):
                            if want > 8:
                                with pytest.raises(ValueError, match="2\\^62"):
                                    next(binom_core._shift_levels(s, t, minus))
                                continue
                            with pytest.raises(Allocated) as allocated:
                                next(binom_core._shift_levels(s, t, minus))
                            assert allocated.value.args == (want,)

    def test_check_count_closed_form(self):
        # a cap above every count here, so the closed form is never cut
        for m_max in range(1, 8):
            for k_max in range(1, 8):
                assert lemma_checks_upto(m_max, k_max, 10**6) == direct_checks(m_max, k_max)
        assert lemma_checks_upto(10, 10, 10**6) == 705_410
        with pytest.raises(ValueError):
            lemma_checks_upto(0, 3, 10**6)

    def test_capped_count_matches_exact(self):
        for m_max in range(1, 25):
            for k_max in range(1, 25):
                exact = direct_checks(m_max, k_max)
                for cap in (0, 10, exact - 1, exact, exact + 1, 10**6):
                    got = lemma_checks_upto(m_max, k_max, cap)
                    assert got == (exact if exact <= cap else None)
        with pytest.raises(ValueError):
            lemma_checks_upto(3, 0, 10)

    def test_comb_upto_refuses_r_outside_zero_to_n(self):
        # C(3, 5) = 0, so 1 would be wrong; the refusal names the domain
        for n, r in ((3, 5), (3, -1), (-2, 1), (0, 1), (-1, -1)):
            with pytest.raises(ValueError, match="0 <= r <= n"):
                comb_upto(n, r, 100)
        for n in range(12):
            for r in range(n + 1):
                exact = math.comb(n, r)
                assert comb_upto(n, r, 100) == (exact if exact <= 100 else None)

    def test_capped_count_stops_early(self):
        # C(2*10^100 + 2, 10^100 + 1) has about 6 * 10^99 digits; the
        # bounded count gives up after a few dozen steps
        assert lemma_checks_upto(10**100, 10**100, 10**12) is None
        assert lemma_checks_upto(10**100, 1, 10**12) is None
        assert lemma_checks_upto(1, 1, 10**12) == direct_checks(1, 1) == 2

    def test_shift_tables_refuse_lanes_past_the_bound(self, monkeypatch):
        # every entry is below C(span+top, top), which must stay at most
        # 2^62; the refusal comes before any table is allocated
        class Allocated(Exception):
            pass

        def allocate(*args):
            raise Allocated

        monkeypatch.setattr(binom_core, "array", allocate)
        for top in (1, 2, 32):
            # the largest span with C(span+top, top) <= 2^62, by bisection
            span, past = 0, 2**62
            while past - span > 1:
                mid = (span + past) // 2
                span, past = (mid, past) if math.comb(mid + top, top) <= 2**62 else (span, mid)
            for minus in (False, True):
                # at the bound the tables are started, one span past refused
                with pytest.raises(Allocated):
                    next(binom_core._shift_levels(span, top, minus))
                with pytest.raises(ValueError, match="2\\^62"):
                    next(binom_core._shift_levels(span + 1, top, minus))
                # and the same with span and top swapped
                with pytest.raises(ValueError, match="2\\^62"):
                    next(binom_core._shift_levels(top, span + 1, minus))

    def test_table_entries_within_twice_checks(self, monkeypatch):
        # the lower tables are the row m = M of the sum `direct_checks`
        # counts and the minus tables its column k = K, so the sweep's own
        # work is bounded by its check count
        def entries(m_max, k_max):
            return sum(math.comb(m_max + k, k) for k in range(1, k_max + 1)) + sum(
                math.comb(m + k_max, k_max) for m in range(1, m_max + 1)
            )

        for m_max in range(1, 13):
            for k_max in range(1, 13):
                assert entries(m_max, k_max) <= 2 * direct_checks(m_max, k_max)
        built = []
        levels = binom_core._shift_levels

        def counted(span, top, minus):
            for j, table in levels(span, top, minus):
                built[-1] += len(table)
                yield j, table

        monkeypatch.setattr(binom_core, "_shift_levels", counted)
        for bounds in [(m, k) for m in range(1, 7) for k in range(1, 7)] + [(1, 1410)]:
            built.append(0)
            assert verify_lemma_binom(*bounds).ok
            assert built[-1] == entries(*bounds) <= 2 * direct_checks(*bounds)


def elementwise_fails(minus, lower, total, target):
    return any(minus[A] + lower[total - A] != target for A in range(total + 1))


def split_fails(minus, lower, total, target):
    """`_some_split_fails` on a plain minus and lower table, each read the
    way the sweep reads it: minus as chunk lanes, lower reversed."""
    return binom_core._some_split_fails(
        binom_core._chunk_lanes(minus), minus.itemsize, lower[::-1], total, target)


def passing_tables(total, target, rng, width):
    """A pair of tables of `width`-byte entries, one entry past `total` in
    each, on which every split of `total` meets `target`."""
    code = binom_core._TYPECODES[width]
    lower = array(code, [rng.randint(0, target) for _ in range(total + 2)])
    minus = array(code, [target - lower[total - A] for A in range(total + 1)] + [7])
    return minus, lower


# every test below runs at each lane width, inside the test, so that its
# id stays the one it had when the tables were int64 alone
WIDTHS = binom_core._LANE_WIDTHS


def lane_bound(width):
    return 2 ** (8 * width - 2)


class TestPackedLanes:
    CHUNK = binom_core._CHUNK

    @pytest.mark.parametrize("total", [0, 1, 5, CHUNK - 1, CHUNK, 2 * CHUNK + 5])
    def test_planted_failing_split(self, total):
        # a failing split in the first lane, in the middle, at either side
        # of a chunk border, and in the last lane, one split at a time
        for width in WIDTHS:
            rng = random.Random(total)
            target = rng.randint(0, lane_bound(width) // 2)
            minus, lower = passing_tables(total, target, rng, width)
            assert not split_fails(minus, lower, total, target)
            planted = {0, total // 2, total, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1}
            for A in sorted(A for A in planted if A <= total):
                for delta in (1, -1):
                    if minus[A] + delta < 0:
                        continue
                    minus[A] += delta
                    assert split_fails(minus, lower, total, target), (width, A, delta)
                    assert elementwise_fails(minus, lower, total, target)
                    minus[A] -= delta
            assert not split_fails(minus, lower, total, target)

    @pytest.mark.parametrize("total", [0, 5, CHUNK - 2, CHUNK, 2 * CHUNK + 5])
    def test_entries_past_the_splits_are_not_read(self, total):
        # the minus lanes hold the whole table, of which the prefix up to
        # `total` is compared, and the reversed lower table is read from its
        # entry `total` down; the entries past those never count
        for width in WIDTHS:
            rng = random.Random(total)
            target = rng.randint(0, lane_bound(width) // 2)
            minus, lower = passing_tables(total, target, rng, width)
            for extra in (0, 1, lane_bound(width) - 1):
                minus[total + 1] = lower[total + 1] = extra
                assert not split_fails(minus, lower, total, target), (width, extra)

    @settings(max_examples=150, deadline=None)
    @given(width=st.sampled_from(WIDTHS), total=st.integers(0, 2 * CHUNK + 3),
           target=st.integers(0, 2**62 - 1), seed=st.integers(0, 2**32), plants=st.lists(
               st.tuples(st.floats(0, 1), st.integers(-3, 3)), max_size=3))
    def test_drawn_tables_match_the_elementwise_check(self, width, total, target, seed, plants):
        # the drawn target scaled down to this width's bound
        target >>= 64 - 8 * width
        minus, lower = passing_tables(total, target, random.Random(seed), width)
        for where, delta in plants:
            A = round(where * total)
            minus[A] = min(max(minus[A] + delta, 0), lane_bound(width) - 1)
        assert split_fails(minus, lower, total, target) == elementwise_fails(
            minus, lower, total, target)

    def test_negative_entry_cannot_hide_a_failing_neighbour(self):
        # minus[A] = -1 and lower[total - A] = target + 1 meet the target,
        # but as unsigned lanes they carry 1 into the lane of the split that
        # follows in memory order, where the failing sum target - 1 would
        # then read as target: unchecked, the lane sum misses that split
        total, target, A = 9, 1000, 4
        for width in WIDTHS:
            rng = random.Random(0)
            minus, lower = passing_tables(total, target, rng, width)
            after = A + 1 if sys.byteorder == "little" else A - 1
            minus[A], lower[total - A] = -1, target + 1
            minus[after] -= 1
            assert elementwise_fails(minus, lower, total, target)
            reversed_lower = lower[:total + 1]
            reversed_lower.reverse()
            unchecked = (int.from_bytes(minus[:total + 1].tobytes(), sys.byteorder)
                         + int.from_bytes(reversed_lower.tobytes(), sys.byteorder))
            assert unchecked == binom_core._repeated(target, total + 1, width)
            with pytest.raises(RuntimeError, match="outside"):
                split_fails(minus, lower, total, target)

    # the entries named for 8-byte lanes; at width w each is shifted right
    # by 64 - 8w bits, giving -1, -2^(8w-1), 2^(8w-2) and 2^(8w-1) - 1
    @pytest.mark.parametrize("entry", [-1, -(2**63), 2**62, 2**63 - 1])
    def test_out_of_range_entries_refused(self, entry):
        for width in WIDTHS:
            for i in (0, 3, 6):
                table = array(binom_core._TYPECODES[width], [5] * 7)
                table[i] = entry >> (64 - 8 * width)
                with pytest.raises(RuntimeError, match="outside"):
                    binom_core._lanes(table)
                with pytest.raises(RuntimeError, match="outside"):
                    binom_core._chunk_lanes(table)

    def test_lane_values_and_widths(self):
        # entry i in the i-th lane in memory order, with the largest entry
        # a lane takes, at 2, 4 and 8 bytes; 1-byte entries have no lanes
        for width in WIDTHS:
            code, bits = binom_core._TYPECODES[width], 8 * width
            first, second = lane_bound(width) - 1, 3
            low, high = (first, second) if sys.byteorder == "little" else (second, first)
            assert binom_core._lanes(array(code, [first, second])) == low + (high << bits)
            assert binom_core._repeated(5, 2, width) == 5 + (5 << bits)
            assert binom_core._repeated(0, 3, width) == 0
            assert binom_core._repeated(lane_bound(width) - 1, 1, width) == lane_bound(width) - 1
            for value in (-1, lane_bound(width)):
                with pytest.raises(RuntimeError, match="outside"):
                    binom_core._repeated(value, 2, width)
        for code in ("b", "B"):
            with pytest.raises(RuntimeError, match="bytes"):
                binom_core._lanes(array(code, [1, 2]))
        for width in (1, 3):
            with pytest.raises(RuntimeError, match="bytes"):
                binom_core._repeated(1, 2, width)

    def test_prefix_keeps_the_first_lanes(self):
        # a full chunk cut to its first lanes, and the short last chunk,
        # read as if zeros filled it, cut to the entries it holds
        for width in WIDTHS:
            table = array(binom_core._TYPECODES[width], range(1, self.CHUNK + 7))
            lanes = binom_core._chunk_lanes(table)
            assert len(lanes) == 2
            for count in (1, 2, self.CHUNK - 1):
                assert binom_core._prefix(lanes[0], count, width) == binom_core._lanes(
                    table[:count])
            assert binom_core._prefix(lanes[0], self.CHUNK, width) == lanes[0]
            for count in (1, 6):
                assert binom_core._prefix(lanes[1], count, width) == binom_core._lanes(
                    table[self.CHUNK:self.CHUNK + count])

    def test_mismatched_widths_refused(self):
        # minus and lower tables of different entry widths, or minus lanes
        # said to be of another width than the lower entries
        total, target = 5, 100
        for minus_width, lower_width in ((2, 4), (4, 2), (4, 8), (8, 2)):
            minus, _ = passing_tables(total, target, random.Random(0), minus_width)
            _, lower = passing_tables(total, target, random.Random(0), lower_width)
            with pytest.raises(RuntimeError, match="bytes"):
                split_fails(minus, lower, total, target)
            with pytest.raises(RuntimeError, match="bytes"):
                binom_core._some_split_fails(
                    binom_core._chunk_lanes(minus), lower_width, minus[::-1], total, target)
