import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macgap.cli
import macgap.gap_calc
import macgap.hermitian
import macgap.polyspace
from macgap.cli import (
    EXIT_INTERNAL,
    LEMMA_COUNT_CAP,
    MAX_GAP_ARGUMENT_CHECKS,
    MAX_GAP_ROWS,
    MAX_LEMMA_CHECKS,
    MAX_MACAULAY_DIGITS,
    MAX_MACAULAY_LEVEL,
    MAX_RANK_WORK,
    main,
)
from macgap.binom_core import LemmaSweepReport, lemma_checks_upto
from macgap.gap_calc import (
    GapArgumentReport,
    GapSweepReport,
    gap_argument_checks,
    interval_counts,
)
from macgap.hermitian import (
    MAX_MAP_MONOMIALS,
    MAX_PAIRING_KEY_BYTES,
    MAX_PAIRING_TERMS,
    MapFormatError,
    SharpnessSuiteReport,
    format_map,
    parse_map,
    sharpness_map,
)
from macgap.polyspace import GreenRecord, GreenSuiteReport, monomial_basis, rank_work_upto
from macgap.record import SuiteReport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestMacaulay:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "macaulay", "8", "3")
        assert rc == 0
        assert "8 = C(4,3)+C(3,2)+C(1,1)" in out
        assert "minus 5" in out
        assert "lower 2" in out and "upper 10" in out

    def test_four_term_rep(self, capsys):
        rc, out, _ = run(capsys, "macaulay", "13", "5")
        assert rc == 0
        assert "C(6,5)+C(5,4)+C(3,3)+C(2,2)" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "macaulay", "8", "3", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec == {
            "cmd": "macaulay", "A": 8, "n": 3,
            "rep": "C(4,3)+C(3,2)+C(1,1)", "lower": 2, "minus": 5, "upper": 10,
        }

    def test_domain_error(self, capsys):
        rc, _, err = run(capsys, "macaulay", "0", "3")
        assert rc == 2
        assert "error:" in err

    def test_level_one(self, capsys):
        rc, out, _ = run(capsys, "macaulay", "5000", "1")
        assert rc == 0
        assert "5000 = C(5000,1)" in out

    def test_large_value(self, capsys):
        rc, out, _ = run(capsys, "macaulay", "100000000", "2", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["rep"] == "C(14142,2)+C(8989,1)"

    def test_level_limit(self, capsys):
        rc, out, err = run(capsys, "macaulay", "5", str(MAX_MACAULAY_LEVEL + 1))
        assert rc == 2
        assert out == ""
        assert f"limit of {MAX_MACAULAY_LEVEL}" in err
        rc, out, _ = run(capsys, "macaulay", "5", str(MAX_MACAULAY_LEVEL))
        assert rc == 0

    def test_digit_limit(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("macaulay_rep ran on a refused value")

        monkeypatch.setattr(macgap.cli, "macaulay_rep", never)
        rc, out, err = run(capsys, "macaulay", "9" * 4300, "1")
        assert rc == 2
        assert out == ""
        assert f"limit of {MAX_MACAULAY_DIGITS} digits" in err

    def test_largest_value_prints(self, capsys):
        # the upper shift of 10^2000 - 1 at level 1 has about 4000 digits
        A = 10**MAX_MACAULAY_DIGITS - 1
        rc, out, _ = run(capsys, "macaulay", str(A), "1")
        assert rc == 0
        assert f"upper {A * (A + 1) // 2}" in out

    def test_capacity_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["macaulay", "5", "2", "--capacity", "9"])
        assert exc.value.code == 2


class TestGap:
    def test_table(self, capsys):
        rc, out, _ = run(capsys, "gap", "10")
        assert rc == 0
        assert "J_1 = [11, 18]" in out
        assert "J_2 = [22, 25]" in out
        assert "I_2 = [21, 26]  conjectural (cited)" in out

    def test_table_json(self, capsys):
        rc, out, _ = run(capsys, "gap", "10", "--json")
        assert rc == 0
        recs = records(out)
        families = [(r["family"], r["k"]) for r in recs]
        assert families == [("J", 1), ("J", 2), ("I", 1), ("I", 2), ("I", 3)]
        assert recs[0]["lo"] == 11 and recs[0]["hi"] == 18

    def test_classify_hit(self, capsys):
        rc, out, _ = run(capsys, "gap", "13", "42")
        assert rc == 0
        assert "42 in gap J_3 = [42, 42]" in out

    def test_classify_miss(self, capsys):
        rc, out, _ = run(capsys, "gap", "6", "13")
        assert rc == 0
        assert "not in any gap interval" in out

    def test_classify_json(self, capsys):
        rc, out, _ = run(capsys, "gap", "13", "42", "--json")
        (rec,) = records(out)
        assert rec == {"cmd": "gap", "n": 13, "N": 42, "in_gap": True, "k": 3}

    def test_classify_huge_arguments_at_once(self, capsys):
        # J_k is found in closed form, not by a loop over k
        n, k = 10**20, 10**9
        rc, out, _ = run(capsys, "gap", str(n), str(10**31))
        assert (rc, out) == (0, f"{10**31} not in any gap interval\n")
        for N, in_gap, want_k in ((10**31, False, None), (k * (n + 1), True, k)):
            start = time.perf_counter()
            rc, out, _ = run(capsys, "gap", str(n), str(N), "--json")
            assert time.perf_counter() - start < 1
            assert rc == 0
            assert records(out) == [{"cmd": "gap", "n": n, "N": N, "in_gap": in_gap, "k": want_k}]

    def test_table_row_limit(self, capsys, monkeypatch):
        # the largest n whose J and I rows together fit the limit; the count
        # grows with n, so bisect on its closed form
        lo, hi = 2, 10**12
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if sum(interval_counts(mid)) <= MAX_GAP_ROWS else (lo, mid - 1)
        rc, out, _ = run(capsys, "gap", str(lo))
        assert rc == 0
        assert len(out.splitlines()) == sum(interval_counts(lo)) > MAX_GAP_ROWS - 3

        def never(n):
            raise AssertionError("a refused table was built")

        monkeypatch.setattr(macgap.cli, "gap_intervals", never)
        monkeypatch.setattr(macgap.cli, "comparison_intervals", never)
        for n in (lo + 1, 10**20, 10**4000):
            start = time.perf_counter()
            rc, out, err = run(capsys, "gap", str(n), "--json")
            assert time.perf_counter() - start < 1
            assert (rc, out) == (2, "")
            assert f"limit of {MAX_GAP_ROWS}" in err
        # classifying needs no table, at any n
        rc, out, _ = run(capsys, "gap", str(lo + 1), str(lo))
        assert (rc, out) == (0, f"{lo} not in any gap interval\n")

    def test_small_n_rejected(self, capsys):
        rc, _, err = run(capsys, "gap", "1")
        assert rc == 2
        assert "error:" in err

    def test_small_n_classify_rejected(self, capsys):
        for argv in (("gap", "1", "5"), ("gap", "0", "3")):
            rc, out, err = run(capsys, *argv)
            assert rc == 2
            assert out == "" and "need n >= 2" in err


class TestVerify:
    def test_lemma3(self, capsys):
        rc, out, _ = run(capsys, "verify", "lemma3", "--max-m", "3", "--max-k", "3", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["violations"] == 0 and rec["checks"] > 0

    def test_lemma3_limit(self, capsys):
        rc, out, err = run(capsys, "verify", "lemma3", "--max-m", "14", "--max-k", "14")
        assert rc == 2
        assert out == ""
        assert "155117490 checks" in err
        assert f"limit of {MAX_LEMMA_CHECKS}" in err

    def test_lemma3_limit_at_huge_bounds(self, capsys, monkeypatch):
        # the refusal neither computes the huge binomial nor prints it
        def sweep(*args):
            raise AssertionError("sweep ran above the limit")

        monkeypatch.setattr(macgap.cli, "verify_lemma_binom", sweep)
        for bound in ("100000", "1000000", "9" * 4000):
            start = time.perf_counter()
            rc, out, err = run(capsys, "verify", "lemma3", "--max-m", bound, "--max-k", bound)
            assert time.perf_counter() - start < 2
            assert rc == 2
            assert out == ""
            assert f"more than {LEMMA_COUNT_CAP} checks" in err
            assert f"limit of {MAX_LEMMA_CHECKS}" in err

    def test_lemma3_limit_is_inclusive(self, capsys, monkeypatch):
        # with the limit at exactly the closed-form count of --max-m 3
        # --max-k 3, that sweep runs, and one level more either way is
        # refused
        assert lemma_checks_upto(3, 3, MAX_LEMMA_CHECKS) == 62
        monkeypatch.setattr(macgap.cli, "MAX_LEMMA_CHECKS", 62)
        rc, out, _ = run(capsys, "verify", "lemma3", "--json", "--max-m", "3", "--max-k", "3")
        assert rc == 0
        assert records(out)[0]["checks"] == 62
        for max_m, max_k in (("4", "3"), ("3", "4")):
            rc, out, err = run(capsys, "verify", "lemma3", "--json",
                               "--max-m", max_m, "--max-k", max_k)
            assert rc == 2
            assert out == ""
            assert "117 checks, above the limit of 62" in err

    def _lemma3_runs_with_closed_form_count(self, capsys, max_k):
        start = time.perf_counter()
        rc, out, _ = run(capsys, "verify", "lemma3", "--json",
                         "--max-m", "1", "--max-k", str(max_k))
        assert time.perf_counter() - start < 2
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["checks"] == lemma_checks_upto(1, max_k, MAX_LEMMA_CHECKS)

    def test_lemma3_past_old_terms_boundary_runs(self, capsys):
        # (1, 310) was the first sweep past the old representation-terms limit
        self._lemma3_runs_with_closed_form_count(capsys, 310)

    def test_lemma3_long_level_sweep_runs_at_once(self, capsys):
        # --max-m 1 sweeps as long as --max-k 1410 are only check-bounded:
        # the shift tables hold at most twice as many entries as the checks
        assert lemma_checks_upto(1, 1410, MAX_LEMMA_CHECKS) == 996_165
        self._lemma3_runs_with_closed_form_count(capsys, 1410)

    def test_lemma3_at_the_limit_size(self, capsys):
        rc, out, _ = run(capsys, "verify", "lemma3", "--json", "--max-m", "10", "--max-k", "10")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["violations"] == 0
        assert rec["checks"] == lemma_checks_upto(10, 10, MAX_LEMMA_CHECKS) == 705_410

    # sha256 of `verify lemma3 --json` stdout at bounds whose shift tables
    # take 2-byte entries (C(16, 8) = 12 870 and C(1411, 1) = 1 411) and
    # 4-byte ones (C(20, 10) = 184 756).  Their per-split references would
    # take too long here, so these pin the fast path alone.
    @pytest.mark.parametrize("max_m, max_k, digest", [
        (8, 8, "a24dc64ddf2f2f0c6a03e9d300fe0c73d1c806806a9cda5e7ec3f41b7a49ce78"),
        (10, 10, "e7ec7fa558dc013d0341057dc753dc96eeabb09d4ec8ea7cab5ea5ab4e8fb9a4"),
        (1, 1410, "239c367adc68b0cc333d9b5e128fb0c09b88574019c1b995db45e686558dd016"),
    ])
    def test_lemma3_stdout_is_pinned(self, capsys, max_m, max_k, digest):
        rc, out, _ = run(capsys, "verify", "lemma3", "--json",
                         "--max-m", str(max_m), "--max-k", str(max_k))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_gap_argument(self, capsys):
        rc, out, _ = run(capsys, "verify", "gap-argument", "--max-n", "20", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"]
        assert rec["checks"] == rec["case_i"] + rec["case_ii"]

    def test_gap_argument_limit(self, capsys, monkeypatch):
        # --max-n 441 is the largest sweep within the limit
        assert gap_argument_checks(441) <= MAX_GAP_ARGUMENT_CHECKS < gap_argument_checks(442)
        ran = []

        def sweep(max_n):
            ran.append(max_n)
            return GapSweepReport()

        monkeypatch.setattr(macgap.cli, "gap_argument_sweep", sweep)
        for max_n in ("442", "9" * 4000):
            rc, out, err = run(capsys, "verify", "gap-argument", "--max-n", max_n)
            assert rc == 2
            assert out == ""
            assert f"limit of {MAX_GAP_ARGUMENT_CHECKS}" in err
        assert ran == []
        rc, out, _ = run(capsys, "verify", "gap-argument", "--max-n", "441", "--json")
        assert rc == 0 and ran == [441]
        assert records(out)[0]["max_n"] == 441

    def test_gap_argument_limit_is_inclusive(self, capsys, monkeypatch):
        # with the limit at exactly the closed-form count of --max-n 30,
        # that sweep runs, and --max-n 31 is refused
        assert gap_argument_checks(30) == 932
        monkeypatch.setattr(macgap.cli, "MAX_GAP_ARGUMENT_CHECKS", 932)
        rc, out, _ = run(capsys, "verify", "gap-argument", "--json", "--max-n", "30")
        assert rc == 0
        assert records(out)[0]["checks"] == 932
        rc, out, err = run(capsys, "verify", "gap-argument", "--json", "--max-n", "31")
        assert rc == 2
        assert out == ""
        assert "limit of 932" in err

    def test_gap_argument_at_the_limit_size(self, capsys):
        rc, out, _ = run(capsys, "verify", "gap-argument", "--json", "--max-n", "441")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["violations"] == 0
        assert rec["checks"] == gap_argument_checks(441) == 996_268
        assert (rec["case_i"], rec["case_ii"]) == (499_574, 496_694)

    def test_gap_argument_violation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(macgap.gap_calc, "_dim_bound", lambda a, b, m: 1)
        rc, out, _ = run(capsys, "verify", "gap-argument", "--max-n", "10", "--json")
        assert rc == 1
        summary, *events = records(out)
        assert not summary["ok"] and summary["violations"] == len(events) > 0
        assert all(e["event"] == "violation" and e["total"] == 2 for e in events)

    def test_sharpness(self, capsys):
        rc, out, _ = run(capsys, "verify", "sharpness", "--max-k", "1", "--max-n", "5", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["maps"] == 3

    def test_sharpness_huge_max_k_at_once(self, capsys):
        # no k with k(k+1) >= max_n has a map, so the sweep stops there
        start = time.perf_counter()
        rc, out, _ = run(capsys, "verify", "sharpness", "--max-k", "1000000000000",
                         "--max-n", "5", "--json")
        assert time.perf_counter() - start < 1
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["maps"] == 3 and rec["max_k"] == 10**12

    def test_restriction(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "restriction",
            "--max-n", "2", "--max-degree", "2", "--trials", "2", "--json",
        )
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["checks"] == 8

    def test_green_small(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "green",
            "--subspaces", "2", "--max-n", "2", "--max-degree", "2", "--json",
        )
        assert rc == 0
        recs = records(out)
        assert recs[-1]["event"] == "summary"
        assert all(r["ok"] for r in recs)

    def test_green_repeat_identical(self, capsys):
        argv = ["verify", "green", "--seed", "11", "--subspaces", "3", "--json"]
        rc1 = main(argv)
        first = capsys.readouterr().out
        rc2 = main(argv)
        second = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["verify", "green", "--subspaces", "3", "--trials", "3", "--json"],
        ["verify", "restriction", "--max-n", "3", "--max-degree", "3", "--trials", "2"],
        ["verify", "sharpness", "--max-k", "2", "--max-n", "8", "--json"],
    ])
    def test_suites_stay_on_the_integer_kernel(self, capsys, monkeypatch, argv):
        # the suites restrict through the integer template alone, never
        # through the per-polynomial `restrict`
        def refuse(*args, **kwargs):
            raise AssertionError("a suite left the integer restriction kernel")

        monkeypatch.setattr(macgap.polyspace, "restrict", refuse)
        rc, _, err = run(capsys, *argv)
        assert (rc, err) == (0, "")

    def test_rank_work_limit_refuses_at_once(self, capsys, monkeypatch):
        # the refusal runs no suite and stops its count past the limit
        def suite(*args, **kwargs):
            raise AssertionError("suite ran above the limit")

        monkeypatch.setattr(macgap.cli, "green_suite", suite)
        monkeypatch.setattr(macgap.cli, "veronese_suite", suite)
        huge = "9" * 4000
        for argv in (
            ["green", "--max-n", "12", "--max-degree", "12", "--subspaces", "1", "--trials", "1"],
            ["green", "--subspaces", "100000000", "--trials", "1"],
            ["restriction", "--trials", "1", "--max-n", "8", "--max-degree", "8"],
            ["green", "--max-n", huge, "--max-degree", huge, "--subspaces", huge],
            ["restriction", "--trials", huge, "--max-n", huge],
        ):
            start = time.perf_counter()
            rc, out, err = run(capsys, "verify", *argv)
            assert time.perf_counter() - start < 1
            assert rc == 2 and out == ""
            assert f"limit of {MAX_RANK_WORK}" in err

    def test_rank_work_limit_boundary(self, capsys, monkeypatch):
        ran = []

        def green(ns, ds, subspaces, trials, seed):
            ran.append(("green", subspaces))
            return GreenSuiteReport()

        def restriction(max_n, max_degree, trials, seed):
            ran.append(("restriction", trials))
            return SuiteReport()

        monkeypatch.setattr(macgap.cli, "green_suite", green)
        monkeypatch.setattr(macgap.cli, "veronese_suite", restriction)
        # the default cells: sum of C(n+d, d)^3 over n, d in 2..3 is 10 216,
        # and over n, d in 1..4 it is 446 156; the default green run (200
        # subspaces, each ranked once and once per each of 20 hyperplanes)
        # is well within the limit
        assert rank_work_upto(2, 3, 3, 200 * 21, MAX_RANK_WORK) == 42_907_200
        assert rank_work_upto(2, 3, 3, 2 * 4894, MAX_RANK_WORK) == 2 * 4894 * 10_216
        assert rank_work_upto(2, 3, 3, 2 * 4895, MAX_RANK_WORK) is None
        assert rank_work_upto(1, 4, 4, 224, MAX_RANK_WORK) == 224 * 446_156
        assert rank_work_upto(1, 4, 4, 225, MAX_RANK_WORK) is None
        for suite, extra, flag, below in (("green", ["--trials", "1"], "--subspaces", 4894),
                                          ("restriction", [], "--trials", 224)):
            argv = ["verify", suite, *extra]
            rc, out, err = run(capsys, *argv, flag, str(below + 1))
            assert rc == 2 and out == "" and f"limit of {MAX_RANK_WORK}" in err
            assert ran == []
            rc, _, err = run(capsys, *argv, flag, str(below))
            assert (rc, err) == (0, "")
            assert ran and ran[-1] == (suite, below)
            ran.clear()

    def test_text_mode_has_timing(self, capsys):
        rc, out, _ = run(capsys, "verify", "lemma3", "--max-m", "2", "--max-k", "2")
        assert rc == 0
        assert "s)" in out and "violations" in out

    def test_bad_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_bad_seed(self):
        for suite in ("green", "restriction"):
            for bad in ("-1", str(2**64)):
                with pytest.raises(SystemExit) as exc:
                    main(["verify", suite, "--seed", bad])
                assert exc.value.code == 2


# each suite's options with their defaults; the other options of `verify`
# are refused for it
SUITE_OPTIONS = {
    "lemma3": {"max_m": 6, "max_k": 6},
    "green": {"seed": 0, "subspaces": 200, "trials": 20, "max_n": 3, "max_degree": 3},
    "restriction": {"seed": 0, "trials": 20, "max_n": 4, "max_degree": 4},
    "gap-argument": {"max_n": 60},
    "sharpness": {"max_k": 4, "max_n": 12},
}
ALL_OPTIONS = {option for options in SUITE_OPTIONS.values() for option in options}
UNDECLARED = [(suite, option) for suite, options in SUITE_OPTIONS.items()
              for option in sorted(ALL_OPTIONS - set(options))]
# the summary record keys that are not options: the common ones, then each
# suite's own counts
SUMMARY_KEYS = {"cmd", "suite", "checks", "violations", "ok"}
SUMMARY_EXTRAS = {"lemma3": set(), "restriction": set(),
                  "gap-argument": {"case_i", "case_ii"}, "sharpness": {"maps"}}


def _flag(option):
    return "--" + option.replace("_", "-")


class TestVerifyOptions:
    def test_every_suite_has_its_options(self):
        assert sorted(macgap.cli._SUITES) == sorted(SUITE_OPTIONS)
        assert len(ALL_OPTIONS) == 7 and len(UNDECLARED) == 21

    @pytest.mark.parametrize("suite, option", UNDECLARED,
                             ids=[f"{s}{_flag(o)}" for s, o in UNDECLARED])
    def test_undeclared_option_exits_two(self, capsys, monkeypatch, suite, option):
        def suite_ran(*args, **kwargs):
            raise AssertionError("a suite ran with an option it does not read")

        for name in ("verify_lemma_binom", "green_suite", "veronese_suite",
                     "gap_argument_sweep", "sharpness_suite"):
            monkeypatch.setattr(macgap.cli, name, suite_ran)
        for argv in (["verify", suite, _flag(option), "1"],
                     ["verify", suite, "--json", _flag(option), "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {_flag(option)} 1" in captured.err

    def test_options_follow_the_suite_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "5", "green"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("suite", SUITE_OPTIONS)
    def test_defaults(self, suite):
        args = vars(macgap.cli.build_parser().parse_args(["verify", suite]))
        assert {o: args[o] for o in SUITE_OPTIONS[suite]} == SUITE_OPTIONS[suite]
        assert not ALL_OPTIONS - set(SUITE_OPTIONS[suite]) & set(args)

    @pytest.mark.parametrize("suite", SUITE_OPTIONS)
    def test_help_lists_own_options_with_defaults(self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for option, default in SUITE_OPTIONS[suite].items():
            flag = _flag(option)
            assert re.search(rf"\n  {flag} {option.upper()}\s+[^\n]*\(default {default}\)\n", out)
        for option in ALL_OPTIONS - set(SUITE_OPTIONS[suite]):
            assert _flag(option) + " " not in out

    @pytest.mark.parametrize("suite", SUMMARY_EXTRAS)
    def test_summary_records_echo_the_options(self, capsys, monkeypatch, suite):
        monkeypatch.setattr(macgap.cli, "verify_lemma_binom", _planted_lemma3)
        monkeypatch.setattr(macgap.cli, "veronese_suite", _planted_restriction)
        monkeypatch.setattr(macgap.cli, "gap_argument_sweep", _planted_gap_argument)
        monkeypatch.setattr(macgap.cli, "sharpness_suite", _planted_sharpness)
        # the defaults, then every option off its default
        other = {"seed": 7, "trials": 2, "max_m": 3, "max_k": 2, "max_n": 5, "max_degree": 2}
        for options in (SUITE_OPTIONS[suite], {o: other[o] for o in SUITE_OPTIONS[suite]}):
            argv = [a for o, v in options.items() for a in (_flag(o), str(v))]
            rc, out, _ = run(capsys, "verify", suite, "--json", *argv)
            assert rc == 1
            summary = records(out)[0]
            assert set(summary) == SUMMARY_KEYS | set(options) | SUMMARY_EXTRAS[suite]
            assert {o: summary[o] for o in options} == options


class TestMapTooling:
    def test_gen_round_trip(self, capsys, tmp_path):
        path = tmp_path / "s.map"
        rc, _, _ = run(capsys, "map", "gen-sharpness", "2", "3", "-o", str(path))
        assert rc == 0
        text = path.read_text()
        assert parse_map(text) == sharpness_map(2, 3)
        assert format_map(parse_map(text)) == text

    def test_gen_stdout(self, capsys):
        rc, out, _ = run(capsys, "map", "gen-sharpness", "1", "2")
        assert rc == 0
        assert parse_map(out) == sharpness_map(1, 2)

    def test_gen_map_size_boundary(self, capsys, tmp_path):
        # n = 82: 83 variables in degree 3 span C(85, 3) = 98 770 monomials
        assert math.comb(85, 3) <= MAX_MAP_MONOMIALS < math.comb(86, 3)
        path = tmp_path / "s.map"
        rc, _, _ = run(capsys, "map", "gen-sharpness", "1", "82", "-o", str(path))
        assert rc == 0
        assert parse_map(path.read_text()) == sharpness_map(1, 82)
        rc, out, _ = run(capsys, "map", "span", str(path))
        assert (rc, out) == (0, "82\n")
        refused = tmp_path / "r.map"
        for argv in (["map", "gen-sharpness", "1", "83", "-o", str(refused)],
                     ["map", "gen-sharpness", "2", "100000"],
                     ["verify", "sharpness", "--max-n", "83"],
                     ["verify", "sharpness", "--max-n", "9" * 4000]):
            start = time.perf_counter()
            rc, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert rc == 2 and out == ""
            assert f"limit of {MAX_MAP_MONOMIALS} monomials" in err
        assert not refused.exists()

    def test_check_orth(self, capsys, tmp_path):
        path = tmp_path / "s.map"
        run(capsys, "map", "gen-sharpness", "2", "3", "-o", str(path))
        rc, out, _ = run(capsys, "map", "check-orth", str(path))
        assert rc == 0
        assert "orthogonal: yes" in out
        assert "quotient: 1/1 2 0 0 0 2 0 0 0; 1/1 0 2 0 0 0 2 0 0" in out

    def test_span(self, capsys, tmp_path):
        path = tmp_path / "s.map"
        run(capsys, "map", "gen-sharpness", "2", "3", "-o", str(path))
        rc, out, _ = run(capsys, "map", "span", str(path))
        assert rc == 0
        assert out.strip() == "7"

    def test_span_in_a_wide_monomial_space(self, capsys, tmp_path):
        # 75 variables in degree 3: C(77, 3) = 73 150 monomials, under the
        # map limit; span ranks only the 4 monomials the components use
        assert math.comb(77, 3) == 73_150 < MAX_MAP_MONOMIALS

        def term(coeff, *positions):
            e = [0] * 75
            for i in positions:
                e[i] += 1
            return coeff + " " + " ".join(map(str, e))

        comps = [
            term("1/1", 0, 0, 0),
            term("0/1,1/2", 0, 1, 74) + "; " + term("3/1", 74, 74, 74),
            term("2/1", 0, 0, 0) + "; " + term("-1/7", 74, 74, 74),
            term("1/1", 74, 74, 74),
            term("5/1", 0, 0, 0) + "; " + term("-2/1,1/1", 74, 74, 74),
        ]
        path = tmp_path / "wide.map"
        path.write_text(
            "source 40 35 0\ntarget 3 2 0\ndegree 3\n%pos\n"
            + "\n".join(comps[:3]) + "\n%neg\n" + "\n".join(comps[3:])
            + "\n%null\n"
        )
        rc, out, _ = run(capsys, "map", "span", str(path))
        assert rc == 0
        # z0^3, z0 z1 z74 and z74^3 are independent; the rest lie in their span
        assert out == "2\n"
        rc, out, _ = run(capsys, "map", "span", "--json", str(path))
        assert records(out) == [{"cmd": "map", "action": "span", "span": 2}]

    def test_obstruct(self, capsys, tmp_path):
        path = tmp_path / "s.map"
        run(capsys, "map", "gen-sharpness", "2", "3", "-o", str(path))
        rc, out, _ = run(capsys, "map", "obstruct", str(path), "0", "1", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["dim_e"] == 3 and rec["degenerate"] == "E_perp" and rec["holds"]

    def test_obstruct_echoes_the_index_set(self, capsys, tmp_path):
        # E is a set: repeated and unordered indices give the record of E = {0, 1}
        path = tmp_path / "s.map"
        run(capsys, "map", "gen-sharpness", "2", "4", "-o", str(path))
        rc, out, _ = run(capsys, "map", "obstruct", "--json", str(path), "0", "1")
        assert rc == 0
        (want,) = records(out)
        assert want["e"] == [0, 1]
        for indices in (["0", "0", "1"], ["1", "0", "1", "0"]):
            rc, out, _ = run(capsys, "map", "obstruct", "--json", str(path), *indices)
            assert rc == 0
            assert records(out) == [want]

    def test_prolong_pipeline(self, capsys, tmp_path):
        src = tmp_path / "s.map"
        out_path = tmp_path / "p.map"
        run(capsys, "map", "gen-sharpness", "1", "2", "-o", str(src))
        rc, _, _ = run(
            capsys, "map", "prolong", str(src),
            "1/1 0 1 0", "1/1 0 2 2", "-o", str(out_path),
        )
        assert rc == 0
        F = parse_map(out_path.read_text())
        assert F.target.r == 2 and F.target.s == 3
        rc, out, _ = run(capsys, "map", "check-orth", str(out_path))
        assert rc == 0 and "orthogonal: yes" in out

    def test_prolong_size_boundary(self, capsys, tmp_path):
        # two variables in degree d span d + 1 monomials: psi of degree
        # MAX_MAP_MONOMIALS - 2 on a degree-1 map gives the largest readable map
        src = tmp_path / "s.map"
        src.write_text("source 1 1 0\ntarget 1 1 0\ndegree 1\n%pos\n1/1 1 0\n%neg\n1/1 0 1\n%null\n")
        out_path = tmp_path / "p.map"
        d = MAX_MAP_MONOMIALS - 2
        rc, _, err = run(capsys, "map", "prolong", str(src), f"1/1 {d} 0",
                         f"1/1 {d + 1} 0", "-o", str(out_path))
        assert (rc, err) == (0, "")
        # psi z0 = z0^(d+1), psi z1 = z0^d z1 and phi = z0^(d+1) twice
        # span a projective line
        rc, out, _ = run(capsys, "map", "span", str(out_path))
        assert (rc, out) == (0, "1\n")
        refused = tmp_path / "r.map"
        for e in (d + 1, 10**20):
            start = time.perf_counter()
            rc, out, err = run(capsys, "map", "prolong", str(src), f"1/1 {e} 0",
                               f"1/1 {e + 1} 0", "-o", str(refused))
            assert time.perf_counter() - start < 1
            assert (rc, out) == (2, "")
            assert f"limit of {MAX_MAP_MONOMIALS} monomials" in err
        assert not refused.exists()

    @pytest.mark.parametrize("pivot, z, w", [
        ("0", "3/1 0/1 -3/1", "-3/1 1/1,-3/1 3/1"),
        ("1", "3/1 1/1 -3/1", "1/1 12/1 3/1"),
    ])
    def test_check_orth_witness_per_pivot(self, capsys, tmp_path, pivot, z, w):
        # --pivot picks the chart the witness search samples
        path = tmp_path / "rot.map"
        path.write_text(ROTATED_MAP.format("; 1/1 0 0 3"))
        rc, out, err = run(capsys, "map", "check-orth", "--pivot", pivot, str(path))
        assert (rc, err) == (1, "")
        assert out == f"orthogonal: no\nwitness z: {z}\nwitness w: {w}\n"
        rc, out, _ = run(capsys, "map", "check-orth", "--json", "--pivot", pivot, str(path))
        assert rc == 1
        assert out == (
            '{"action":"check-orth","cmd":"map","verdict":false,'
            f'"witness_w":"{w}","witness_z":"{z}"}}\n'
        )

    def test_check_orth_pivot_validation(self, capsys, tmp_path):
        path = tmp_path / "rot.map"
        path.write_text(ROTATED_MAP.format(""))
        for pivot in ("3", "-1"):
            rc, out, err = run(capsys, "map", "check-orth", "--pivot", pivot, str(path))
            assert rc == 2 and out == ""
            assert "pivot must index a non-null coordinate" in err

    @pytest.mark.parametrize("plant", ["drop", "double"])
    def test_wrong_quotient_exits_four(self, capsys, tmp_path, monkeypatch, plant):
        # the quotient is multiplied back by Q before a "yes" is printed
        real = macgap.hermitian._divide_exact

        def planted(P, Q, keys):
            quo = real(P, Q, keys)
            top = max(quo)
            if plant == "drop":
                del quo[top]
            else:
                a, b = quo[top]
                quo[top] = (2 * a, 2 * b)
            return quo

        monkeypatch.setattr(macgap.hermitian, "_divide_exact", planted)
        path = tmp_path / "s.map"
        run(capsys, "map", "gen-sharpness", "2", "3", "-o", str(path))
        for flags in ([], ["--json"]):
            rc, out, err = run(capsys, "map", "check-orth", *flags, str(path))
            assert rc == EXIT_INTERNAL == 4
            assert out == ""
            assert err == (
                "error: certificate quotient times Q is not the pairing polynomial\n"
            )

    def test_refuted_map(self, capsys, tmp_path):
        path = tmp_path / "no.map"
        path.write_text(
            "source 1 1 0\ntarget 2 0 0\ndegree 1\n"
            "%pos\n1/1 1 0\n1/1 0 1\n%neg\n%null\n"
        )
        rc, out, _ = run(capsys, "map", "check-orth", str(path))
        assert rc == 1
        assert "orthogonal: no" in out
        assert "witness z:" in out and "witness w:" in out

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text(
            "source 1 1 0\ntarget 1 1 0\ndegree 1\n%pos\n1/1 1\n%neg\n1/1 0 1\n%null\n"
        )
        rc, _, err = run(capsys, "map", "check-orth", str(path))
        assert rc == 2
        assert "line 5" in err

    def test_monomial_space_limit(self, capsys, tmp_path):
        # 10 variables in degree 30 would need C(39, 9) ~ 2.1e8 columns
        path = tmp_path / "huge.map"
        path.write_text(
            "source 5 5 0\ntarget 1 0 0\ndegree 30\n"
            "%pos\n1/1 30 0 0 0 0 0 0 0 0 0\n%neg\n%null\n"
        )
        rc, out, err = run(capsys, "map", "span", str(path))
        assert rc == 2
        assert out == ""
        assert f"limit of {MAX_MAP_MONOMIALS} monomials" in err

    def test_monomial_space_boundary(self):
        # two variables in degree d span d + 1 monomials
        d = MAX_MAP_MONOMIALS - 1
        text = "source 1 1 0\ntarget 1 0 0\ndegree {0}\n%pos\n1/1 {0} 0\n%neg\n%null\n"
        assert parse_map(text.format(d)).degree == d
        with pytest.raises(MapFormatError):
            parse_map(text.format(d + 1))
        # the largest benchmark maps: 21 variables in degree 3, C(23, 3) = 1771
        big = "source 3 18 0\ntarget 1 0 0\ndegree 3\n%pos\n1/1 3" + " 0" * 20
        assert parse_map(big + "\n%neg\n%null\n").source.n_vars == 21

    @staticmethod
    def _orthogonal_map(n_vars):
        """The map (z_i g) over n_vars source coordinates, one negative, for
        g dense of degree 2 with coefficients 1-9: orthogonal, since its
        pairing is Q g conj(g).  Each component has C(n_vars+1, 2) terms."""
        g = [(1 + i % 9, e) for i, e in enumerate(monomial_basis(n_vars, 2))]
        comps = ["; ".join(f"{c} " + " ".join(str(x + (j == i)) for j, x in enumerate(e))
                           for c, e in g) for i in range(n_vars)]
        sig = f"{n_vars - 1} 1 0"
        return "\n".join([f"source {sig}", f"target {sig}", "degree 3", "%pos",
                          *comps[:-1], "%neg", comps[-1], "%null", ""])

    def test_pairing_limit_boundary(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "orth.map"
        path.write_text(self._orthogonal_map(3))
        products = 3 * 6**2
        for limit, code in ((products, 0), (products - 1, 2)):
            monkeypatch.setattr(macgap.hermitian, "MAX_PAIRING_TERMS", limit)
            rc, out, err = run(capsys, "map", "check-orth", str(path))
            assert rc == code
            if code:
                assert out == "" and f"{products} term products" in err
            else:
                assert out.startswith("orthogonal: yes")
        monkeypatch.undo()
        # at the limit's own value: 8 coordinates pair 8 * 36^2 = 10 368 products
        path.write_text(self._orthogonal_map(8))
        assert 8 * 36**2 <= MAX_PAIRING_TERMS
        rc, out, _ = run(capsys, "map", "check-orth", str(path))
        assert rc == 0 and out.startswith("orthogonal: yes")

    def test_pairing_limit_refuses_before_pairing(self, capsys, tmp_path, monkeypatch):
        def pairing(*args):
            raise AssertionError("the pairing was built above the limit")

        monkeypatch.setattr(macgap.hermitian, "_pairing_pairs", pairing)
        path = tmp_path / "orth12.map"
        path.write_text(self._orthogonal_map(12))
        start = time.perf_counter()
        rc, out, err = run(capsys, "map", "check-orth", "--json", str(path))
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        assert f"73008 term products, above the limit of {MAX_PAIRING_TERMS}" in err

    @staticmethod
    def _linear_pair_map(n_vars):
        """The map z_0 g, z_1 g over source (1, 1, n_vars - 2), for g linear
        in the last 86 variables with coefficients 1-9: orthogonal, with
        2 * 86^2 = 14 792 term products, the slowest pairing accepted."""
        g = [(1 + i % 9, n_vars - 86 + i) for i in range(86)]
        comps = ["; ".join(f"{c} " + " ".join(str((j == v) + (j == k)) for j in range(n_vars))
                           for c, v in g) for k in range(2)]
        return "\n".join([f"source 1 1 {n_vars - 2}", "target 1 1 0", "degree 2",
                          "%pos", comps[0], "%neg", comps[1], "%null", ""])

    def test_key_width_limit_boundary(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "orth.map"
        path.write_text(self._orthogonal_map(3))
        # (3 * 6^2 products + 3 keys of Q) keys of 2 * 3 one-byte fields
        weight = (3 * 6**2 + 3) * 2 * 3
        for limit, code in ((weight, 0), (weight - 1, 2)):
            monkeypatch.setattr(macgap.hermitian, "MAX_PAIRING_KEY_BYTES", limit)
            rc, out, err = run(capsys, "map", "check-orth", str(path))
            assert rc == code
            if code:
                assert out == "" and f"needs {weight} bytes of packed keys" in err
            else:
                assert out.startswith("orthogonal: yes")

    def test_key_width_limit_at_its_value(self, capsys, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def pairing(*args):
            raise Reached

        monkeypatch.setattr(macgap.hermitian, "_pairing_pairs", pairing)
        path = tmp_path / "wide.map"
        # 14 794 keys of 2 * n_vars bytes: 86 variables weigh 2 544 568
        # bytes, 101 weigh 2 988 388 and 102 weigh 3 017 976
        for n_vars in (86, 101):
            path.write_text(self._linear_pair_map(n_vars))
            assert 14_794 * 2 * n_vars <= MAX_PAIRING_KEY_BYTES
            with pytest.raises(Reached):
                macgap.cli.main(["map", "check-orth", str(path)])
        path.write_text(self._linear_pair_map(102))
        rc, out, err = run(capsys, "map", "check-orth", str(path))
        assert rc == 2 and out == ""
        assert f"3017976 bytes of packed keys, above the limit of {MAX_PAIRING_KEY_BYTES}" in err

    def test_wide_map_refused_before_packing(self, capsys, tmp_path, monkeypatch):
        def packing(*args):
            raise AssertionError("a key was packed above the limit")

        monkeypatch.setattr(macgap.hermitian, "Packing", packing)
        # two constants over 20 000 variables, all but one positive: an
        # 80 KB file whose Q alone would take 19 999 + 1 keys of 40 KB
        zeros = " 0" * 20_000
        path = tmp_path / "wide.map"
        path.write_text(f"source 19999 1 0\ntarget 1 1 0\ndegree 0\n"
                        f"%pos\n1/1{zeros}\n%neg\n2/1{zeros}\n%null\n")
        start = time.perf_counter()
        rc, out, err = run(capsys, "map", "check-orth", str(path))
        assert time.perf_counter() - start < 1
        assert rc == 2 and out == ""
        assert err == ("error: pairing polynomial needs 800080000 bytes of packed keys, "
                       f"above the limit of {MAX_PAIRING_KEY_BYTES}\n")

    def test_internal_check_failure(self, capsys, tmp_path, monkeypatch):
        def no_witness(*args):
            raise RuntimeError("no witness found in 500 samples")

        monkeypatch.setattr(macgap.hermitian, "_witness_search", no_witness)
        path = tmp_path / "no.map"
        path.write_text(
            "source 1 1 0\ntarget 2 0 0\ndegree 1\n"
            "%pos\n1/1 1 0\n1/1 0 1\n%neg\n%null\n"
        )
        rc, out, err = run(capsys, "map", "check-orth", str(path))
        assert rc == EXIT_INTERNAL == 4
        assert out == ""
        assert err == "error: no witness found in 500 samples\n"

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "map", "span", str(tmp_path / "absent.map"))
        assert rc == 3
        assert "error:" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "macgap", "macaulay", "8", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "C(4,3)+C(3,2)+C(1,1)" in proc.stdout


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "gap-argument", "--json"], id="gap-argument"),
    pytest.param(["verify", "sharpness", "--json"], id="sharpness"),
    pytest.param(["verify", "green", "--json", "--subspaces", "5", "--trials", "4"], id="green"),
    pytest.param(["verify", "restriction", "--json", "--max-n", "3", "--max-degree", "3",
                  "--trials", "3"], id="restriction"),
])
def test_checks_survive_optimize(argv):
    # python -O strips assert statements; the suites must still run their
    # invariant checks, pass, and print what a normal run prints
    optimized, normal = (
        subprocess.run([sys.executable, *flags, "-m", "macgap", *argv],
                       capture_output=True, text=True)
        for flags in (["-O"], [])
    )
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == normal.stdout
    recs = records(optimized.stdout)
    assert recs and all(rec["ok"] for rec in recs)


# a gap-endpoint map with its negative pair rotated by (3/5, 4/5) and one
# component phased by i: orthogonal, and refused once z2^3 is added
ROTATED_MAP = """source 1 2 0
target 1 2 0
degree 3
%pos
1/1 3 0 0
%neg
0,3/5 2 1 0; 0,4/5 2 0 1
-4/5 2 1 0; 3/5 2 0 1{}
%null
"""


@pytest.mark.parametrize("extra, verdict_code", [("", 0), ("; 1/1 0 0 3", 1)],
                         ids=["orthogonal", "refused"])
def test_map_commands_survive_optimize(tmp_path, extra, verdict_code):
    # the span, pairing and zero-test kernels check their invariants
    # without assert, so -O changes neither exit codes nor output
    path = tmp_path / "rot.map"
    path.write_text(ROTATED_MAP.format(extra))
    for argv, code in [
        (["map", "span", str(path)], 0),
        (["map", "obstruct", "--json", str(path), "0", "1"], 0),
        (["map", "check-orth", "--json", str(path)], verdict_code),
    ]:
        optimized, normal = (
            subprocess.run([sys.executable, *flags, "-m", "macgap", *argv],
                           capture_output=True, text=True)
            for flags in (["-O"], [])
        )
        assert optimized.returncode == normal.returncode == code, optimized.stderr
        assert optimized.stdout == normal.stdout != ""


# (argv, expected exit code, whether `_fast_args` parses it rather than
# argparse); "<file>" stands for a map file.  The text-mode `verify` line
# carries a timing, so the verify runs here are JSON.
PROCESS_SEQUENCE = [
    (["macaulay", "8", "3"], 0, True),
    (["gap", "13", "42", "--json"], 0, True),
    (["verify", "lemma3", "--max-m", "3", "--max-k", "3", "--json"], 0, True),
    (["verify", "nope"], 2, False),
    (["map", "gen-sharpness", "1", "2"], 0, True),
    (["verify", "restriction", "--json", "--max-n", "2", "--max-degree", "2", "--trials", "2"],
     0, True),
    (["macaulay", "--json"], 2, False),
    (["gap", "1", "5"], 2, True),
    (["macaulay", "8", "3", "--json"], 0, True),
    # a negative number, positionals split by an option, an option value
    # after "=", and an abbreviation
    (["macaulay", "-5", "3"], 2, False),
    (["gap", "5", "--json", "7"], 2, False),
    (["verify", "lemma3", "--max-m=3", "--max-k", "3", "--json"], 0, False),
    (["map", "span", "--js", "<file>"], 0, False),
    (["map", "span", "--json", "<file>"], 0, True),
]


def test_one_parser_serves_a_whole_process(capsys, monkeypatch, tmp_path):
    builds, built_at = [], []
    real = macgap.cli.build_parser

    def counting():
        builds.append(1)
        built_at.append(sys.argv[1:])
        return real()

    tried = []
    fast_args = macgap.cli._fast_args

    def trying(argv):
        tried.append(argv)
        return fast_args(argv)

    path = tmp_path / "s.map"
    path.write_text(format_map(sharpness_map(1, 2)))
    sequence = [([str(path) if a == "<file>" else a for a in argv], rc)
                for argv, rc, _ in PROCESS_SEQUENCE]
    monkeypatch.setattr(macgap.cli, "build_parser", counting)
    monkeypatch.setattr(macgap.cli, "_fast_args", trying)
    macgap.cli._parser.cache_clear()
    in_process = []
    for argv, _ in sequence:
        # main() reads sys.argv, as `python -m macgap` does
        monkeypatch.setattr(sys, "argv", ["macgap", *argv])
        try:
            rc = main()
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err))
    macgap.cli._parser.cache_clear()
    assert builds == [1]
    # plain lines never build argparse: the first line it has to parse does
    assert built_at == [["verify", "nope"]]
    assert tried == [argv for argv, _ in sequence]
    for (argv, want_rc), (rc, out, err) in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "macgap", *argv],
                               capture_output=True, text=True)
        assert rc == fresh.returncode == want_rc, argv
        assert out == fresh.stdout, argv
        assert err == fresh.stderr, argv


# Drawn command lines: the fast path gives argparse's namespace or declines.

def _leaves(parser, path=()):
    """(command path, parser) of every parser that takes no sub-command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*path, name))
            return
    yield path, parser


LEAVES = list(_leaves(macgap.cli.build_parser()))
_SIGNED = st.integers(-10**4, 10**4)
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")
# integers as text in the forms int() reads, and some it does not
INT_TEXTS = st.one_of(
    _SIGNED.map(str),
    _SIGNED.map(lambda v: f"{v:+}"),
    st.integers(0, 10**6).map(lambda v: "_".join(str(v))),
    st.integers(0, 10**4).map(lambda v: str(v).translate(_ARABIC_INDIC)),
    st.tuples(_SIGNED, st.sampled_from([" ", "\t", "  "])).map(lambda p: f"{p[1]}{p[0]}{p[1]}"),
    st.sampled_from(["", "x", "1.5", "s.map", "1 0", "-"]),
)


PLAIN = st.integers(1, 50).map(str)


@st.composite
def argvs(draw):
    """A command path, then its options but help (absent, once or repeated,
    each with its value), about as many positionals as it takes, in one run or
    scattered, and sometimes a token outside the plain shape, in a drawn
    order.  Sometimes the path itself is cut short or abbreviated."""
    path, parser = draw(st.sampled_from(LEAVES))
    options = [a for a in parser._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    longs = [s for a in options for s in a.option_strings if s.startswith("--")]
    # plain values in half the lines, so that a good share of them parse
    values = PLAIN
    if draw(st.booleans()):
        values = st.one_of(PLAIN, INT_TEXTS, st.sampled_from(longs))
    chunks = []
    for action in options:
        for _ in range(draw(st.integers(0, 2))):
            flag = draw(st.sampled_from(action.option_strings))
            chunks.append([flag] if action.nargs == 0 else [flag, draw(values)])
    takes = len([a for a in parser._actions if not a.option_strings])
    count = draw(st.sampled_from([takes, takes, takes + 1, max(0, takes - 1)]))
    run = [draw(values) for _ in range(count)]
    chunks += [run] if draw(st.booleans()) else [[token] for token in run]
    if draw(st.integers(0, 3)) == 0:
        chunks.append([draw(st.one_of(
            st.sampled_from(longs).flatmap(
                lambda s: st.integers(3, len(s) - 1).map(lambda k: s[:k])),
            st.tuples(st.sampled_from(longs), values).map("=".join),
            st.sampled_from(["--", "-h", "--help", "--nope"]),
        ))])
    path = list(path)
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(path) - 1))
        path = path[:cut] + draw(st.lists(st.sampled_from([path[cut][:2], path[cut] + "x"]),
                                          max_size=1))
    return path + [token for chunk in draw(st.permutations(chunks)) for token in chunk]


@settings(max_examples=1000, deadline=None)
@given(argvs())
def test_fast_args_is_argparse_or_declines(argv):
    fast = macgap.cli._fast_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = macgap.cli._parser().parse_args(argv)
    except SystemExit:
        assert fast is None, argv
        return
    assert fast is None or vars(fast) == vars(expected), argv


def test_only_a_last_positional_is_optional_or_variadic():
    # `_fast_args` splits positionals greedily, which is argparse's split
    # only while no "?" or "+" positional has another after it
    for path, (_, _, positionals, _) in macgap.cli._COMMANDS.items():
        assert all(nargs is None for _, _, nargs, _ in positionals[:-1]), path


# Each suite's library call replaced by one that returns a report with
# planted violations: pins the records and text lines the CLI builds from a
# report, which a clean run never shows.
def _planted_lemma3(max_m, max_k):
    return LemmaSweepReport(40, [(2, 3, 9, 8), (4, 1, 5, 6)])


def _planted_green(ns, ds, subspaces, trials, seed):
    # one cell call per (n, d); only the (3, 2) cell violates
    (n,), (d,) = ns, ds
    report = GreenSuiteReport(subspace_count=n + d, checks=n * d)
    if (n, d) == (3, 2):
        report.violations.append((3, GreenRecord(n=3, d=2, c=4, c_h=7, bound=5, holds=False)))
    return report


def _planted_restriction(max_n, max_degree, trials, seed):
    return SuiteReport(checks=11, violations=[(2, 3, 9, 10)])


def _planted_gap_argument(max_n):
    bad = GapArgumentReport(n=9, a=1, b=2, n1=4, n2=4, case="I", d_n1=3, d_n2=3,
                            total=2, n_prime=7, holds=False)
    return GapSweepReport(checks=17, case_i=10, case_ii=7, violations=[bad])


def _planted_sharpness(max_k, max_n):
    return SharpnessSuiteReport(maps=5, checks=35,
                                violations=[(1, 3, "span"), (2, 7, "certificate verdict")])


PLANTED = [
    (["lemma3"], [
        '{"checks":40,"cmd":"verify","max_k":6,"max_m":6,"ok":false,"suite":"lemma3","violations":2}',
        '{"A":9,"B":8,"cmd":"verify","event":"violation","k":3,"m":2,"suite":"lemma3"}',
        '{"A":5,"B":6,"cmd":"verify","event":"violation","k":1,"m":4,"suite":"lemma3"}',
    ], [
        "lemma3: 40 checks, 2 violations",
    ]),
    (["green", "--seed", "5", "--trials", "3"], [
        '{"checks":4,"cmd":"verify","d":2,"n":2,"ok":true,"seed":5,"subspaces":4,"suite":"green","trials":3,"violations":0}',
        '{"checks":6,"cmd":"verify","d":3,"n":2,"ok":true,"seed":5,"subspaces":5,"suite":"green","trials":3,"violations":0}',
        '{"checks":6,"cmd":"verify","d":2,"n":3,"ok":false,"seed":5,"subspaces":5,"suite":"green","trials":3,"violations":1}',
        '{"bound":5,"c":4,"c_h":7,"cmd":"verify","d":2,"event":"violation","n":3,"subspace":3,"suite":"green"}',
        '{"checks":9,"cmd":"verify","d":3,"n":3,"ok":true,"seed":5,"subspaces":6,"suite":"green","trials":3,"violations":0}',
        '{"checks":25,"cmd":"verify","event":"summary","ok":false,"seed":5,"suite":"green","trials":3}',
    ], [
        "green n=2 d=2: 4 subspaces, 0 violations",
        "green n=2 d=3: 5 subspaces, 0 violations",
        "green n=3 d=2: 5 subspaces, 1 violations",
        "green n=3 d=3: 6 subspaces, 0 violations",
        "green: 25 checks, ok=False",
    ]),
    (["restriction", "--seed", "5", "--trials", "3"], [
        '{"checks":11,"cmd":"verify","max_degree":4,"max_n":4,"ok":false,"seed":5,"suite":"restriction","trials":3,"violations":1}',
        '{"cmd":"verify","d":3,"event":"violation","expected":10,"got":9,"n":2,"suite":"restriction"}',
    ], [
        "restriction: 11 checks, 1 violations",
    ]),
    (["gap-argument"], [
        '{"case_i":10,"case_ii":7,"checks":17,"cmd":"verify","max_n":60,"ok":false,"suite":"gap-argument","violations":1}',
        '{"a":1,"b":2,"cmd":"verify","event":"violation","n":9,"n_prime":7,"suite":"gap-argument","total":2}',
    ], [
        "gap-argument: 17 checks (case I 10, case II 7), 1 violations",
    ]),
    (["sharpness"], [
        '{"checks":35,"cmd":"verify","maps":5,"max_k":4,"max_n":12,"ok":false,"suite":"sharpness","violations":2}',
        '{"check":"span","cmd":"verify","event":"violation","k":1,"n":3,"suite":"sharpness"}',
        '{"check":"certificate verdict","cmd":"verify","event":"violation","k":2,"n":7,"suite":"sharpness"}',
    ], [
        "sharpness: 5 maps, 35 checks, 2 violations",
    ]),
]


@pytest.mark.parametrize("argv, json_lines, text_lines", PLANTED,
                         ids=[argv[0] for argv, _, _ in PLANTED])
def test_planted_violations_print_exact_records(capsys, monkeypatch, argv, json_lines, text_lines):
    monkeypatch.setattr(macgap.cli, "verify_lemma_binom", _planted_lemma3)
    monkeypatch.setattr(macgap.cli, "green_suite", _planted_green)
    monkeypatch.setattr(macgap.cli, "veronese_suite", _planted_restriction)
    monkeypatch.setattr(macgap.cli, "gap_argument_sweep", _planted_gap_argument)
    monkeypatch.setattr(macgap.cli, "sharpness_suite", _planted_sharpness)
    rc, out, err = run(capsys, "verify", *argv, "--json")
    assert (rc, err) == (1, "")
    assert out == "".join(line + "\n" for line in json_lines)
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, err) == (1, "")
    *lines, timing = out.split("\n")[:-1]
    assert lines == text_lines
    assert re.fullmatch(r"\(\d+\.\d\ds\)", timing)
