import json
import subprocess
import sys

import pytest

from macgap.cli import MAX_LEMMA_CHECKS, MAX_MACAULAY_LEVEL, main
from macgap.hermitian import format_map, parse_map, sharpness_map


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

    def test_gap_argument(self, capsys):
        rc, out, _ = run(capsys, "verify", "gap-argument", "--max-n", "20", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"]
        assert rec["checks"] == rec["case_i"] + rec["case_ii"]

    def test_sharpness(self, capsys):
        rc, out, _ = run(capsys, "verify", "sharpness", "--max-k", "1", "--max-n", "5", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["ok"] and rec["maps"] == 3

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

    def test_text_mode_has_timing(self, capsys):
        rc, out, _ = run(capsys, "verify", "lemma3", "--max-m", "2", "--max-k", "2")
        assert rc == 0
        assert "s)" in out and "violations" in out

    def test_bad_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_bad_seed(self):
        for bad in ("-1", str(2**64)):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "lemma3", "--seed", bad])
            assert exc.value.code == 2


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

    def test_obstruct(self, capsys, tmp_path):
        path = tmp_path / "s.map"
        run(capsys, "map", "gen-sharpness", "2", "3", "-o", str(path))
        rc, out, _ = run(capsys, "map", "obstruct", str(path), "0", "1", "--json")
        assert rc == 0
        (rec,) = records(out)
        assert rec["dim_e"] == 3 and rec["degenerate"] == "E_perp" and rec["holds"]

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


@pytest.mark.parametrize("suite", ["gap-argument", "sharpness"])
def test_checks_survive_optimize(suite):
    # python -O strips assert statements; the suites must still run their
    # invariant checks and pass
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "macgap", "verify", suite, "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (rec,) = records(proc.stdout)
    assert rec["ok"]
