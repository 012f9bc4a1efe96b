"""Seeded workload generators and the known-answer checks for their outputs.

Every workload is a fixed list of `macgap` command lines ("ops") built from
the workload seed alone.  Each op carries a check that re-derives the
expected answer with the standard library only (``math.comb``, ``Fraction``
and closed-form counts), so a wrong answer from the program counts as a
failed op rather than passing silently.

Map files for ``map-queries`` are written here as text, without going
through ``macgap.hermitian.format_map``, so the parser sees input that the
program did not produce itself.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Op:
    argv: list[str]
    kind: str
    expect_code: int
    check: object  # callable(stdout: str) -> error message or None


@dataclass
class Plan:
    ops: list[Op]
    properties: dict = field(default_factory=dict)


def _comb0(a: int, b: int) -> int:
    """C(a, b) under the zero convention: 0 when b = 0 or a < b."""
    if b <= 0 or a < b:
        return 0
    return math.comb(a, b)


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _exact_text(want: str):
    """Check that stdout, stripped, is exactly `want`."""
    def check(stdout):
        got = stdout.strip()
        return None if got == want else f"{got!r}, expected {want!r}"

    return check


def _exact_record(want: dict):
    """Check that stdout is exactly the one JSON record `want`."""
    def check(stdout):
        records = _json_lines(stdout)
        return None if records == [want] else f"unexpected records {records}"

    return check


# ---------------------------------------------------------------------------
# green-sweep: sampled restriction codimension bound, plus a few
# equality-case restriction suites

GREEN_OPS = 180
GREEN_TRIALS = 10
RESTRICTION_OPS = 4
RESTRICTION_ARGS = {"max_n": 3, "max_degree": 3, "trials": 3}


def _check_green(seed: int):
    cells = {(n, d) for n in (2, 3) for d in (2, 3)}

    def check(stdout):
        records = _json_lines(stdout)
        common = {"cmd": "verify", "suite": "green", "seed": seed,
                  "trials": GREEN_TRIALS, "ok": True}
        seen = set()
        for rec in records[:-1]:
            want = dict(common, n=rec.get("n"), d=rec.get("d"), subspaces=1,
                        checks=GREEN_TRIALS, violations=0)
            if rec != want:
                return f"unexpected cell record {rec}"
            seen.add((rec["n"], rec["d"]))
        if seen != cells or len(records) != len(cells) + 1:
            return f"cells {sorted(seen)} in {len(records)} records"
        summary = dict(common, event="summary", checks=GREEN_TRIALS * len(cells))
        if records[-1] != summary:
            return f"unexpected summary {records[-1]}"
        return None

    return check


def _check_restriction(seed: int):
    a = RESTRICTION_ARGS
    return _exact_record({
        "cmd": "verify", "suite": "restriction", "seed": seed,
        "max_n": a["max_n"], "max_degree": a["max_degree"],
        "trials": a["trials"], "violations": 0, "ok": True,
        "checks": a["max_n"] * a["max_degree"] * a["trials"]})


def green_sweep(rng: random.Random, workdir: Path) -> Plan:
    ops = []
    for _ in range(GREEN_OPS):
        s = rng.getrandbits(32)
        argv = ["verify", "green", "--json", "--seed", str(s),
                "--subspaces", "1", "--trials", str(GREEN_TRIALS)]
        ops.append(Op(argv, "green", 0, _check_green(s)))
    a = RESTRICTION_ARGS
    for _ in range(RESTRICTION_OPS):
        s = rng.getrandbits(32)
        argv = ["verify", "restriction", "--json", "--seed", str(s),
                "--max-n", str(a["max_n"]), "--max-degree", str(a["max_degree"]),
                "--trials", str(a["trials"])]
        ops.append(Op(argv, "restriction", 0, _check_restriction(s)))
    rng.shuffle(ops)
    return Plan(ops)


# ---------------------------------------------------------------------------
# map-queries: gap-endpoint maps disguised by form-preserving transforms

# (k, n) shapes, each with k(k+1) < n so the endpoint kn+k lies in J_k.
MAP_SHAPES = [(1, 4), (1, 8), (1, 12), (1, 16), (1, 20),
              (2, 7), (2, 10), (2, 13), (2, 16),
              (3, 13), (3, 15), (3, 17)]
MAP_COPIES = 8  # maps per shape
ROTATIONS = 2
BOOSTS = 1

# A component is {exponents: (re, im)} with Fraction parts.
ROT = (Fraction(3, 5), Fraction(4, 5))
BOOST = (Fraction(5, 4), Fraction(3, 4))


def _mix(f, g, a, b, c, d):
    """(a f + b g, c f + d g) for real rational a, b, c, d."""
    def comb(x, y, u, v):
        out = {}
        for e in set(x) | set(y):
            xr, xi = x.get(e, (0, 0))
            yr, yi = y.get(e, (0, 0))
            r, i = u * xr + v * yr, u * xi + v * yi
            if r or i:
                out[e] = (r, i)
        return out
    return comb(f, g, a, b), comb(f, g, c, d)


def _phase(f, unit):
    ur, ui = unit
    return {e: (r * ur - i * ui, r * ui + i * ur) for e, (r, i) in f.items()}


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly_text(f) -> str:
    terms = []
    for e in sorted(f, reverse=True):
        r, i = f[e]
        coeff = _frac_text(Fraction(r))
        if i:
            coeff += "," + _frac_text(Fraction(i))
        terms.append(coeff + " " + " ".join(map(str, e)))
    return "; ".join(terms)


@dataclass
class GenMap:
    k: int
    n: int
    pos: list
    neg: list
    perturbed: bool
    gaussian: bool

    @property
    def nv(self) -> int:
        return self.n + 1

    def text(self) -> str:
        k, nv = self.k, self.nv
        lines = [f"source {k} {nv - k} 0", f"target {len(self.pos)} {len(self.neg)} 0",
                 "degree 3", "%pos"]
        lines += [_poly_text(f) for f in self.pos]
        lines.append("%neg")
        lines += [_poly_text(f) for f in self.neg]
        lines.append("%null")
        return "\n".join(lines) + "\n"

    def monomials(self) -> set:
        return {e for f in self.pos + self.neg for e in f}


def gen_map(rng: random.Random, k: int, n: int, perturbed: bool, gaussian: bool) -> GenMap:
    """The endpoint map z_i^2 z_j (i < k), positive for j < k, under seeded
    unit phases, block permutations, (3/5, 4/5) rotations within a block and
    (5/4, 3/4) boosts across blocks.  All of them preserve the target form,
    so the pairing, the quotient sum_{j<k} z_j^2 w~_j^2 and the span kn+k-1
    are unchanged.  A perturbed map gets z_q^3 (q >= k) added to one
    component, which keeps the span and breaks orthogonality."""
    nv = n + 1

    def monomial(i, j):
        e = [0] * nv
        e[i] += 2
        e[j] += 1
        return {tuple(e): (Fraction(1), Fraction(0))}

    pos = [monomial(i, j) for i in range(k) for j in range(k)]
    neg = [monomial(i, j) for i in range(k) for j in range(k, nv)]
    for _ in range(ROTATIONS):
        block = pos if len(pos) >= 2 and rng.random() < 0.5 else neg
        a, b = rng.sample(range(len(block)), 2)
        c, s = ROT
        block[a], block[b] = _mix(block[a], block[b], c, s, -s, c)
    for _ in range(BOOSTS):
        a, b = rng.randrange(len(pos)), rng.randrange(len(neg))
        ch, sh = BOOST
        pos[a], neg[b] = _mix(pos[a], neg[b], ch, sh, sh, ch)
    units = [(1, 0), (-1, 0)] + ([(0, 1), (0, -1)] if gaussian else [])
    for block in (pos, neg):
        rng.shuffle(block)
        for idx in range(len(block)):
            block[idx] = _phase(block[idx], rng.choice(units))
    if gaussian and not any(i for f in pos + neg for _, i in f.values()):
        neg[0] = _phase(neg[0], (0, 1))
    if perturbed:
        block = rng.choice([pos, neg])
        idx = rng.randrange(len(block))
        f = dict(block[idx])
        # some monomial of f avoids z_q, so f does not vanish on w_q = 0,
        # and the pair (e_q, w) with w_q = 0 is orthogonal with images that
        # pair to conj(f(w)) != 0 for generic w
        q = rng.choice([v for v in range(k, nv) if any(e[v] == 0 for e in f)])
        e = [0] * nv
        e[q] = 3
        f[tuple(e)] = (Fraction(1), Fraction(0))
        block[idx] = f
    return GenMap(k, n, pos, neg, perturbed, gaussian)


def _evaluate(f, point):
    """f(point) over Gaussian rationals given as (re, im) Fraction pairs."""
    tr, ti = Fraction(0), Fraction(0)
    for e, (cr, ci) in f.items():
        ar, ai = cr, ci
        for (zr, zi), p in zip(point, e):
            for _ in range(p):
                ar, ai = ar * zr - ai * zi, ar * zi + ai * zr
        tr, ti = tr + ar, ti + ai
    return tr, ti


def _hermitian(x, y, eps):
    """sum eps_j x_j conj(y_j) as an (re, im) pair."""
    tr, ti = Fraction(0), Fraction(0)
    for (xr, xi), (yr, yi), e in zip(x, y, eps):
        tr += e * (xr * yr + xi * yi)
        ti += e * (xi * yr - xr * yi)
    return tr, ti


def _parse_point(text: str):
    out = []
    for tok in text.split():
        parts = tok.split(",")
        out.append((Fraction(parts[0]), Fraction(parts[1]) if len(parts) > 1 else Fraction(0)))
    return out


def _check_span(m: GenMap):
    return _exact_text(str(m.k * m.n + m.k - 1))


def _quotient_text(k: int, nv: int) -> str:
    terms = []
    for j in range(k):
        e = [0] * (2 * nv)
        e[j] = 2
        e[nv + j] = 2
        terms.append("1/1 " + " ".join(map(str, e)))
    return "; ".join(terms)


def _check_orth(m: GenMap):
    quotient = _quotient_text(m.k, m.nv)
    src_eps = [1] * m.k + [-1] * (m.nv - m.k)
    tgt_eps = [1] * len(m.pos) + [-1] * len(m.neg)
    comps = m.pos + m.neg

    def check(stdout):
        records = _json_lines(stdout)
        if len(records) != 1:
            return f"{len(records)} records"
        rec = records[0]
        if not m.perturbed:
            want = {"cmd": "map", "action": "check-orth", "verdict": True,
                    "quotient": quotient}
            return None if rec == want else f"unexpected record {rec}"
        if rec.get("verdict") is not False or set(rec) != {
                "cmd", "action", "verdict", "witness_z", "witness_w"}:
            return f"perturbed map not refused: {rec}"
        z, w = _parse_point(rec["witness_z"]), _parse_point(rec["witness_w"])
        if len(z) != m.nv or len(w) != m.nv:
            return "witness has the wrong length"
        if _hermitian(z, w, src_eps) != (0, 0):
            return "witness pair is not orthogonal"
        fz = [_evaluate(f, z) for f in comps]
        fw = [_evaluate(f, w) for f in comps]
        if _hermitian(fz, fw, tgt_eps) == (0, 0):
            return "witness images are orthogonal"
        return None

    return check


def _check_obstruct(m: GenMap, e_set: list[int]):
    k, nv = m.k, m.nv
    perp = [v for v in range(nv) if v not in e_set]

    def dim(keep):
        # surviving components are the monomials z_i^2 z_j with i, j in keep
        count = sum(1 for i in keep if i < k) * len(keep)
        return count - 1

    de, dp = dim(e_set), dim(perp)
    degenerate = {(False, False): None, (True, False): "E",
                  (False, True): "E_perp", (True, True): "both"}[(de < 0, dp < 0)]
    return _exact_record({
        "cmd": "map", "action": "obstruct", "e": e_set, "dim_e": de,
        "dim_eperp": dp, "bound": k * nv - 2, "degenerate": degenerate,
        "holds": True})


def map_queries(rng: random.Random, workdir: Path) -> Plan:
    ops = []
    maps = []
    for k, n in MAP_SHAPES:
        for copy in range(MAP_COPIES):
            # half the maps perturbed, and half of each half with Gaussian
            # phases, so both rank paths run on both verdicts
            perturbed = copy >= MAP_COPIES // 2
            gaussian = copy % 2 == 1
            m = gen_map(rng, k, n, perturbed, gaussian)
            path = workdir / f"map_{len(maps):03d}.map"
            path.write_text(m.text(), encoding="utf-8")
            maps.append(m)
            name = str(path)
            ops.append(Op(["map", "span", name], "span", 0, _check_span(m)))
            ops.append(Op(["map", "check-orth", "--json", name], "check-orth",
                          1 if perturbed else 0, _check_orth(m)))
            if not perturbed:
                # E holds half of the positive coordinates (rounded up) and
                # half of the negative ones, so the work of an op depends on
                # the shape and not on the seed
                e_set = sorted(rng.sample(range(k), (k + 1) // 2)
                               + rng.sample(range(k, m.nv), (m.nv - k) // 2))
                ops.append(Op(["map", "obstruct", "--json", name, *map(str, e_set)],
                              "obstruct", 0, _check_obstruct(m, e_set)))
    rng.shuffle(ops)
    support = [len(m.monomials()) / math.comb(m.nv + 2, 3) for m in maps]
    props = {
        "maps": len(maps),
        "gaussian_map_share": sum(m.gaussian for m in maps) / len(maps),
        "perturbed_map_share": sum(m.perturbed for m in maps) / len(maps),
        "span_column_support_share": sum(support) / len(support),
        "map_bytes": sum(len(m.text()) for m in maps),
    }
    return Plan(ops, props)


# ---------------------------------------------------------------------------
# index-calc: Macaulay representations and shifts, gap classification

LEMMA3 = (8, 8)
BIG_MACAULAY = (1_000_000, 2)
GAP_ARGUMENT_MAX_N = 120
MACAULAY_OPS = 120
MACAULAY_MAX_A = 30_000
MACAULAY_MAX_LEVEL = 8
GAP_OPS = 60
GAP_MAX_N = 400

_MAC_RE = re.compile(r"^(\d+) = (C\(\d+,\d+\)(?:\+C\(\d+,\d+\))*)$")


def _check_macaulay(A: int, n: int):
    def check(stdout):
        lines = stdout.splitlines()
        if len(lines) != 4:
            return f"{len(lines)} lines"
        m = _MAC_RE.match(lines[0])
        if not m or int(m.group(1)) != A:
            return f"bad representation line {lines[0]!r}"
        terms = [tuple(map(int, t)) for t in re.findall(r"C\((\d+),(\d+)\)", m.group(2))]
        levels = [lev for _, lev in terms]
        tops = [top for top, _ in terms]
        if levels != list(range(n, n - len(terms), -1)) or levels[-1] < 1:
            return f"levels {levels} at n={n}"
        if any(a <= b for a, b in zip(tops, tops[1:])) or any(t < lv for t, lv in terms):
            return f"tops {tops} not strictly decreasing above their levels"
        if sum(math.comb(t, lv) for t, lv in terms) != A:
            return "representation does not sum to A"
        want = [
            f"lower {sum(_comb0(t - 1, lv) for t, lv in terms)}",
            f"minus {sum(_comb0(t - 1, lv - 1) for t, lv in terms)}",
            f"upper {sum(_comb0(t + 1, lv + 1) for t, lv in terms)}",
        ]
        return None if lines[1:] == want else f"shifts {lines[1:]}, expected {want}"

    return check


def _gap_intervals(n: int):
    out = []
    k = 1
    while n > k * (k + 1):
        out.append((k, k * n + k, (k + 1) * n - (k * k + 1)))
        k += 1
    return out


def _check_gap(n: int, N: int):
    hit = [(k, lo, hi) for k, lo, hi in _gap_intervals(n) if lo <= N <= hi]
    if hit:
        k, lo, hi = hit[0]
        return _exact_text(f"{N} in gap J_{k} = [{lo}, {hi}]")
    return _exact_text(f"{N} not in any gap interval")


def _check_lemma3(max_m: int, max_k: int):
    # every split A + B = C(m+k, k) - 1 with A, B >= 0 is one check
    checks = sum(math.comb(m + k, k) for m in range(1, max_m + 1)
                 for k in range(1, max_k + 1))
    return _exact_record({
        "cmd": "verify", "suite": "lemma3", "max_m": max_m, "max_k": max_k,
        "checks": checks, "violations": 0, "ok": True})


def _check_gap_argument(max_n: int):
    case_i = case_ii = 0
    for n in range(1, max_n + 1):
        n1 = (n - 1) // 2
        a = 0
        while a * (a + 1) // 2 <= n - (a * a + 5 * a + 6) // 2:
            lo, hi = a * (a + 1) // 2, n - (a * a + 5 * a + 6) // 2
            first = max(0, min(hi, n1 - a - 1) - lo + 1)
            case_i += first
            case_ii += hi - lo + 1 - first
            a += 1
    return _exact_record({
        "cmd": "verify", "suite": "gap-argument", "max_n": max_n,
        "checks": case_i + case_ii, "case_i": case_i, "case_ii": case_ii,
        "violations": 0, "ok": True})


def index_calc(rng: random.Random, workdir: Path) -> Plan:
    m, k = LEMMA3
    A, n = BIG_MACAULAY
    ops = [
        Op(["verify", "lemma3", "--json", "--max-m", str(m), "--max-k", str(k)],
           "lemma3", 0, _check_lemma3(m, k)),
        Op(["macaulay", str(A), str(n)], "macaulay", 0, _check_macaulay(A, n)),
        Op(["verify", "gap-argument", "--json", "--max-n", str(GAP_ARGUMENT_MAX_N)],
           "gap-argument", 0, _check_gap_argument(GAP_ARGUMENT_MAX_N)),
    ]
    # A is log-uniform on [1, MACAULAY_MAX_A], drawn one per equal-width
    # stratum of log A so the total table work barely moves between seeds
    largest = 0
    for i in range(MACAULAY_OPS):
        u = (i + rng.random()) / MACAULAY_OPS
        A = max(1, round(math.exp(u * math.log(MACAULAY_MAX_A))))
        n = 1 + i % MACAULAY_MAX_LEVEL
        largest = max(largest, A)
        ops.append(Op(["macaulay", str(A), str(n)], "macaulay", 0, _check_macaulay(A, n)))
    in_gap = 0
    for i in range(GAP_OPS):
        n = rng.randint(8, GAP_MAX_N)
        intervals = _gap_intervals(n)
        if i % 2 == 0:
            _, lo, hi = rng.choice(intervals)
            N = rng.randint(lo, hi)
        else:
            top = intervals[-1][2] + n
            while True:
                N = rng.randint(1, top)
                if not any(lo <= N <= hi for _, lo, hi in intervals):
                    break
        in_gap += i % 2 == 0
        ops.append(Op(["gap", str(n), str(N)], "gap", 0, _check_gap(n, N)))
    rng.shuffle(ops)
    props = {"largest_A": max(largest, BIG_MACAULAY[0]),
             "largest_sampled_A": largest, "in_gap_share": in_gap / GAP_OPS}
    return Plan(ops, props)


WORKLOADS = {
    "green-sweep": green_sweep,
    "map-queries": map_queries,
    "index-calc": index_calc,
}


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """The op list of one workload; map files go to `workdir`."""
    plan = WORKLOADS[workload](random.Random(f"{workload}|{seed}"), workdir)
    mix: dict[str, int] = {}
    for op in plan.ops:
        mix[op.kind] = mix.get(op.kind, 0) + 1
    plan.properties = {"ops": len(plan.ops), "op_mix": dict(sorted(mix.items())),
                       **plan.properties}
    return plan
