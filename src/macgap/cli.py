"""Command line front end.

Subcommands: `macaulay` (representation and index shifts), `gap` (interval
tables and membership), `verify` (batch suites), `map` (map file tooling).
Exit codes: 0 success, 1 violation found, 2 usage or domain error, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .binom_core import (
    lemma_checks,
    macaulay_rep,
    op_lower,
    op_minus,
    op_upper,
    verify_lemma_binom,
)
from .gap_calc import (
    classify_gap,
    comparison_intervals,
    gap_argument_sweep,
    gap_intervals,
)
from .hermitian import (
    format_map,
    null_prolongation,
    orthogonality_certificate,
    parse_map,
    sharpness_map,
    sharpness_suite,
    span_obstruction_check,
)
from .polyspace import (
    format_grat,
    format_poly,
    green_suite,
    image_span_dim,
    parse_poly,
    veronese_suite,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Largest `macaulay` level: the representation has up to n terms.
MAX_MACAULAY_LEVEL = 1000
# Largest `verify lemma3` sweep, in checked splits (m, k <= 10 is 705 410).
MAX_LEMMA_CHECKS = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the verification suites.

    Identical config and inputs must give byte-identical machine output, so
    anything time-dependent stays out of the JSON records.
    """

    seed: int = 0
    trials: int = 20
    machine: bool = False


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _config(args) -> RunConfig:
    return RunConfig(
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 20),
        machine=getattr(args, "json", False),
    )


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# macaulay

def cmd_macaulay(args) -> int:
    cfg = _config(args)
    if args.n > MAX_MACAULAY_LEVEL:
        raise ValueError(
            f"level {args.n} is above the limit of {MAX_MACAULAY_LEVEL}"
        )
    rep = macaulay_rep(args.A, args.n)
    lower = op_lower(args.A, args.n)
    minus = op_minus(args.A, args.n)
    upper = op_upper(args.A, args.n)
    if cfg.machine:
        _emit(
            {
                "cmd": "macaulay",
                "A": args.A,
                "n": args.n,
                "rep": str(rep),
                "lower": lower,
                "minus": minus,
                "upper": upper,
            }
        )
    else:
        # one print, so an unprintable value leaves no partial output
        print(f"{args.A} = {rep}\nlower {lower}\nminus {minus}\nupper {upper}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gap

def cmd_gap(args) -> int:
    cfg = _config(args)
    if args.N is None:
        theorem = gap_intervals(args.n)
        cited = comparison_intervals(args.n)
        if cfg.machine:
            for family, rows in (("J", theorem), ("I", cited)):
                for iv in rows:
                    _emit(
                        {
                            "cmd": "gap",
                            "family": family,
                            "n": iv.n,
                            "k": iv.k,
                            "lo": iv.lo,
                            "hi": iv.hi,
                            "tag": iv.tag,
                        }
                    )
        else:
            for iv in theorem:
                print(f"J_{iv.k} = [{iv.lo}, {iv.hi}]")
            for iv in cited:
                print(f"I_{iv.k} = [{iv.lo}, {iv.hi}]  {iv.tag}")
        return EXIT_OK
    verdict = classify_gap(args.n, args.N)
    if cfg.machine:
        _emit(
            {
                "cmd": "gap",
                "n": args.n,
                "N": args.N,
                "in_gap": verdict.in_gap,
                "k": verdict.k,
            }
        )
    elif verdict.in_gap:
        k = verdict.k
        print(f"{args.N} in gap J_{k} = [{k * args.n + k}, {(k + 1) * args.n - (k * k + 1)}]")
    else:
        print(f"{args.N} not in any gap interval")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _suite_lemma3(args, cfg: RunConfig):
    max_m = args.max_m or 6
    max_k = args.max_k or 6
    checks = lemma_checks(max_m, max_k)
    if checks > MAX_LEMMA_CHECKS:
        raise ValueError(
            f"lemma3 sweep --max-m {max_m} --max-k {max_k} needs {checks} "
            f"checks, above the limit of {MAX_LEMMA_CHECKS}"
        )
    report = verify_lemma_binom(max_m, max_k)
    records = [
        {
            "cmd": "verify",
            "suite": "lemma3",
            "max_m": max_m,
            "max_k": max_k,
            "checks": report.checks,
            "violations": len(report.counterexamples),
            "ok": report.ok,
        }
    ]
    for m, k, a, b in report.counterexamples:
        records.append(
            {
                "cmd": "verify",
                "suite": "lemma3",
                "event": "violation",
                "m": m,
                "k": k,
                "A": a,
                "B": b,
            }
        )
    text = [f"lemma3: {report.checks} checks, {len(report.counterexamples)} violations"]
    return report.ok, records, text


def _suite_green(args, cfg: RunConfig):
    ns = tuple(range(2, (args.max_n or 3) + 1))
    ds = tuple(range(2, (args.max_degree or 3) + 1))
    subspaces = args.subspaces
    ok = True
    checks = 0
    records = []
    text = []
    for n in ns:
        for d in ds:
            cell = green_suite(
                ns=(n,),
                ds=(d,),
                subspaces=subspaces,
                trials=cfg.trials,
                seed=cfg.seed,
            )
            checks += cell.checks
            ok = ok and cell.ok
            records.append(
                {
                    "cmd": "verify",
                    "suite": "green",
                    "n": n,
                    "d": d,
                    "subspaces": cell.subspace_count,
                    "trials": cfg.trials,
                    "seed": cfg.seed,
                    "checks": cell.checks,
                    "violations": len(cell.violations),
                    "ok": cell.ok,
                }
            )
            for rec in cell.violations:
                records.append(
                    {
                        "cmd": "verify",
                        "suite": "green",
                        "event": "violation",
                        "n": rec.n,
                        "d": rec.d,
                        "c": rec.c,
                        "c_h": rec.c_h,
                        "bound": rec.bound,
                    }
                )
            text.append(
                f"green n={n} d={d}: {cell.subspace_count} subspaces, "
                f"{len(cell.violations)} violations"
            )
    records.append(
        {
            "cmd": "verify",
            "suite": "green",
            "event": "summary",
            "seed": cfg.seed,
            "trials": cfg.trials,
            "checks": checks,
            "ok": ok,
        }
    )
    text.append(f"green: {checks} checks, ok={ok}")
    return ok, records, text


def _suite_restriction(args, cfg: RunConfig):
    max_n = args.max_n or 4
    max_degree = args.max_degree or 4
    report = veronese_suite(
        max_n=max_n, max_degree=max_degree, trials=cfg.trials, seed=cfg.seed
    )
    records = [
        {
            "cmd": "verify",
            "suite": "restriction",
            "max_n": max_n,
            "max_degree": max_degree,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "checks": report.checks,
            "violations": len(report.violations),
            "ok": report.ok,
        }
    ]
    for n, d, got, expected in report.violations:
        records.append(
            {
                "cmd": "verify",
                "suite": "restriction",
                "event": "violation",
                "n": n,
                "d": d,
                "got": got,
                "expected": expected,
            }
        )
    text = [f"restriction: {report.checks} checks, {len(report.violations)} violations"]
    return report.ok, records, text


def _suite_gap_argument(args, cfg: RunConfig):
    max_n = args.max_n or 60
    report = gap_argument_sweep(max_n)
    records = [
        {
            "cmd": "verify",
            "suite": "gap-argument",
            "max_n": max_n,
            "checks": report.checks,
            "case_i": report.case_i,
            "case_ii": report.case_ii,
            "violations": len(report.violations),
            "ok": report.ok,
        }
    ]
    for r in report.violations:
        records.append(
            {
                "cmd": "verify",
                "suite": "gap-argument",
                "event": "violation",
                "n": r.n,
                "a": r.a,
                "b": r.b,
                "total": r.total,
                "n_prime": r.n_prime,
            }
        )
    text = [
        f"gap-argument: {report.checks} checks "
        f"(case I {report.case_i}, case II {report.case_ii}), "
        f"{len(report.violations)} violations"
    ]
    return report.ok, records, text


def _suite_sharpness(args, cfg: RunConfig):
    max_k = args.max_k or 4
    max_n = args.max_n or 12
    report = sharpness_suite(max_k=max_k, max_n=max_n)
    records = [
        {
            "cmd": "verify",
            "suite": "sharpness",
            "max_k": max_k,
            "max_n": max_n,
            "maps": report.maps,
            "checks": report.checks,
            "violations": len(report.violations),
            "ok": report.ok,
        }
    ]
    for k, n, label in report.violations:
        records.append(
            {
                "cmd": "verify",
                "suite": "sharpness",
                "event": "violation",
                "k": k,
                "n": n,
                "check": label,
            }
        )
    text = [
        f"sharpness: {report.maps} maps, {report.checks} checks, "
        f"{len(report.violations)} violations"
    ]
    return report.ok, records, text


_SUITES = {
    "lemma3": _suite_lemma3,
    "green": _suite_green,
    "restriction": _suite_restriction,
    "gap-argument": _suite_gap_argument,
    "sharpness": _suite_sharpness,
}


def cmd_verify(args) -> int:
    cfg = _config(args)
    start = time.perf_counter()
    ok, records, text = _SUITES[args.suite](args, cfg)
    elapsed = time.perf_counter() - start
    if cfg.machine:
        for record in records:
            _emit(record)
    else:
        for line in text:
            print(line)
        print(f"({elapsed:.2f}s)")
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# map

def _point_text(point) -> str:
    return " ".join(format_grat(c) for c in point)


def cmd_map_gen(args) -> int:
    _write_text(args.output, format_map(sharpness_map(args.k, args.n)))
    return EXIT_OK


def cmd_map_check(args) -> int:
    cfg = _config(args)
    f = parse_map(_read_text(args.file))
    cert = orthogonality_certificate(f, pivot=args.pivot)
    if cfg.machine:
        record = {"cmd": "map", "action": "check-orth", "verdict": cert.verdict}
        if cert.quotient is not None:
            record["quotient"] = format_poly(cert.quotient)
        if cert.witness is not None:
            record["witness_z"] = _point_text(cert.witness[0])
            record["witness_w"] = _point_text(cert.witness[1])
        _emit(record)
    elif cert.verdict:
        print("orthogonal: yes")
        if cert.quotient is not None:
            print(f"quotient: {format_poly(cert.quotient)}")
    else:
        print("orthogonal: no")
        z, w = cert.witness
        print(f"witness z: {_point_text(z)}")
        print(f"witness w: {_point_text(w)}")
    return EXIT_OK if cert.verdict else EXIT_VIOLATION


def cmd_map_span(args) -> int:
    cfg = _config(args)
    f = parse_map(_read_text(args.file))
    dim = image_span_dim(f.components)
    if cfg.machine:
        _emit({"cmd": "map", "action": "span", "span": dim})
    else:
        print(dim)
    return EXIT_OK


def cmd_map_obstruct(args) -> int:
    cfg = _config(args)
    f = parse_map(_read_text(args.file))
    rec = span_obstruction_check(f, args.indices)
    if cfg.machine:
        _emit(
            {
                "cmd": "map",
                "action": "obstruct",
                "e": sorted(args.indices),
                "dim_e": rec.dim_e_span,
                "dim_eperp": rec.dim_eperp_span,
                "bound": rec.bound,
                "degenerate": rec.degenerate,
                "holds": rec.holds,
            }
        )
    else:
        def side(dim):
            return "degenerate" if dim < 0 else str(dim)

        print(f"dim span f(E) = {side(rec.dim_e_span)}")
        print(f"dim span f(E^perp) = {side(rec.dim_eperp_span)}")
        print(f"bound = {rec.bound}")
        print(f"holds: {'yes' if rec.holds else 'no'}")
    return EXIT_OK if rec.holds else EXIT_VIOLATION


def cmd_map_prolong(args) -> int:
    f = parse_map(_read_text(args.file))
    nv = f.source.n_vars
    psi = parse_poly(args.psi, n_vars=nv)
    phi = parse_poly(args.phi, n_vars=nv, degree=psi.degree + f.degree)
    _write_text(args.output, format_map(null_prolongation(f, psi, phi)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macgap",
        description="Macaulay representations, gap intervals, and signed map checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mac = sub.add_parser("macaulay", help="print the representation and index shifts")
    mac.add_argument("A", type=int, help="value to decompose")
    mac.add_argument("n", type=int, help="top level of the representation")
    mac.add_argument("--json", action="store_true", help="machine-readable output")
    mac.set_defaults(func=cmd_macaulay)

    gap = sub.add_parser("gap", help="gap interval table, or classify a value")
    gap.add_argument("n", type=int, help="source dimension")
    gap.add_argument("N", type=int, nargs="?", help="target dimension to classify")
    gap.add_argument("--json", action="store_true", help="machine-readable output")
    gap.set_defaults(func=cmd_gap)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(_SUITES))
    ver.add_argument("--seed", type=_u64, default=0, help="base seed for sampling")
    ver.add_argument("--trials", type=_positive, default=20,
                     help="hyperplanes per sampled object")
    ver.add_argument("--subspaces", type=_positive, default=200,
                     help="random subspaces per (n, d) cell")
    ver.add_argument("--max-m", type=_positive, help="sweep bound on m")
    ver.add_argument("--max-k", type=_positive, help="sweep bound on k")
    ver.add_argument("--max-n", type=_positive, help="sweep bound on n")
    ver.add_argument("--max-degree", type=_positive, help="sweep bound on degree")
    ver.add_argument("--json", action="store_true", help="line-delimited records")
    ver.set_defaults(func=cmd_verify)

    mp = sub.add_parser("map", help="map file tooling")
    act = mp.add_subparsers(dest="action", required=True)

    gen = act.add_parser("gen-sharpness", help="write a gap-endpoint monomial map")
    gen.add_argument("k", type=int)
    gen.add_argument("n", type=int)
    gen.add_argument("-o", "--output", help="output path (default stdout)")
    gen.set_defaults(func=cmd_map_gen)

    chk = act.add_parser("check-orth", help="certify orthogonality of a map file")
    chk.add_argument("file")
    chk.add_argument("--pivot", type=int, default=0,
                     help="source coordinate used for the remainder")
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=cmd_map_check)

    spn = act.add_parser("span", help="projective span dimension of the image")
    spn.add_argument("file")
    spn.add_argument("--json", action="store_true")
    spn.set_defaults(func=cmd_map_span)

    obs = act.add_parser("obstruct", help="span bound for a coordinate split")
    obs.add_argument("file")
    obs.add_argument("indices", type=int, nargs="+",
                     help="source coordinates spanning E")
    obs.add_argument("--json", action="store_true")
    obs.set_defaults(func=cmd_map_obstruct)

    pro = act.add_parser("prolong", help="null prolongation by psi and phi")
    pro.add_argument("file")
    pro.add_argument("psi", help="multiplier polynomial, text format")
    pro.add_argument("phi", help="null component polynomial, text format")
    pro.add_argument("-o", "--output", help="output path (default stdout)")
    pro.set_defaults(func=cmd_map_prolong)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
