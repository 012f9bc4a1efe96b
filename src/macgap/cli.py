"""Command line front end.

Subcommands: `macaulay` (representation and index shifts), `gap` (interval
tables and membership), `verify` (batch suites), `map` (map file tooling).
Exit codes: 0 success, 1 violation found, 2 usage or domain error, 3 I/O,
4 an internal check failed (a `RuntimeError`, such as a witness search that
found no witness or a computed value that broke a checked invariant).
Every command returns (exit code, JSON records, text lines), and `main`
prints the records with `--json` and the text lines without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .binom_core import (
    lemma_checks_upto,
    macaulay_rep,
    verify_lemma_binom,
)
from .gap_calc import (
    classify_gap,
    comparison_intervals,
    gap_argument_checks,
    gap_argument_sweep,
    gap_intervals,
    interval_counts,
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
    cleared_span_dim,
    format_poly,
    green_suite,
    parse_poly,
    rank_work_upto,
    veronese_suite,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Largest `macaulay` level: the representation has up to n terms.
MAX_MACAULAY_LEVEL = 1000
# Most digits of a `macaulay` value A: the upper shift at level 1 is about
# A^2/2, which must stay below Python's 4300-digit int-to-str limit.
MAX_MACAULAY_DIGITS = 2000
# |A| must stay below it; computed once, not on every `macaulay` call
_MACAULAY_VALUE_BOUND = 10**MAX_MACAULAY_DIGITS
# Largest `gap n` table, in J_k and I_k rows together: about sqrt(n) +
# sqrt(2n), so n up to about 1.7 * 10^9 (`--json` at the limit takes about
# a second).
MAX_GAP_ROWS = 100_000
# Largest `verify lemma3` sweep, in checked splits (m, k <= 10 is 705 410).
# As whole processes, `--max-m 10 --max-k 10` and `--max-m 1 --max-k 1410`
# (996 165 checks) each take 0.10 s; medians of 9 runs, 2 vCPUs, Python 3.11.
MAX_LEMMA_CHECKS = 10**6
# Largest lemma3 check count that a refusal prints exactly; above it the
# count is only bounded, so refusing costs O(log) steps at any bound.
LEMMA_COUNT_CAP = 10**12
# Largest `verify gap-argument` sweep, in checked triples (--max-n 441 is
# 996 268, the largest within it).  As a whole process `--max-n 441` takes
# 0.085 s (median of 9 runs, 2 vCPUs, Python 3.11), most of it start-up.
MAX_GAP_ARGUMENT_CHECKS = 10**6
# Largest `verify green` or `verify restriction` run, in `rank_work_upto`
# steps (the default green run is 42 907 200).
MAX_RANK_WORK = 10**8


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

def cmd_macaulay(args):
    if args.n > MAX_MACAULAY_LEVEL:
        raise ValueError(f"level {args.n} is above the limit of {MAX_MACAULAY_LEVEL}")
    if abs(args.A) >= _MACAULAY_VALUE_BOUND:
        raise ValueError(f"A has more than the limit of {MAX_MACAULAY_DIGITS} digits")
    rep = macaulay_rep(args.A, args.n)
    record = {"cmd": "macaulay", "A": args.A, "n": args.n, "rep": str(rep),
              "lower": rep.lower(), "minus": rep.minus(), "upper": rep.upper()}
    text = [f"{args.A} = {record['rep']}"]
    text += [f"{key} {record[key]}" for key in ("lower", "minus", "upper")]
    return EXIT_OK, [record], text


# ---------------------------------------------------------------------------
# gap

def cmd_gap(args):
    if args.N is None:
        count = sum(interval_counts(args.n))
        if count > MAX_GAP_ROWS:
            raise ValueError(
                f"gap table of n = {args.n} has {count} rows, above the limit "
                f"of {MAX_GAP_ROWS}"
            )
        records, text = [], []
        families = (("J", gap_intervals(args.n)), ("I", comparison_intervals(args.n)))
        for family, rows in families:
            for iv in rows:
                records.append({"cmd": "gap", "family": family, "n": iv.n, "k": iv.k,
                                "lo": iv.lo, "hi": iv.hi, "tag": iv.tag})
                tag = f"  {iv.tag}" if family == "I" else ""
                text.append(f"{family}_{iv.k} = [{iv.lo}, {iv.hi}]{tag}")
        return EXIT_OK, records, text
    verdict = classify_gap(args.n, args.N)
    k = verdict.k
    record = {"cmd": "gap", "n": args.n, "N": args.N, "in_gap": verdict.in_gap, "k": k}
    if verdict.in_gap:
        line = f"{args.N} in gap J_{k} = [{k * args.n + k}, {(k + 1) * args.n - (k * k + 1)}]"
    else:
        line = f"{args.N} not in any gap interval"
    return EXIT_OK, [record], [line]


# ---------------------------------------------------------------------------
# verify

def _report_records(suite: str, params: dict, checks: int,
                    violations: list[dict]) -> list[dict]:
    """A suite's summary record, then one record per violation."""
    head = {"cmd": "verify", "suite": suite}
    summary = {**head, **params, "checks": checks,
               "violations": len(violations), "ok": not violations}
    return [summary] + [{**head, "event": "violation", **v} for v in violations]


def _lemma3(opts):
    max_m, max_k = opts["max_m"], opts["max_k"]
    checks = lemma_checks_upto(max_m, max_k, LEMMA_COUNT_CAP)
    if checks is None or checks > MAX_LEMMA_CHECKS:
        count = f"more than {LEMMA_COUNT_CAP}" if checks is None else checks
        raise ValueError(
            f"lemma3 sweep --max-m {max_m} --max-k {max_k} needs {count} "
            f"checks, above the limit of {MAX_LEMMA_CHECKS}"
        )
    report = verify_lemma_binom(max_m, max_k)
    return _report_records(
        "lemma3", opts, report.checks,
        [{"m": m, "k": k, "A": a, "B": b} for m, k, a, b in report.counterexamples],
    )


def _check_rank_work(run: str, lo: int, max_n: int, max_degree: int,
                     ranks: int) -> None:
    if rank_work_upto(lo, max_n, max_degree, ranks, MAX_RANK_WORK) is None:
        raise ValueError(
            f"{run} --max-n {max_n} --max-degree {max_degree} needs more rank "
            f"steps than the limit of {MAX_RANK_WORK}"
        )


def _green(opts):
    seed, subspaces, trials = opts["seed"], opts["subspaces"], opts["trials"]
    # each subspace ranks M . R_H at most once per trial (it stops once a
    # rank reaches len(M)) and M at most once (not when a restriction has
    # full width), so trials + 1 ranks are an upper bound; one whose trials
    # all miss draws up to `trials` more, so the uncounted worst case is
    # subspaces * (2 * trials + 1) ranks, at most twice the count
    _check_rank_work(f"green run --subspaces {subspaces} --trials {trials}",
                     2, opts["max_n"], opts["max_degree"], subspaces * (trials + 1))
    records = []
    checks = 0
    for n in range(2, opts["max_n"] + 1):
        for d in range(2, opts["max_degree"] + 1):
            cell = green_suite(ns=(n,), ds=(d,), subspaces=subspaces,
                               trials=trials, seed=seed)
            checks += cell.checks
            params = {"n": n, "d": d, "subspaces": cell.subspace_count,
                      "trials": trials, "seed": seed}
            records += _report_records("green", params, cell.checks, [
                {"n": r.n, "d": r.d, "subspace": i, "c": r.c, "c_h": r.c_h,
                 "bound": r.bound}
                for i, r in cell.violations
            ])
    ok = all(r.get("ok", True) for r in records)
    records.append({"cmd": "verify", "suite": "green", "event": "summary",
                    "seed": seed, "trials": trials, "checks": checks, "ok": ok})
    return records


def _restriction(opts):
    _check_rank_work(f"restriction run --trials {opts['trials']}",
                     1, opts["max_n"], opts["max_degree"], opts["trials"])
    report = veronese_suite(**opts)
    return _report_records("restriction", opts, report.checks, [
        {"n": n, "d": d, "got": got, "expected": expected}
        for n, d, got, expected in report.violations
    ])


def _gap_argument(opts):
    max_n = opts["max_n"]
    if gap_argument_checks(max_n) > MAX_GAP_ARGUMENT_CHECKS:
        raise ValueError(
            f"gap-argument sweep --max-n {max_n} needs more checks than "
            f"the limit of {MAX_GAP_ARGUMENT_CHECKS}"
        )
    report = gap_argument_sweep(max_n)
    params = {**opts, "case_i": report.case_i, "case_ii": report.case_ii}
    return _report_records("gap-argument", params, report.checks, [
        {"n": r.n, "a": r.a, "b": r.b, "total": r.total, "n_prime": r.n_prime}
        for r in report.violations
    ])


def _sharpness(opts):
    report = sharpness_suite(**opts)
    return _report_records("sharpness", {**opts, "maps": report.maps}, report.checks, [
        {"k": k, "n": n, "check": label} for k, n, label in report.violations
    ])


# option -> (type, help) of every option a suite may declare
_OPTIONS = {
    "seed": (_u64, "base seed for sampling"),
    "subspaces": (_positive, "random subspaces per (n, d) cell"),
    "trials": (_positive, "hyperplanes per sampled object"),
    "max_m": (_positive, "sweep bound on m"),
    "max_k": (_positive, "sweep bound on k"),
    "max_n": (_positive, "sweep bound on n"),
    "max_degree": (_positive, "sweep bound on degree"),
}

# suite name -> (run, its options with their defaults, text line of each
# summary record).  This is the one place a suite's options and defaults
# live: each suite's sub-command takes exactly its options, and its run gets
# their values as a dict, which every summary record but green's echoes.  A
# run calls its library suite by its name in this module, so a caller that
# rebinds the name (a test, a tracer) reaches every run.
_SUITES = {
    "lemma3": (_lemma3, {"max_m": 6, "max_k": 6},
               "lemma3: {checks} checks, {violations} violations"),
    "green": (_green, {"seed": 0, "subspaces": 200, "trials": 20, "max_n": 3, "max_degree": 3},
              "green n={n} d={d}: {subspaces} subspaces, {violations} violations"),
    "restriction": (_restriction, {"seed": 0, "trials": 20, "max_n": 4, "max_degree": 4},
                    "restriction: {checks} checks, {violations} violations"),
    "gap-argument": (_gap_argument, {"max_n": 60},
                     "gap-argument: {checks} checks (case I {case_i}, case II {case_ii}), "
                     "{violations} violations"),
    "sharpness": (_sharpness, {"max_k": 4, "max_n": 12},
                  "sharpness: {maps} maps, {checks} checks, {violations} violations"),
}
# the text line of green's closing `event: "summary"` record
_TOTAL_TEXT = "{suite}: {checks} checks, ok={ok}"


def cmd_verify(args):
    run, options, template = _SUITES[args.suite]
    start = time.perf_counter()
    records = run({name: getattr(args, name) for name in options})
    elapsed = time.perf_counter() - start
    text = []
    for record in records:
        event = record.get("event")
        if event is None:
            text.append(template.format_map(record))
        elif event == "summary":
            text.append(_TOTAL_TEXT.format_map(record))
    text.append(f"({elapsed:.2f}s)")
    ok = all(record.get("ok", True) for record in records)
    return EXIT_OK if ok else EXIT_VIOLATION, records, text


# ---------------------------------------------------------------------------
# map

def cmd_map_gen(args):
    _write_text(args.output, format_map(sharpness_map(args.k, args.n)))
    return EXIT_OK, [], []


def cmd_map_check(args):
    f = parse_map(_read_text(args.file))
    cert = orthogonality_certificate(f, pivot=args.pivot)
    record = {"cmd": "map", "action": "check-orth", "verdict": cert.verdict}
    if cert.quotient is not None:
        record["quotient"] = format_poly(cert.quotient)
    if cert.witness_pairs is not None:
        record["witness_z"], record["witness_w"] = cert.witness_text()
    text = [f"orthogonal: {'yes' if cert.verdict else 'no'}"]
    for key, label in (("quotient", "quotient"), ("witness_z", "witness z"),
                       ("witness_w", "witness w")):
        if key in record:
            text.append(f"{label}: {record[key]}")
    return EXIT_OK if cert.verdict else EXIT_VIOLATION, [record], text


def cmd_map_span(args):
    f = parse_map(_read_text(args.file))
    dim = cleared_span_dim([P for _, P in f.cleared])
    return EXIT_OK, [{"cmd": "map", "action": "span", "span": dim}], [str(dim)]


def cmd_map_obstruct(args):
    f = parse_map(_read_text(args.file))
    rec = span_obstruction_check(f, args.indices)
    record = {"cmd": "map", "action": "obstruct", "e": sorted(set(args.indices)),
              "dim_e": rec.dim_e_span, "dim_eperp": rec.dim_eperp_span, "bound": rec.bound,
              "degenerate": rec.degenerate, "holds": rec.holds}

    def side(dim):
        return "degenerate" if dim < 0 else dim

    text = [
        f"dim span f(E) = {side(rec.dim_e_span)}",
        f"dim span f(E^perp) = {side(rec.dim_eperp_span)}",
        f"bound = {rec.bound}",
        f"holds: {'yes' if rec.holds else 'no'}",
    ]
    return EXIT_OK if rec.holds else EXIT_VIOLATION, [record], text


def cmd_map_prolong(args):
    f = parse_map(_read_text(args.file))
    nv = f.source.n_vars
    psi = parse_poly(args.psi, n_vars=nv)
    phi = parse_poly(args.phi, n_vars=nv, degree=psi.degree + f.degree)
    _write_text(args.output, format_map(null_prolongation(f, psi, phi)))
    return EXIT_OK, [], []


# ---------------------------------------------------------------------------
# the command grammar, declared once as data.  `_fast_args` parses a plain
# command line from `_TABLE`, made from the declaration at import.  Any
# other line goes to argparse, built from the same declaration by
# `build_parser` on the first line that `_fast_args` declines, so help,
# usage errors, abbreviations and negative numbers stay argparse's own.

# group -> (dest of its sub-command, help in the command list)
_GROUPS = {
    ("verify",): ("suite", "run a verification suite"),
    ("map",): ("action", "map file tooling"),
}


def _json(about=None):
    """The store-true `--json` option, with help `about`."""
    return ("--json",), "json", None, False, about


_OUTPUT = ("-o", "--output"), "output", str, None, "output path (default stdout)"


def _suite_options(options):
    """The options of a suite's sub-command, for its `_SUITES` defaults."""
    return [(("--" + name.replace("_", "-"),), name, _OPTIONS[name][0], default,
             f"{_OPTIONS[name][1]} (default %(default)s)")
            for name, default in options.items()] + [_json("line-delimited records")]


# command path -> (handler, help or None, positionals, options), in the
# order of the help text.  A positional is (dest, type, nargs, help) and an
# option (flags, dest, type, default, help), type None for a store-true
# flag.  Only a command's last positional may have nargs "?" or "+", which
# the greedy split of `_fast_args` relies on.
_COMMANDS = {
    ("macaulay",): (cmd_macaulay, "print the representation and index shifts",
                    [("A", int, None, "value to decompose"),
                     ("n", int, None, "top level of the representation")],
                    [_json("machine-readable output")]),
    ("gap",): (cmd_gap, "gap interval table, or classify a value",
               [("n", int, None, "source dimension"),
                ("N", int, "?", "target dimension to classify")],
               [_json("machine-readable output")]),
    **{("verify", name): (cmd_verify, None, [], _suite_options(options))
       for name, (_, options, _) in _SUITES.items()},
    ("map", "gen-sharpness"): (cmd_map_gen, "write a gap-endpoint monomial map",
                               [("k", int, None, None), ("n", int, None, None)], [_OUTPUT]),
    ("map", "check-orth"): (cmd_map_check, "certify orthogonality of a map file",
                            [("file", str, None, None)],
                            [(("--pivot",), "pivot", int, 0,
                              "source coordinate whose chart the witness search samples"),
                             _json()]),
    ("map", "span"): (cmd_map_span, "projective span dimension of the image",
                      [("file", str, None, None)], [_json()]),
    ("map", "obstruct"): (cmd_map_obstruct, "span bound for a coordinate split",
                          [("file", str, None, None),
                           ("indices", int, "+", "source coordinates spanning E")],
                          [_json()]),
    ("map", "prolong"): (cmd_map_prolong, "null prolongation by psi and phi",
                         [("file", str, None, None),
                          ("psi", str, None, "multiplier polynomial, text format"),
                          ("phi", str, None, "null component polynomial, text format")],
                         [_OUTPUT]),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS` and `_GROUPS`."""
    parser = argparse.ArgumentParser(
        prog="macgap",
        description="Macaulay representations, gap intervals, and signed map checks",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (func, about, positionals, options) in _COMMANDS.items():
        group = path[:-1]
        if group not in groups:
            dest, group_about = _GROUPS[group]
            node = groups[group[:-1]].add_parser(group[-1], help=group_about)
            groups[group] = node.add_subparsers(dest=dest, required=True)
        # a help of None would still list the command, with no text
        leaf = groups[group].add_parser(path[-1], **({} if about is None else {"help": about}))
        for dest, kind, nargs, text in positionals:
            leaf.add_argument(dest, type=kind, nargs=nargs, help=text)
        for flags, dest, kind, default, text in options:
            how = {"action": "store_true"} if kind is None else {"type": kind}
            leaf.add_argument(*flags, dest=dest, default=default, help=text, **how)
        leaf.set_defaults(func=func)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main` call
    in the process; parsing leaves it unchanged."""
    return build_parser()


# positional nargs -> (fewest, most) tokens
_NARGS = {None: (1, 1), "?": (0, 1), "+": (1, sys.maxsize)}


def _table():
    """The nested dicts that `_fast_args` walks: each command name maps to
    the names under it, down to a leaf (values, options, positionals,
    fewest, most).  `values` is the namespace argparse fills in for the
    leaf before it reads a token; `options` maps each exact option string
    to (dest, type), type None for a store-true flag; `positionals` is
    (dest, takes a list, type, most) in order; `fewest` and `most` bound
    the count of positional tokens."""
    table = {}
    for path, (func, _, positionals, options) in _COMMANDS.items():
        dests = ["command"] + [_GROUPS[path[:i]][0] for i in range(1, len(path))]
        values = dict(zip(dests, path))
        values.update((dest, None) for dest, *_ in positionals)
        values.update((dest, default) for _, dest, _, default, _ in options)
        values["func"] = func
        bounds = [_NARGS[nargs] for _, _, nargs, _ in positionals]
        spec = [(dest, nargs == "+", kind, hi)
                for (dest, kind, nargs, _), (_, hi) in zip(positionals, bounds)]
        node = table
        for name in path[:-1]:
            node = node.setdefault(name, {})
        node[path[-1]] = (values, {flag: (dest, kind) for flags, dest, kind, _, _ in options
                                   for flag in flags},
                          spec, sum(lo for lo, _ in bounds), sum(hi for _, hi in bounds))
    return table


_TABLE = _table()


def _fast_args(argv):
    """The namespace that `_parser().parse_args(argv)` returns, or None to
    leave `argv` to argparse.  None comes for any token that starts with "-"
    but is not an exact option string, an option value that starts with
    "-", positionals that are not one contiguous run or whose count does
    not fit their nargs, and a type call that raises."""
    node = _TABLE
    i = 0
    while isinstance(node, dict):
        if i == len(argv):
            return None
        node = node.get(argv[i])
        i += 1
    if node is None:
        return None
    values, options, positionals, fewest, most = node
    values = dict(values)
    run, closed = [], False
    try:
        while i < len(argv):
            token = argv[i]
            i += 1
            if token[:1] != "-":
                if closed:
                    return None
                run.append(token)
                continue
            option = options.get(token)
            if option is None:
                return None
            closed = bool(run)
            dest, convert = option
            if convert is None:
                values[dest] = True
            elif i == len(argv) or argv[i][:1] == "-":
                return None
            else:
                values[dest] = convert(argv[i])
                i += 1
        if not fewest <= len(run) <= most:
            return None
        # argparse's greedy match: each positional takes all it can, and
        # none leaves a later one short, since only a command's last
        # positional is ever "?" or "+"
        start = 0
        for dest, many, convert, hi in positionals:
            take = min(hi, len(run) - start)
            if many:
                values[dest] = [convert(token) for token in run[start:start + take]]
            elif take:
                values[dest] = convert(run[start])
            start += take
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        code, records, text = args.func(args)
        if getattr(args, "json", False):
            text = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
        # one write, so an unprintable value leaves no partial output
        sys.stdout.write("".join(line + "\n" for line in text))
        return code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
