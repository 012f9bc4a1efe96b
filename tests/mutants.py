"""Mutation check for one function of src/macgap, run by hand:

    python tests/mutants.py polyspace._green_subspace [--seed 0] [--count 10]

It flips one operator at a time in the named function (`<` and `<=`, `>`
and `>=`, `==` and `!=`, `+` and `-`, `+=` and `-=`, `and` and `or`),
at `--count` of its sites drawn with `--seed` (every site with
`--count 0`), and for each mutant reruns that function's declared test
files with `-x` on a copy of the repository.  A mutant the tests pass is a
survivor; one listed in `EQUIVALENT` cannot change behaviour, and is
reported with its reason instead.  Each mutant is one token of the source
changed, so the rest of the file keeps its text and line numbers.  It
needs only the standard library and pytest, and pytest does not collect
it (its name does not start with `test_`).  Technique: DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# "module.function" -> the test files that must kill its mutants
TARGETS = {
    "polyspace._green_subspace": ("tests/test_polyspace.py", "tests/test_reference_mode.py"),
    "cli._lemma3": ("tests/test_cli.py",),
    "cli._gap_argument": ("tests/test_cli.py",),
}

# (target, source text of the mutated node, operator, replacement) -> why
# the mutant behaves exactly as the original
EQUIVALENT = {
    ("polyspace._green_subspace", "len(M) < size", "<", "<="):
        "at len(M) == size both branches rank a square M, once as rows and "
        "once as its transpose, which have the same rank",
}

FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
}

# what the copy of the repository needs to run the tests
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Site:
    """One mutant: the operator tokens at `offsets` (character offsets into
    the source) of `node_text`, each `old` to be written as `new`."""

    def __init__(self, line, node_text, old, new, offsets):
        self.line, self.node_text, self.old, self.new = line, node_text, old, new
        self.offsets = offsets

    def apply(self, source):
        for offset in sorted(self.offsets, reverse=True):
            source = source[:offset] + self.new + source[offset + len(self.old):]
        return source

    def __str__(self):
        return f"line {self.line}: {self.old} -> {self.new} in `{self.node_text}`"


def find_function(tree, name):
    node = tree
    for part in name.split("."):
        node = next((n for n in node.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            raise SystemExit(f"no function {name}")
    return node


def sites(source, function):
    """Every site of `function` (an ast node parsed from `source`), in
    source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno, byte_col):
        # ast columns count UTF-8 bytes, the source string counts characters
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:byte_col].decode())

    tokens = [(starts[t.start[0] - 1] + t.start[1], t.string)
              for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]

    def token_between(left, right, text):
        lo = offset(left.end_lineno, left.end_col_offset)
        hi = offset(right.lineno, right.col_offset)
        return next(at for at, s in tokens if lo <= at < hi and s == text)

    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    found.append((node, old, new,
                                  [token_between(operands[i], operands[i + 1], old)]))
        elif isinstance(node, ast.BinOp) and type(node.op) in FLIPS:
            old, new = FLIPS[type(node.op)]
            found.append((node, old, new, [token_between(node.left, node.right, old)]))
        elif isinstance(node, ast.AugAssign) and type(node.op) in FLIPS:
            old, new = (text + "=" for text in FLIPS[type(node.op)])
            found.append((node, old, new, [token_between(node.target, node.value, old)]))
        elif isinstance(node, ast.BoolOp):
            old, new = FLIPS[type(node.op)]
            found.append((node, old, new, [token_between(a, b, old)
                                           for a, b in zip(node.values, node.values[1:])]))
    out = [Site(node.lineno, ast.unparse(node), old, new, offsets)
           for node, old, new, offsets in found]
    return sorted(out, key=lambda s: min(s.offsets))


def run_tests(workdir, files, timeout):
    """'killed' or 'survived' for the tests `files` run in `workdir`, or
    'timed out' (which kills it too)."""
    # the copy's src/macgap, for the tests and the commands they start
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    try:
        result = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("target", choices=sorted(TARGETS), help="module.function")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=10,
                        help="mutants to draw; 0 runs every site")
    args = parser.parse_args(argv)
    module, function = args.target.split(".", 1)
    relative = Path("src", "macgap", f"{module}.py")
    source = (ROOT / relative).read_text(encoding="utf-8")
    found = sites(source, find_function(ast.parse(source), function))
    chosen = found if not args.count else sorted(
        random.Random(args.seed).sample(found, min(args.count, len(found))),
        key=lambda s: min(s.offsets))
    files = TARGETS[args.target]
    print(f"{args.target}: {len(chosen)} of {len(found)} sites, tests {' '.join(files)}")
    with tempfile.TemporaryDirectory(prefix="macgap-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            path = ROOT / name
            if path.is_dir():
                shutil.copytree(path, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(path, work / name)
        start = time.perf_counter()
        if run_tests(work, files, None) != "survived":
            raise SystemExit("the tests fail on the unmutated source")
        timeout = max(60.0, 5 * (time.perf_counter() - start))
        survivors = 0
        for site in chosen:
            (work / relative).write_text(site.apply(source), encoding="utf-8")
            start = time.perf_counter()
            outcome = run_tests(work, files, timeout)
            reason = EQUIVALENT.get((args.target, site.node_text, site.old, site.new))
            if outcome == "survived" and reason:
                outcome = f"equivalent: {reason}"
            elif outcome == "survived":
                survivors += 1
            print(f"  {site}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
