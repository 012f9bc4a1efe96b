"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py PLAN MODE [SPANS]

MODE is `probe` (import and load the plan, then stop), `run` (every op of
the plan, in order) or `trace` (the same, with the layer tracer installed;
spans go to SPANS).  Each op is one call of `macgap.cli.main(argv)` with
stdout and stderr captured.  The result goes to this process's stdout as one
JSON document; `ready` is the CLOCK_MONOTONIC time once `macgap` and the plan
are loaded, which the parent compares with its own clock at spawn to get
set-up time.

Before each op, and a few times right after `ready`, the child times a fixed
reference chunk that does not touch `macgap`.  The parent divides by it to
take out the speed swings of a shared host (see run.py).
"""

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

START_REFS = 5


def reference() -> float:
    """Seconds taken by a fixed chunk of pure-Python work: Fraction sums,
    tuple-keyed dict stores and an int loop, like the program's own mix."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    store = {}
    for j in range(1, 40):
        acc += Fraction(j, j + 1)
        store[j, j % 7] = acc.numerator % 1000
    total = 0
    for j in range(3000):
        total += j * j
    return time.perf_counter() - t0


def main() -> int:
    plan_path, mode = sys.argv[1], sys.argv[2]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import macgap.cli

    if Path(macgap.__file__).resolve().parent != src / "macgap":
        print(f"imported macgap from {macgap.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = json.loads(Path(plan_path).read_text(encoding="utf-8"))["ops"]
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    ready = time.monotonic()
    start_refs = [reference() for _ in range(START_REFS)]
    cols = {key: [] for key in ("start", "secs", "ref", "code", "stdout", "stderr", "error")}
    for i, argv in enumerate(ops if mode != "probe" else []):
        if tracer is not None:
            tracer.op = i
        cols["ref"].append(reference())
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = macgap.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            error = repr(exc)
        cols["secs"].append(time.perf_counter() - t0)
        cols["start"].append(t0)
        cols["code"].append(code)
        cols["stdout"].append(out.getvalue())
        cols["stderr"].append(err.getvalue())
        cols["error"].append(error)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(sys.argv[3])
    json.dump({"ready": ready, "start_refs": start_refs, "maxrss_kb": maxrss_kb,
               **cols}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
