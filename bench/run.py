"""Benchmark of the `macgap` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of green-sweep, map-queries, index-calc, or `all` for each in
turn.  The seed fixes every input.  One client runs a closed loop: each pass
is a fresh interpreter (bench/child.py) that imports `macgap` and calls
`macgap.cli.main(argv)` once per op, back to back, with stdout captured.
Passes repeat while another fits in S seconds.  With --trace 1 every
untraced pass is followed by a traced one, which gives the per-layer numbers
and the tracing overhead.

Every op's output is checked against an answer computed here with the
standard library (bench/workloads.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit status 0 means
the benchmark ran; 2 means it could not (for instance, no sources to run).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_work")
RECORD = WORK / "record.json"
PROBES = 15  # set-up-only children per run, on top of one per pass
CHILD_TIMEOUT = 150
# Shared hosts run the same code up to twice as slow for minutes at a time.
# Every time is therefore scaled by REF_SECONDS / r: seconds at a fixed
# reference speed.  For an op, r is the median time of the child.reference()
# chunks that ran from max(REF_HALF_WINDOW, its duration) before it starts
# until as long after it ends; for set-up, of those right after the imports.
REF_SECONDS = 400e-6
REF_HALF_WINDOW = 0.5


class BenchError(Exception):
    """The benchmark could not run."""


def spawn(mode: str, plan_path: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(plan_path), mode]
    if spans is not None:
        cmd.append(str(spans))
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass exceeded {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["raw_setup"] = result["ready"] - start
    result["setup"] = result["raw_setup"] * REF_SECONDS / statistics.median(result["start_refs"])
    result["factors"] = speed_factors(result["start"], result["secs"], result["ref"])
    result["latencies"] = [d * f for d, f in zip(result["secs"], result["factors"])]
    result["wall"] = sum(result["latencies"])
    result["raw_wall"] = sum(result["secs"])
    return result


def speed_factors(starts: list[float], secs: list[float], refs: list[float]) -> list[float]:
    """REF_SECONDS / r for each op; the reference of op j ran just before
    starts[j]."""
    factors = []
    for s, d in zip(starts, secs):
        h = max(REF_HALF_WINDOW, d)
        near = [r for t, r in zip(starts, refs) if s - h <= t <= s + d + h]
        factors.append(REF_SECONDS / statistics.median(near))
    return factors


def check_pass(plan: workloads.Plan, result: dict) -> list[str]:
    """One message per failed op: it raised, exited with an unexpected
    code, or failed its known-answer check."""
    errors = []
    cols = zip(plan.ops, result["code"], result["stdout"], result["stderr"], result["error"])
    for i, (op, code, out, err, exc) in enumerate(cols):
        if exc is not None:
            msg = f"raised {exc}"
        elif code != op.expect_code:
            msg = f"exit {code}, expected {op.expect_code}: {err.strip()[:300]}"
        else:
            try:
                msg = op.check(out)
            except Exception as exc:  # malformed output is a failed op
                msg = f"output check raised {exc!r}"
        if msg:
            errors.append(f"op {i} ({' '.join(op.argv)}): {msg}")
    return errors


def stdout_digest(result: dict) -> str:
    h = hashlib.sha256()
    for out in result["stdout"]:
        h.update(out.encode("utf-8"))
    return h.hexdigest()


def metric_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json declares them: the one list of what a run reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_digest() -> str:
    """sha256 of every file under src/macgap: the code version a stdout
    digest is recorded for."""
    h = hashlib.sha256()
    src = ROOT / "src" / "macgap"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def prepare(name: str, seed: int) -> tuple[workloads.Plan, Path, str]:
    """Write the op list and map files of one workload; return the plan,
    the op list path and a digest of every input file."""
    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.build(name, seed, workdir)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps({"ops": [op.argv for op in plan.ops]}),
                         encoding="utf-8")
    inputs = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        inputs.update(path.name.encode() + b"\0" + path.read_bytes())
    return plan, plan_path, inputs.hexdigest()


def measure(plan_path: Path, seconds: int, trace: bool):
    """Set-up probes, then passes while one more fits in `seconds`."""
    spawn("probe", plan_path)  # untimed: writes bytecode on a fresh checkout
    setups = [spawn("probe", plan_path)["setup"] for _ in range(PROBES)]
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        untraced.append(spawn("run", plan_path))
        if trace:
            spans = plan_path.parent / f"spans-{len(traced)}.json"
            traced.append((spawn("trace", plan_path, spans), spans))
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            break
    return setups + [p["setup"] for p in untraced], untraced, traced


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) law over their ranks.
    Ops of nearly equal cost swap ranks from run to run; this moves far
    less with them than a single order statistic does."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # weight of rank i: the Beta mass on [i/n, (i+1)/n], by Simpson's rule
    steps = 8
    h = 1 / (n * steps)
    weights = [sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h)
                   for k in range(steps + 1)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def e2e_metrics(untraced: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and a note on the samples behind each."""
    n_ops = len(untraced[0]["secs"])
    latencies = [statistics.median(p["latencies"][i] for p in untraced)
                 for i in range(n_ops)]
    p90 = hd_quantile(latencies, 0.9)
    walls = [p["wall"] for p in untraced]
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": hd_quantile(latencies, 0.5),
        "op_p90_s": p90,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in untraced),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "wall_s": "median of passes " + " ".join(f"{w:.3f}" for w in walls)
                  + "; unscaled " + " ".join(f"{p['raw_wall']:.3f}" for p in untraced),
        "op_p50_s": f"Harrell-Davis median of {n_ops} ops, each its median "
                    f"over {len(untraced)} passes",
        "op_p90_s": f"Harrell-Davis p90 of {n_ops} ops, {sum(x > p90 for x in latencies)} above it",
        "peak_rss_mb": f"ru_maxrss, median of {len(untraced)} passes",
        "setup_s": f"spawn to first op, median of {len(setups)} child starts",
        "speed": "reference chunk " + " ".join(
            f"{REF_SECONDS / statistics.median(p['factors']) * 1e6:.0f}" for p in untraced)
                 + f" us per pass, scaled to {REF_SECONDS * 1e6:.0f} us",
    }
    return metrics, notes


RUNNER_METRICS = ("cli.stdout_bytes", "trace.overhead_share")


def trace_metrics(traced: list, wall: float) -> list[dict]:
    """Per-layer metrics of each traced pass: those of the spans, and
    RUNNER_METRICS, which the runner measures itself."""
    per_pass = []
    for p, spans in traced:
        m = layers.layer_metrics(layers.aggregate(spans, p["factors"]))
        m["cli.stdout_bytes"] = sum(len(out.encode("utf-8")) for out in p["stdout"])
        m["trace.overhead_share"] = (p["wall"] - wall) / wall
        per_pass.append(m)
    return per_pass


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> None:
    e2e_units, layer_units = metric_units()
    plan, plan_path, inputs = prepare(name, seed)
    setups, untraced, traced = measure(plan_path, seconds, trace)
    print(f"workload {name}  seed {seed}  {len(plan.ops)} ops/pass  "
          f"{len(untraced)} untraced + {len(traced)} traced passes")
    print("inputs " + json.dumps(plan.properties, sort_keys=True))

    passes = untraced + [p for p, _ in traced]
    attempted = failed = 0
    for p in passes:
        errors = check_pass(plan, p)
        attempted += len(p["secs"])
        failed += len(errors)
        for msg in errors[:5]:
            print(f"FAIL {msg}")
    digests = [stdout_digest(p) for p in passes]
    mismatched = sum(d != digests[0] for d in digests)
    if mismatched:
        print(f"FAIL stdout digest differs in {mismatched} of {len(passes)} passes")
    failed += mismatched

    e2e, notes = e2e_metrics(untraced, setups)
    counts = None
    units = layer_units if trace else e2e_units
    known = set(layers.PER_LAYER) | set(RUNNER_METRICS) if trace else set(e2e)
    if set(units) - known:
        raise BenchError(f"BENCHMARK.json names unknown metrics {sorted(set(units) - known)}")
    if trace:
        per_pass = trace_metrics(traced, e2e["wall_s"])
        # layer counts must repeat exactly in every traced pass of the run
        counts = {k: int(per_pass[0][k]) for k, u in units.items() if u in ("count", "bytes")}
        drift = sum(any(m[k] != v for k, v in counts.items()) for m in per_pass)
        if drift:
            print(f"FAIL layer counts differ in {drift} traced passes")
        failed += drift
        metrics = {k: counts[k] if k in counts else statistics.median(m[k] for m in per_pass)
                   for k in units}
    else:
        metrics = {k: e2e[k] for k in units}

    # the same code and inputs must give the same stdout bytes and layer
    # counts in every run made from this checkout, not only within this run
    record = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.is_file() else {}
    entry = record.setdefault(f"{name}|{seed}|{inputs}|{source_digest()}", {})
    for key, value in (("stdout_sha256", digests[0]), ("counts", counts)):
        if value is not None and entry.setdefault(key, value) != value:
            print(f"FAIL {key} differs from an earlier run of seed {seed}")
            failed += 1
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    for key, value in e2e.items():
        print(f"{key:<14} {value:<12.6g} {e2e_units.get(key, ''):<6} {notes[key]}")
    print(f"{'speed':<14} {'':<12} {'':<6} {notes['speed']}")
    print(f"{'failed_share':<14} {failed / attempted:<12.6g} {'share':<6} "
          f"{failed} failures in {attempted} ops")
    print(f"{'stdout_sha256':<14} {digests[0]}")
    if trace:
        for key, value in metrics.items():
            print(f"{key:<32} {value:<14.6g} {units[key]}")
        print(f"spans in {traced[-1][1]}")

    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        os.chdir(ROOT)
        # the passes and their reference chunks share one CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        if not (ROOT / "src" / "macgap" / "__init__.py").is_file():
            raise BenchError(f"no macgap sources under {ROOT / 'src'}")
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
