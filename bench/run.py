"""wigpath benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload is repeated, each repetition
in a fresh worker process (bench/worker.py) pinned to one CPU, until S
seconds have passed; every repetition pays the imports, the log-factorial
table growth and the quadrature kernel build, as every CLI invocation does.
The seed fixes the MC seeds of the repetitions.  Outputs are checked after
the timed loop (bench/outcheck.py).

--trace 0 reports the end-to-end metrics: wall_s (timed phase) and setup_s
(process start to ready) of the fastest repetition, the median peak_rss_mb,
and mc_cost_s.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of bench/spans.py, bytes written and the
tracing overhead.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.  bench/WORKLOADS.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HARD_LIMIT_S = 150.0  # stop starting repetitions here; the run must end within 180 s
PERCENTILES = (99, 95, 90, 75)
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mc_cost_s": "s"}


def supported_percentile(n: int) -> int | None:
    """Highest tail percentile with at least ten of n samples beyond it."""
    return next((p for p in PERCENTILES if n * (100 - p) / 100 >= 10), None)


def describe(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    p = supported_percentile(n)
    line = f"{name}: min {min(values):.6g} {unit}, median {statistics.median(values):.6g} {unit}"
    if p is not None:
        tail = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        return f"{line}, p{p} {tail:.6g} {unit} (n={n})"
    return f"{line}, max {max(values):.6g} {unit} (n={n}, too few for a tail percentile)"


def run_rep(
    workload: str, seed: int, rep_dir: Path, traced: bool, cpu: int, timeout: float
) -> dict:
    out, data = rep_dir / "out", rep_dir / "data"
    out.mkdir(parents=True)
    data.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(rep_dir)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        workload, str(seed), str(out), str(data), "1" if traced else "0",
    ]
    rep = {"ok": False, "traced": traced, "out": out, "data": data}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return {**rep, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        return {**rep, "error": tail}
    result = json.loads(lines[-1])
    return {
        **rep,
        "ok": True,
        "steps": result["steps"],
        "wall_s": result["wall_s"],
        "setup_s": result["ready"] - spawned,
        "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
    }


def run_reps(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    # Repetitions move to the next CPU every two (an untraced and a traced one
    # in a traced run), so that contention on one CPU does not span the run.
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[dict] = []
    took: list[float] = []
    start = time.monotonic()
    while True:
        k = len(reps)
        before = time.monotonic()
        rep = run_rep(
            workload, workloads.mc_seed(seed, k), work / f"rep{k}",
            traced=trace and k % 2 == 1, cpu=cpus[(k // 2) % len(cpus)],
            timeout=max(1.0, HARD_LIMIT_S - (before - start)),
        )
        reps.append(rep)
        took.append(time.monotonic() - before)
        elapsed = time.monotonic() - start
        enough = len(reps) >= (2 if trace else 1)
        # start another repetition only if it is likely to end within the run
        if elapsed >= HARD_LIMIT_S or (enough and elapsed + statistics.median(took) > seconds):
            return reps


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def end_to_end(workload: str, good: list[dict]) -> dict:
    import outcheck

    samples = {key: [r[key] for r in good] for key in ("wall_s", "setup_s", "peak_rss_mb")}
    # Times are the fastest repetition's: on a shared host other tenants can
    # slow every CPU by up to 2x for minutes (see WORKLOADS.md), which moves
    # the median of a run with them.
    metrics = {
        "wall_s": min(samples["wall_s"]),
        "setup_s": min(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    if workload == "mc_profile":
        # every repetition drew with its own seed: pool their standard errors
        csvs = [r["out"] / "mc.csv" for r in good if (r["out"] / "mc.csv").is_file()]
        metrics["mc_cost_s"] = outcheck.mc_cost_s(metrics["wall_s"], csvs) if csvs else math.nan
    else:
        # deterministic routes carry no standard error; their time to the
        # stated accuracy is the wall time (the output check holds them to it)
        metrics["mc_cost_s"] = metrics["wall_s"]
    for key, vals in samples.items():
        print(describe(key, vals, UNITS[key]))
    print(f"mc_cost_s: {metrics['mc_cost_s']:.6g} s")
    return metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Layer metrics of the fastest traced repetition, so that shares of one
    layer in another come from one process."""
    absent = spans.absent_layers()
    fastest = min(traced, key=lambda r: r["wall_s"])
    trace = json.loads((fastest["data"] / "spans.json").read_text())["spans"]
    metrics = spans.layer_metrics(trace, absent)
    metrics["cli.bytes_written"] = statistics.median(
        bytes_written(r["out"]) for r in untraced + traced
    )
    metrics["trace_overhead_s"] = fastest["wall_s"] - min(r["wall_s"] for r in untraced)
    for name in sorted(absent):
        print(f"{name}: absent from the program, its metrics are not reported")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wigpath" / "__init__.py").is_file():
        print(f"error: no wigpath sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import outcheck

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), work)
        tally = outcheck.Tally()
        oracles = outcheck.Oracles()
        for rep in reps:
            if rep["ok"]:
                outcheck.check_rep(
                    args.workload, rep["steps"], rep["out"], rep["data"], oracles, tally
                )
            else:
                tally.lost(1, f"worker failed: {rep['error']}")
        for problem in tally.problems:
            print(f"check: {problem}")
        good = [r for r in reps if r["ok"]]
        untraced = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        if not untraced or (args.trace and not traced):
            print("error: no repetition completed", file=sys.stderr)
            return 1
        print(
            f"{args.workload}: {len(reps)} repetitions ({len(traced)} traced), "
            f"failed {tally.failed} of {tally.attempted} operations"
        )
        if args.trace:
            values = per_layer(untraced, traced)
            units = {k: spans.unit_of(k) for k in values}
        else:
            values = end_to_end(args.workload, untraced)
            units = UNITS
        if not all(math.isfinite(v) for v in values.values()):
            print(f"error: a metric is not finite: {values}", file=sys.stderr)
            return 1
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
