"""Benchmark of pwlu training and inference, end to end and layer by layer.

One workload, in this process:

    python3 perfbench/run.py --workload wide --seed 0 --seconds 20 --trace 0

prints a report and, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` measures the
end-to-end metrics with nothing wrapped; `--trace 1` wraps the library's
public functions (see tracer.py) and reports the per-layer metrics, with
the traced-minus-untraced wall time as the tracing overhead.

Every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --suite --runs 3 --seconds 20 --out results.json

Workloads, metrics and bounds are registered in BENCHMARK.json at the
repository root.  The library is imported from the repository's `src/`.

A run repeats whole units of identical work (set-up, a training schedule and
predict batches of the trained model) for `--seconds`.  A shared host's speed drifts by
up to 2x over seconds to minutes, so every timed call is followed by short
fixed probes, and the end-to-end times and rates are reported at a reference
host speed (workloads.PROBE_REF_S): a call's seconds are divided by the
host's slowdown, its probe times over the reference, measured around it.
The env line gives `host_slowdown`, the median slowdown of the run's steps,
to turn them back into wall time.  Step and batch times are the median at each
position over the run's repeats, and the percentiles (`*_p50`, `*_p95`) and
rates (`*_per_s`) are computed over the positions.  `setup_s` is the median
of the set-ups, which every unit repeats.  Per-layer metrics are wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spirals", "wide", "wide-relu")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 1
CHILD_TIMEOUT_S = 900

# What each non-span per-layer metric should move (spans: tracer.SPANS).
EXTRA_MOVES = {
    "kernel": "predict_samples_per_s on spirals and wide, once inference uses fused tables",
    "checkpoint": "nothing timed end to end",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads() -> int:
    """Pin BLAS to MAX_BLAS_THREADS threads, so that the benchmark is one thread
    on a shared host; must run before numpy is imported."""
    threads = min(MAX_BLAS_THREADS, nproc())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def moves(name: str) -> str:
    import tracer

    spans = tracer.moves()
    for key in sorted(spans, key=len, reverse=True):
        if name.startswith(key):
            return spans[key]
    for key, text in EXTRA_MOVES.items():
        if name.startswith(key):
            return text
    return ""


def run_one(args, blas_threads: int) -> int:
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.smoke, ROOT)
    checks = result["checks"]
    env = environment(blas_threads) | {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "trace_overhead_s": result.get("trace_overhead_s"),
        "host_slowdown": result["host_slowdown"],
    }
    metrics = result["per_layer"] if args.trace else result["metrics"]
    if args.trace:
        pwlu_fwd = metrics["layers.PwluActivation.forward_ms"]["value"]
        dense_fwd = metrics["layers.Dense.forward_ms"]["value"]
        env["pwlu_over_dense_forward_ms"] = pwlu_fwd / dense_fwd if pwlu_fwd else None
    fail_frac = len(checks.failures) / checks.attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units of work={result['reps']}")
    for what in checks.failures[:20]:
        print(f"FAILED: {what}")
    if args.trace:
        print(f"  {'metric':<48s} {'value':>12s} {'unit':<10s} should move")
        for name, m in metrics.items():
            print(f"  {name:<48s} {m['value']:12.6g} {m['unit']:<10s} {moves(name)}")
    else:
        print(f"  {'metric':<24s} {'value':>12s} {'unit':<9s} {'n':>6s} {'spread':>8s}")
        for name, m in metrics.items():
            print(f"  {name:<24s} {m['value']:12.6g} {m['unit']:<9s} {m['n']:6d} "
                  f"{m['spread']:8.4f}")
    print(f"  {'fail_frac':<24s} {fail_frac:12.6g} {'fraction':<9s} {checks.attempted:6d}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


def child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in its own process; return its result line and env line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]) | {"env": env}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_suite(args) -> int:
    report = {}
    for name in WORKLOAD_NAMES:
        runs = [child(name, seed, args.seconds, 0, args.smoke) for seed in range(args.runs)]
        traced = child(name, 0, args.seconds, 1, args.smoke)
        e2e = {}
        for metric, m in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = _quartiles(values)
            e2e[metric] = {"unit": m["unit"], "n": len(values), "median": med,
                           "spread": (q3 - q1) / med if med else 0.0, "values": values}
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        report[name] = {"end_to_end": e2e, "fail_frac": failed / attempted,
                        "per_layer": traced["metrics"], "env": traced["env"]}

        print(f"== {name}  ({args.runs} runs, seeds 0..{args.runs - 1}; spread = IQR / median)")
        print(f"  {'metric':<24s} {'median':>12s} {'unit':<9s} {'n':>3s} {'spread':>8s}")
        for metric, m in e2e.items():
            print(f"  {metric:<24s} {m['median']:12.6g} {m['unit']:<9s} {m['n']:3d} "
                  f"{m['spread']:8.4f}")
        print(f"  {'fail_frac':<24s} {failed / attempted:12.6g} {'fraction':<9s}")
        print(f"  traced run (seed 0), overhead {traced['env']['trace_overhead_s']:.4f} s:")
        for metric, m in traced["metrics"].items():
            print(f"    {metric:<48s} {m['value']:12.6g} {m['unit']:<10s} {moves(metric)}")

    wide, relu = report["wide"], report["wide-relu"]
    ratios = {
        "wide_over_wide_relu_step_ms_p50": wide["end_to_end"]["step_ms_p50"]["median"]
        / relu["end_to_end"]["step_ms_p50"]["median"],
        "wide_pwlu_over_dense_forward_ms": wide["env"]["pwlu_over_dense_forward_ms"],
    }
    print("PWLU tax: " + json.dumps(ratios))
    print("env " + json.dumps(report["wide"]["env"]))
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": report, "pwlu_tax": ratios},
                                             indent=2) + "\n")
    return 0 if all(r["fail_frac"] == 0 for r in report.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring budget; whole schedules or passes are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the harness smoke test")
    parser.add_argument("--suite", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=3, help="--suite: untraced runs per workload")
    parser.add_argument("--out", default=None, help="--suite: write the results as JSON here")
    args = parser.parse_args(argv)
    if not args.suite and args.workload is None:
        parser.error("give --workload NAME or --suite")

    if not (SRC / "pwlu" / "__init__.py").is_file():
        print(f"error: the pwlu sources are missing: no {SRC / 'pwlu'}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    return run_suite(args) if args.suite else run_one(args, blas_threads)


if __name__ == "__main__":
    raise SystemExit(main())
