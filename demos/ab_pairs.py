"""Alternating A/B pairs of one perfbench workload: a parent checkout against a change.

    python demos/ab_pairs.py PARENT_DIR CHANGE_DIR --workload spirals --pairs 10 --seconds 40

Each pair runs the benchmark command of CHANGE_DIR's BENCHMARK.json
(`python3 perfbench/run.py`) with `--workload W --seed 0 --seconds S --trace 0`
(`--seed` picks another workload seed, to check a claim on a seed the change
was not tuned on) once in each directory, one run at a time: the parent first in odd pairs and
the change first in even ones, so that a drifting host favours neither side.
Each run's last output line is its JSON result.  The script stops with exit
status 1 at the first run that fails or reports `correct` false.

For every end-to-end metric of BENCHMARK.json it then prints each side's
median and quartiles and in how many pairs the change won, that is, moved
the metric in its `better` direction; a tie wins nothing.  It only reads
BENCHMARK.json and perfbench/ in both directories.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(directory: Path, command: list[str]) -> dict:
    """One benchmark run in directory; its JSON result line, or exit 1 if it failed."""
    proc = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"error: run in {directory} failed or was not correct")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command = bench["command"] + ["--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", "0"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], command))
        print(f"pair {pair}/{args.pairs} done ({' first, '.join(order)} second)", flush=True)

    print(f"\n{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s, "
          "median [quartiles]")
    print(f"  {'metric':<22} {'parent':>32} {'change':>32} {'change':>7} {'won':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: np.array([r[name]["value"] for r in runs[side]]) for side in sides}
        cells = {}
        for side, v in values.items():
            q1, med, q3 = np.percentile(v, [25, 50, 75])
            cells[side] = f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
        sign = 1 if metric["better"] == "higher" else -1
        won = int(np.sum(sign * (values["change"] - values["parent"]) > 0))
        delta = (np.median(values["change"]) / np.median(values["parent"]) - 1) * 100
        print(f"  {name:<22} {cells['parent']:>32} {cells['change']:>32} "
              f"{delta:+6.1f}% {won:>3}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
