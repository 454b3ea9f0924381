"""Run one workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload simulate --seeds 1-10 [--seconds 30] [--trace 0]

Runs `perfbench/run.py` once per seed, one after another, from the current
directory (a checkout root).  For every metric it prints the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, which is what a metric's bound in
BENCHMARK.json is compared against.  `--json` writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the per-seed results to this file")
    args = parser.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs, {args.seconds} s each")
    print(f"{'metric':42s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:42s} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.3f} {first['unit']}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
