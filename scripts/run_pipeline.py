#!/usr/bin/env python3
"""End-to-end demo: simulate -> realize -> gold -> split -> stats -> eval.

Runs the whole pipeline on the bundled fixture pack into an output directory
(default out/demo) and scores the gold files against themselves as a sanity
ceiling.  Everything is seeded, so re-runs reproduce identical artifacts.

    python scripts/run_pipeline.py [--n 500] [--seed 42] [--out-dir out/demo]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from shopdialog.cli import main as cli  # noqa: E402

DATA = ROOT / "data"


def run(args: list[str]) -> None:
    print("$ shopdialog " + " ".join(args))
    rc = cli(args)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out-dir", default=str(ROOT / "out" / "demo"))
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = [
        "--scenes", str(DATA / "scenes.json"),
        "--metadata", str(DATA / "metadata.json"),
        "--ontology", str(DATA / "ontology.json"),
    ]
    flows = out / "flows.jsonl"
    realized = out / "realized.jsonl"

    run(["validate", *base, "--policy", str(DATA / "policy.json"),
         "--templates", str(DATA / "templates.json")])
    run(["simulate", *base, "--policy", str(DATA / "policy.json"),
         "--n", str(args.n), "--seed", str(args.seed), "--out", str(flows)])
    run(["realize", *base, "--templates", str(DATA / "templates.json"),
         "--flows", str(flows), "--seed", str(args.seed), "--out", str(realized)])
    for task in ("spd", "rru", "act", "recommend", "response"):
        source = realized if task == "response" else flows
        run(["gold", *base, "--flows", str(source), "--task", task,
             "--out", str(out / f"gold_{task}.jsonl")])
    run(["split", "--flows", str(realized), "--seed", str(args.seed),
         "--out-dir", str(out / "splits")])
    run(["stats", "--flows", str(flows), "--out", str(out / "stats.json")])
    for task in ("spd", "rru", "act", "recommend", "response"):
        gold = out / f"gold_{task}.jsonl"
        run(["eval", "--task", task, "--pred", str(gold), "--gold", str(gold),
             "--out", str(out / f"report_{task}.json")])
    print(f"\nartifacts in {out}")


if __name__ == "__main__":
    main()
