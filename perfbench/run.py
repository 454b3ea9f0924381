"""shopdialog benchmark: closed-loop batch workloads on the bundled fixture pack.

    python3 perfbench/run.py --workload simulate|derive|score \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is driven from this one
process, stages run one after another, and the chain repeats until
`--seconds` is used up; the end-to-end metrics are medians over the repeats.

--trace 0 prints the end-to-end metrics (BENCHMARK.json `end_to_end`).  Their
times are at the reference machine speed: each stage's time is divided by
its `slowdown`, measured by timing a fixed task around it (see stages.py).
--trace 1 prints the per-layer metrics: `cli.*` from subprocess timing of the
chain, everything else from in-process passes that call `shopdialog.cli.main`
per stage with the tracer installed, alternating with untraced passes to
give the tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; a fuller record with provenance goes to
`.perfbench_work/results/`, and the spans of the last traced pass to
`.perfbench_work/traces/`.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stages import (CALIBRATION_REF_S, Stage, StageResult, calibrate, run_inprocess,  # noqa: E402
                    run_subprocess)
from tracing import LAYER_UNITS, Tracer, median_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, Check, Ctx, Workload, digest  # noqa: E402

SETUP_REPEATS = 5
MIN_REPEATS = 3
STAGES = ("simulate", "realize", "gold", "split", "stats", "eval")
STARTUP_REPEATS = 7
END_TO_END_UNITS = {
    "setup_s": "s",
    "dialogs_per_s": "1/s",
    "cpu_s_per_kdialog": "s",
    "peak_rss_mb": "MB",
    "out_bytes_per_dialog": "bytes",
}
TRACE_UNITS = {"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_ratio": "ratio"}
CLI_UNITS = {
    "cli.startup_s": "s",
    **{f"cli.{st}.{k}": u for st in STAGES for k, u in (
        ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("bytes_in", "bytes"), ("bytes_out", "bytes"))},
}
WORK_DIR = ".perfbench_work"


class Run:
    """One benchmark run: counts every stage call and output check as an operation."""

    def __init__(self, workload: Workload, ctx: Ctx) -> None:
        self.workload = workload
        self.ctx = ctx
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, checks: list[Check]) -> None:
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(name)

    def check(self, label: str, make_checks: Callable[[], list[Check]]) -> None:
        """Record the checks; checks that cannot read their inputs count as one failed operation."""
        try:
            checks = make_checks()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks = [(f"{label}: {exc!r}", False)]
        self.record(checks)

    def stage(self, stage: Stage) -> StageResult:
        result = run_subprocess(stage, self.ctx.root, self.ctx.work / "stderr.log")
        self.record([(f"{stage.name} exits 0", result.rc == 0)])
        return result

    def setup(self) -> float:
        """Build the chain inputs once; returns the time it took at the reference speed."""
        shutil.rmtree(self.ctx.setup_dir, ignore_errors=True)
        self.ctx.setup_dir.mkdir(parents=True)
        total = sum(self.stage(stage).ref_wall_s for stage in self.workload.setup(self.ctx))
        before = calibrate()
        t0 = time.perf_counter()
        self.check("set-up", lambda: self.workload.after_setup(self.ctx))
        wall = time.perf_counter() - t0
        return total + wall / ((before + calibrate()) / 2 / CALIBRATION_REF_S)

    def chain(self, out: Path) -> list[StageResult]:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        results = [self.stage(s) for s in self.workload.chain(self.ctx, out)]
        first = self.ctx.first_digest is None
        self.check("chain checks", lambda: self.workload.chain_checks(self.ctx, out, first))
        return results

    def repeat_chain(self, seconds: float) -> list[list[StageResult]]:
        """Closed loop: repeat the chain until the next repeat would overrun `seconds`.

        At least MIN_REPEATS, unless a slow program has already used up `seconds`.
        """
        reps: list[list[StageResult]] = []
        t0 = time.perf_counter()
        while True:
            reps.append(self.chain(self.ctx.work / "chain"))
            elapsed = time.perf_counter() - t0
            typical = statistics.median(sum(r.wall_s for r in rep) for rep in reps)
            if elapsed >= seconds or (len(reps) >= MIN_REPEATS and elapsed + typical > seconds):
                return reps


def chain_median(reps: list[list[StageResult]], time_of: Callable[[StageResult], float]) -> float:
    """Sum over the chain's stages of each stage's median over the repeats.

    Steadier than the median of chain sums: a stage whose calibration was
    off moves only that stage's median.
    """
    return sum(statistics.median(time_of(rep[i]) for rep in reps) for i in range(len(reps[0])))


def end_to_end(run: Run, setup_times: list[float], reps: list[list[StageResult]]) -> dict[str, float]:
    """Medians over the repeats; times at the reference speed."""
    n = run.ctx.n
    return {
        "setup_s": statistics.median(setup_times),
        "dialogs_per_s": n / chain_median(reps, lambda r: r.ref_wall_s),
        "cpu_s_per_kdialog": chain_median(reps, lambda r: r.ref_cpu_s) * 1000.0 / n,
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in rep) for rep in reps),
        "out_bytes_per_dialog": statistics.median(sum(r.bytes_out for r in rep) for rep in reps) / n,
    }


def cli_metrics(reps: list[list[StageResult]], startup: list[float]) -> dict[str, float]:
    """Per-stage sums over one chain (max for RSS), median over repeats; 0 for stages the chain skips."""
    m = {"cli.startup_s": statistics.median(startup)}
    for st in STAGES:
        per_rep = [[r for r in rep if r.name == st] for rep in reps]
        for key in ("wall_s", "cpu_s", "bytes_in", "bytes_out"):
            m[f"cli.{st}.{key}"] = float(statistics.median(sum(getattr(r, key) for r in rs) for rs in per_rep))
        m[f"cli.{st}.peak_rss_mb"] = statistics.median(max((r.peak_rss_mb for r in rs), default=0.0)
                                                       for rs in per_rep)
    return m


def traced_passes(run: Run, seconds: float, reference: str, trace_file: Path) -> dict[str, float]:
    """Alternate untraced and traced in-process passes of the chain; per-layer medians plus overhead.

    Dialog latency percentiles pool the dialogs of every traced pass.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    dialog_ms: list[float] = []
    out = run.ctx.work / "inproc"
    t0 = time.perf_counter()
    while not layers or time.perf_counter() - t0 < seconds:
        for tracing in (False, True):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            stages = run.workload.chain(run.ctx, out)
            tracer = Tracer()
            if tracing:
                tracer.install()
            start = time.perf_counter()
            try:
                rcs = []
                for stage in stages:
                    with tracer.span(f"cli.{stage.name}") if tracing else contextlib.nullcontext():
                        rcs.append(run_inprocess(stage))
            finally:
                tracer.uninstall()
            walls[tracing].append(time.perf_counter() - start)
            run.record([(f"in-process {s.name} exits 0", rc == 0) for s, rc in zip(stages, rcs)])
            run.record([(f"{'traced' if tracing else 'untraced'} in-process outputs equal the subprocess outputs",
                         digest([out]) == reference)])
            if tracing:
                layers.append(tracer.layer_metrics())
                dialog_ms += tracer.dialog_ms()
    tracer.write(trace_file)
    metrics = median_metrics(layers)
    metrics["engine.dialog.samples"] = len(dialog_ms)
    metrics["engine.dialog.p50_ms"] = percentile(dialog_ms, 0.50)
    metrics["engine.dialog.p99_ms"] = percentile(dialog_ms, 0.99)
    metrics["trace.untraced_wall_s"] = statistics.median(walls[False])
    metrics["trace.traced_wall_s"] = statistics.median(walls[True])
    metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
    return metrics


def provenance(root: Path, ctx: Ctx) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "seed": ctx.seed,
        "n_dialogs": ctx.n,
        "jobs_check": ctx.jobs,
        "data_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted((root / "data").glob("*.json"))},
    }


def missing_inputs(root: Path) -> list[str]:
    need = ["src/shopdialog/cli.py"] + [f"data/{n}.json" for n in ("scenes", "metadata", "ontology", "policy", "templates")]
    return [p for p in need if not (root / p).is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = missing_inputs(root)
    if missing:
        print(f"error: not a shopdialog checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    compileall.compile_dir(str(root / "src"), quiet=1)

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / WORK_DIR / f"{tag}-pid{os.getpid()}"
    ctx = Ctx(root=root, work=work, seed=args.seed)
    run = Run(workload, ctx)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            setup_times = [run.setup()]
            run.check("set-up checks", lambda: workload.setup_checks(ctx))
            reps = run.repeat_chain(args.seconds / 2)
            startup = [run_subprocess(Stage(("--version",)), root, work / "stderr.log").wall_s
                       for _ in range(STARTUP_REPEATS)]
            reference = digest([work / "chain"])
            metrics = cli_metrics(reps, startup)
            metrics.update(traced_passes(run, args.seconds / 2, reference,
                                         root / WORK_DIR / "traces" / f"{tag}.tsv"))
            units = {**CLI_UNITS, **LAYER_UNITS, **TRACE_UNITS}
        else:
            setup_times = []
            digests = set()
            for _ in range(SETUP_REPEATS):
                setup_times.append(run.setup())
                digests.add(digest([ctx.setup_dir]))
            run.record([("set-up output identical across repeats", len(digests) == 1)])
            run.check("set-up checks", lambda: workload.setup_checks(ctx))
            reps = run.repeat_chain(args.seconds)
            metrics = end_to_end(run, setup_times, reps)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(root, ctx),
        "chain_repeats": len(reps),
        "setup_repeats": len(setup_times),
        "setup_s_samples": setup_times,
        "chain_wall_s_samples": [sum(r.wall_s for r in rep) for rep in reps],
        "chain_ref_wall_s_samples": [sum(r.ref_wall_s for r in rep) for rep in reps],
        "stage_samples": [[[r.name, r.wall_s, r.cpu_s, r.slowdown] for r in rep] for rep in reps],
        "attempted": run.attempted,
        "failed": failed,
        "failed_ops_ratio": failed / run.attempted,
        "failures": run.failures,
        "metrics": metrics,
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name in units:
        print(f"{name:42s} {metrics[name]:>16.6f} {units[name]}")
    print(f"repeats {len(reps)} chain, {len(setup_times)} set-up; median slowdown "
          f"{statistics.median(r.slowdown for rep in reps for r in rep):.3f}; "
          f"failed_ops_ratio {record['failed_ops_ratio']:.4f} ({failed}/{run.attempted})"
          + (f"; failed: {'; '.join(run.failures)}" if failed else ""))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
