"""Run shopdialog CLI stages as subprocesses or in-process, and measure them.

A stage is one `shopdialog <subcommand> ...` invocation.  The timed run starts
each stage as its own process (`python3 -m shopdialog`) and reads wall time
from the parent and CPU time and peak RSS from `os.wait4`, whose resource
usage covers the stage process and every pool worker it reaped.  The traced
run calls `shopdialog.cli.main` with the same arguments in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

STAGE_TIMEOUT_S = 60
# Reference time of one `calibrate()`: the timing metrics are given at the
# machine speed where the calibration task takes this long.  Fixed for good;
# changing it or the task rescales every timing metric.
CALIBRATION_REF_S = 0.005
CALIBRATION_TRIES = 3


@dataclass(frozen=True)
class Stage:
    """One CLI call; `name` is the subcommand, `argv` follows `shopdialog`."""

    argv: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.argv[0]

    def input_files(self) -> list[Path]:
        """Every argument that names an existing file (fixtures included)."""
        return [Path(a) for a in self.argv[1:] if os.path.isfile(a)]

    def output_paths(self) -> list[Path]:
        return [Path(self.argv[i + 1]) for i, a in enumerate(self.argv) if a in ("--out", "--out-dir")]


@dataclass
class StageResult:
    name: str
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    bytes_in: int
    bytes_out: int
    # calibration time around the stage / CALIBRATION_REF_S
    slowdown: float = 1.0

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


def _calibration_task() -> int:
    rows = [{"id": i, "name": f"item-{i}", "tags": [i % 7, i % 11]} for i in range(1500)]
    index: dict[int, list[str]] = {}
    for row in rows:
        index.setdefault(row["tags"][0], []).append(row["name"].upper())
    return len(json.loads(json.dumps(rows))) + sum(len(v) for v in index.values())


def calibrate() -> float:
    """Wall time of a fixed pure-Python task (dicts, strings, json): the machine's speed now.

    The fastest of CALIBRATION_TRIES, so that one preemption does not count.
    """
    best = float("inf")
    for _ in range(CALIBRATION_TRIES):
        t0 = time.perf_counter()
        _calibration_task()
        best = min(best, time.perf_counter() - t0)
    return best


def artifact_files(paths: list[Path]) -> list[Path]:
    """The data artifacts under `paths` in a fixed order; manifests carry a timestamp and are left out."""
    files = []
    for path in paths:
        candidates = sorted(path.rglob("*")) if path.is_dir() else [path]
        files += [f for f in candidates if f.is_file() and not f.name.endswith(".manifest.json")]
    return files


def artifact_bytes(paths: list[Path]) -> int:
    return sum(f.stat().st_size for f in artifact_files(paths))


def run_subprocess(stage: Stage, root: Path, log: Path) -> StageResult:
    """Run one stage as `python3 -m shopdialog` and reap it with wait4; calibrate before and after."""
    before = calibrate()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bytes_in = sum(p.stat().st_size for p in stage.input_files())
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "shopdialog", *stage.argv],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no stage process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    after = calibrate()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageResult(
        name=stage.name,
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        bytes_in=bytes_in,
        bytes_out=artifact_bytes(stage.output_paths()),
        slowdown=(before + after) / 2 / CALIBRATION_REF_S,
    )


def run_inprocess(stage: Stage) -> int:
    """Call `shopdialog.cli.main` on the stage's arguments; its stdout is discarded."""
    from shopdialog import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(list(stage.argv))
        except SystemExit as exc:  # argparse rejects a usage error this way
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of the program fails this stage, not the benchmark
            traceback.print_exc()
            return 1
