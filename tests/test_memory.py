"""Memory guard: the flow readers stream, so the memory a stage allocates does not grow with
the number of dialogs in its flow file.

Each stage runs in-process through `cli.main` under `tracemalloc`, on the first 400 and on all
1,600 dialogs of one simulated file, after an untraced warm-up run on 10 dialogs (module imports
and first-call caches are not the stage's data). Every stage (`realize` at either `--jobs`,
`gold` for SPD and ACT, `split` and `stats`) holds one dialog at a time, and `gold` writes each
row as it comes, so each must peak within 1.5x of its 400-dialog peak. A `gold` that holds every
row to sort them grows 2.3x (SPD) and 2.8x (ACT) over these files.
"""

import tracemalloc

import pytest

from shopdialog import engine, evalhub, realizer  # noqa: F401  imported before tracing starts
from shopdialog.cli import main
from tests.test_cli import DATA, base_flags

SIZES = (10, 400, 1600)


@pytest.fixture(scope="module")
def flow_files(tmp_path_factory):
    """The first 10, 400 and all 1,600 dialogs of one simulated flow file, by size."""
    root = tmp_path_factory.mktemp("memory")
    full = root / "flows_1600.jsonl"
    assert main(["simulate", *base_flags(), "--policy", str(DATA / "policy.json"),
                 "--n", str(SIZES[-1]), "--seed", "5", "--out", str(full)]) == 0
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    files = {SIZES[-1]: full}
    for n in SIZES[:-1]:
        files[n] = root / f"flows_{n}.jsonl"
        files[n].write_text("".join(lines[:n]), encoding="utf-8")
    return files


def stage_argv(stage, flows, out):
    if stage.startswith("realize"):  # "realize" or "realize --jobs 2"
        return [*stage.split(), *base_flags(), "--templates", str(DATA / "templates.json"),
                "--flows", str(flows), "--out", str(out)]
    if stage.startswith("gold"):  # "gold" (SPD) or "gold <task>"
        task = stage.split()[1] if " " in stage else "spd"
        return ["gold", *base_flags(), "--task", task, "--flows", str(flows), "--out", str(out)]
    if stage == "split":
        return ["split", "--flows", str(flows), "--out-dir", str(out)]
    return ["stats", "--flows", str(flows), "--out", str(out)]


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["realize", "realize --jobs 2", "split", "stats", "gold", "gold act"])
def test_peak_memory_does_not_hold_the_corpus(flow_files, tmp_path, capsys, stage):
    assert main(stage_argv(stage, flow_files[10], tmp_path / "warm-up")) == 0
    small, large = (traced_peak(stage_argv(stage, flow_files[n], tmp_path / f"out_{n}"))
                    for n in SIZES[1:])
    assert large <= 1.5 * small, (small, large)
