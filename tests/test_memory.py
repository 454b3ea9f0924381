"""Memory guard: the flow readers stream, so the memory a stage allocates does not grow with
the number of dialogs in its flow file.

Each stage runs in-process through `cli.main` under `tracemalloc`, on the first 400 and on all
1,600 dialogs of one simulated file, after an untraced warm-up run on 10 dialogs (module imports
and first-call caches are not the stage's data). `realize`, `split` and `stats` must peak within
1.5x of their 400-dialog peak. `gold` keeps every row it writes, because `write_predictions`
sorts them by key, so its peak grows with its rows: about 0.9 KB a dialog for SPD. It must grow
by less than half the bytes the larger file adds; a reader that holds the decoded corpus grows
by about five times them.
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
    if stage == "realize":
        return ["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
                "--flows", str(flows), "--out", str(out)]
    if stage == "gold":
        return ["gold", *base_flags(), "--task", "spd", "--flows", str(flows), "--out", str(out)]
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


@pytest.mark.parametrize("stage", ["realize", "split", "stats", "gold"])
def test_peak_memory_does_not_hold_the_corpus(flow_files, tmp_path, capsys, stage):
    assert main(stage_argv(stage, flow_files[10], tmp_path / "warm-up")) == 0
    small, large = (traced_peak(stage_argv(stage, flow_files[n], tmp_path / f"out_{n}"))
                    for n in SIZES[1:])
    if stage == "gold":
        added = flow_files[1600].stat().st_size - flow_files[400].stat().st_size
        assert large - small < added / 2, (small, large, added)
    else:
        assert large <= 1.5 * small, (small, large)
