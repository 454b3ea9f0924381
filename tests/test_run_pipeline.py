"""Smoke test of the end-to-end demo script: every stage runs, every gold file scores
perfectly against itself, and every JSON Lines record is written in one compact form."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from shopdialog.acts import SPLIT_NAMES

ROOT = Path(__file__).resolve().parents[1]
TASKS = ("spd", "rru", "act", "recommend", "response")
JSONL_ARTIFACTS = ("flows.jsonl", "realized.jsonl", *(f"gold_{task}.jsonl" for task in TASKS),
                   *(f"splits/{name}.jsonl" for name in SPLIT_NAMES))


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--n", "20",
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def scores(report) -> list[float]:
    """Every precision, recall, F1 and BLEU figure in a report, at any depth."""
    if not isinstance(report, dict):
        return []
    found = [v for k, v in report.items() if k in ("precision", "recall", "f1", "bleu4")]
    return found + [s for v in report.values() for s in scores(v)]


def test_run_pipeline_scores_gold_perfectly(pipeline_out):
    for task in TASKS:
        report = json.loads((pipeline_out / f"report_{task}.json").read_text(encoding="utf-8"))
        assert report["task"] == task.upper() and report["n_rounds"] > 0
        assert scores(report) and all(s == 1.0 for s in scores(report)), (task, report)


def test_every_jsonl_record_is_written_compact(pipeline_out):
    """Each line of every JSON Lines artifact is its record as `jsonio.encode_line` writes it:
    no whitespace between tokens, non-ASCII kept. A writer that bypasses it fails here."""
    written = sorted(p.relative_to(pipeline_out).as_posix() for p in pipeline_out.rglob("*.jsonl"))
    assert written == sorted(JSONL_ARTIFACTS)
    for name in JSONL_ARTIFACTS:
        lines = (pipeline_out / name).read_text(encoding="utf-8").splitlines()
        assert lines, name
        for line_no, line in enumerate(lines, 1):
            expected = json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":"))
            assert line == expected, f"{name}:{line_no}"
