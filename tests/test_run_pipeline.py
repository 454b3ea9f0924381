"""Smoke test of the end-to-end demo script: every stage runs and every gold file
scores perfectly against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TASKS = ("spd", "rru", "act", "recommend", "response")


def scores(report) -> list[float]:
    """Every precision, recall, F1 and BLEU figure in a report, at any depth."""
    if not isinstance(report, dict):
        return []
    found = [v for k, v in report.items() if k in ("precision", "recall", "f1", "bleu4")]
    return found + [s for v in report.values() for s in scores(v)]


def test_run_pipeline_scores_gold_perfectly(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), "--n", "20",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for task in TASKS:
        report = json.loads((tmp_path / f"report_{task}.json").read_text(encoding="utf-8"))
        assert report["task"] == task.upper() and report["n_rounds"] > 0
        assert scores(report) and all(s == 1.0 for s in scores(report)), (task, report)
