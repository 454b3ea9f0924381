"""Structure guard: one module owns each concern, and importing the CLI loads no process pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shopdialog"


def _modules_containing(needle: str) -> set[str]:
    return {p.name for p in SRC.glob("*.py") if needle in p.read_text(encoding="utf-8")}


def test_process_pool_lives_in_one_module():
    assert len(_modules_containing("ProcessPoolExecutor")) == 1


def test_json_parsing_lives_in_jsonio():
    assert _modules_containing("json.load(") | _modules_containing("json.loads(") == {"jsonio.py"}


def test_region_containment_lives_in_catalog():
    assert _modules_containing("contains_center") == {"catalog.py"}


def test_cli_import_skips_process_pool():
    probe = "import sys, shopdialog.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"
