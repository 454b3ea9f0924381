"""Structure guard: one module owns JSON parsing and one owns the process pool."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shopdialog"


def _modules_containing(needle: str) -> set[str]:
    return {p.name for p in SRC.glob("*.py") if needle in p.read_text(encoding="utf-8")}


def test_process_pool_lives_in_one_module():
    assert len(_modules_containing("ProcessPoolExecutor")) == 1


def test_json_parsing_lives_in_jsonio():
    assert _modules_containing("json.load(") | _modules_containing("json.loads(") == {"jsonio.py"}
