"""Property test at the input boundary: one of the five config files, a flow line or a prediction
row, with one value mutated (a key dropped, a type changed, a list swapped in, a value emptied),
makes `cli.main` exit 0, or exit 1 with exactly one `error:` line; it never raises."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopdialog.acts import TASKS
from shopdialog.cli import main
from tests.conftest import DATA

CONFIGS = ("scenes", "metadata", "ontology", "policy", "templates")
MUTATIONS = ("drop", "retype", "listify", "empty")
# A value of each JSON type; "retype" swaps in one whose type differs from the value's.
SAMPLES = (0, -1, 2.5, "", "x", True, None, [], {})
BOUNDARY = settings(max_examples=100, deadline=None, derandomize=True)


def run(argv: list[str]) -> int:
    """Run `cli.main` in-process; an exit 1 must print exactly one line, and it must be an
    `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1), (argv, code)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code


def catalog_flags(paths: dict) -> list[str]:
    return [arg for name in ("scenes", "metadata", "ontology") for arg in (f"--{name}", str(paths[name]))]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small realized corpus and its gold file for every task, made once."""
    root = tmp_path_factory.mktemp("boundary")
    paths = {name: DATA / f"{name}.json" for name in CONFIGS}
    flows, realized = root / "flows.jsonl", root / "realized.jsonl"
    assert run(["simulate", *catalog_flags(paths), "--policy", str(paths["policy"]), "--n", "4",
                "--seed", "1", "--out", str(flows)]) == 0
    assert run(["realize", *catalog_flags(paths), "--templates", str(paths["templates"]),
                "--flows", str(flows), "--out", str(realized)]) == 0
    for task in TASKS:
        assert run(["gold", *catalog_flags(paths), "--flows", str(realized), "--task", task.lower(),
                    "--out", str(root / f"gold_{task}.jsonl")]) == 0
    return root


def mutated(data, doc):
    """A copy of `doc` (a JSON object or list) with one value, reached by a random walk from the
    top, mutated; the walk stops at a scalar, an empty container, or when it draws to stop."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    while True:
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child) or data.draw(st.booleans()):
            break
        parent = child
    how = data.draw(st.sampled_from(MUTATIONS))
    if how == "drop":
        del parent[key]
    elif how == "retype":
        parent[key] = data.draw(st.sampled_from([v for v in SAMPLES if type(v) is not type(child)]))
    elif how == "listify":
        parent[key] = [child]
    else:
        parent[key] = type(child)() if child is not None else None
    return doc


def read_lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def write_lines(path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@BOUNDARY
@given(st.data())
def test_mutated_config_exits_cleanly(corpus, data):
    config = data.draw(st.sampled_from(CONFIGS))
    paths = {name: DATA / f"{name}.json" for name in CONFIGS}
    paths[config] = corpus / f"mutated_{config}.json"
    raw = json.loads((DATA / f"{config}.json").read_text(encoding="utf-8"))
    paths[config].write_text(json.dumps(mutated(data, raw)), encoding="utf-8")
    out = str(corpus / "out.jsonl")
    if config != "templates":
        run(["simulate", *catalog_flags(paths), "--policy", str(paths["policy"]), "--n", "2",
             "--out", out])
    if config != "policy":
        run(["realize", *catalog_flags(paths), "--templates", str(paths["templates"]),
             "--flows", str(corpus / "flows.jsonl"), "--out", out])
    if config in ("scenes", "metadata", "ontology"):
        task = data.draw(st.sampled_from(TASKS)).lower()
        run(["gold", *catalog_flags(paths), "--flows", str(corpus / "realized.jsonl"),
             "--task", task, "--out", out])


@BOUNDARY
@given(st.data())
def test_mutated_flow_line_exits_cleanly(corpus, data):
    records = read_lines(corpus / "realized.jsonl")
    index = data.draw(st.integers(0, len(records) - 1))
    records[index] = mutated(data, records[index])
    flows = corpus / "mutated_flows.jsonl"
    write_lines(flows, records)
    paths = {name: DATA / f"{name}.json" for name in CONFIGS}
    out = str(corpus / "out.jsonl")
    task = data.draw(st.sampled_from(TASKS)).lower()
    run(["realize", *catalog_flags(paths), "--templates", str(paths["templates"]),
         "--flows", str(flows), "--out", out])
    run(["gold", *catalog_flags(paths), "--flows", str(flows), "--task", task, "--out", out])
    run(["split", "--flows", str(flows), "--out-dir", str(corpus / "splits")])
    run(["stats", "--flows", str(flows), "--out", out])


@BOUNDARY
@given(st.data())
def test_mutated_prediction_row_exits_cleanly(corpus, data):
    task = data.draw(st.sampled_from(TASKS))
    gold = corpus / f"gold_{task}.jsonl"
    records = read_lines(gold)
    index = data.draw(st.integers(0, len(records) - 1))  # record 0 is the header
    records[index] = mutated(data, records[index])
    mutant = corpus / "mutated_rows.jsonl"
    write_lines(mutant, records)
    pred, against = (mutant, gold) if data.draw(st.booleans()) else (gold, mutant)
    run(["eval", "--task", task.lower(), "--pred", str(pred), "--gold", str(against),
         "--out", str(corpus / "report.json")])
