"""Structure guard: one module owns each concern (the scene index among them), uniform draws use
`rng.choice`, no module names a per-turn count or item list, simulated
turns carry exactly the slots of the act-slot table and the template keys derive from it, each
subcommand loads only the modules it runs, none loads `dataclasses` and none imports `csv`, every
name the benchmark's tracer patches is a top-level function of its module, `cli.main` alone
writes manifests, the README lists the flow keys the engine writes and the exception types
`errors.py` defines, and a successful process has nothing left to close when `cli.run` skips
interpreter teardown."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shopdialog"


def _modules_containing(needle: str) -> set[str]:
    return {p.name for p in SRC.glob("*.py") if needle in p.read_text(encoding="utf-8")}


def test_no_module_starts_a_worker_process():
    """Every stage runs in one process."""
    for needle in ("ProcessPoolExecutor", "concurrent.futures", "multiprocessing"):
        assert _modules_containing(needle) == set(), needle


def test_json_parsing_lives_in_jsonio():
    assert _modules_containing("json.load(") | _modules_containing("json.loads(") == {"jsonio.py"}


def test_region_containment_lives_in_catalog():
    assert _modules_containing("contains_center") == {"catalog.py"}


def test_scene_index_is_built_in_catalog():
    """Only `catalog._parse_scenes` keys scenes by `scene_id`: `load_catalog` returns that one
    index, and every stage looks a flow's scene up in it."""
    builders = []
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                keys = [t.slice for t in node.targets if isinstance(t, ast.Subscript)] if isinstance(
                    node, ast.Assign) else [node.key] if isinstance(node, ast.DictComp) else []
                if any(isinstance(k, ast.Attribute) and k.attr == "scene_id" for k in keys):
                    builders.append(f"{path.name}:{fn.name}")
    assert builders == ["catalog.py:_parse_scenes"]


def test_uniform_draws_use_choice():
    """A uniform pick from a sequence is `rng.choice(seq)`, which draws the same number as
    `seq[rng.randrange(len(seq))]`."""
    assert _modules_containing("[rng.randrange(len(") == set()


def test_no_module_names_a_per_turn_count():
    """A flow carries one `candidate_counts` list, and readers take no older per-turn count or
    item list, so no module names the keys "candidate_count" or "candidate_items"."""
    for needle in ('"candidate_count"', '"candidate_items"'):
        assert _modules_containing(needle) == set(), needle


def test_missing_slots_are_reported_in_one_module():
    """Only `engine.check_turn` checks that a turn carries its act's slots."""
    assert _modules_containing("missing slot") == {"engine.py"}


def test_flows_are_checked_and_located_in_one_module():
    """Only `engine.check_flow` calls `check_turn`, and it puts the flow's "<path>:<line>" in
    front of the fault; no module sets a `line` on an exception afterwards."""
    callers, stamps = [], []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [f"{path.name}:{fn.name}" for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and ast.unparse(node.func).split(".")[-1] == "check_turn"]
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            stamps += [f"{path.name}:{node.lineno}" for t in targets
                       if isinstance(t, ast.Attribute) and t.attr == "line"]
    assert callers == ["engine.py:check_flow"]
    assert stamps == []


def test_simulated_turns_carry_exactly_their_act_slots(scenes, scenes_by_id, ontology, policy):
    """The engine writes each act with the slots `ACT_SLOTS` lists but those `ECHOED_SLOTS` lists,
    in table order, and stores a salesperson turn's act only; the acts and full slots `full_turns`
    gives cover `ACT_SLOTS` and pass `check_turn`, and every act of the table occurs."""
    from shopdialog.acts import ACT_SLOTS, ECHOED_SLOTS
    from shopdialog.engine import check_turn, full_turns, generate_corpus

    seen = set()
    for seed in (3, 11):
        for flow in generate_corpus(scenes, ontology, policy, 300, seed):
            for k, (turn, (act, full)) in enumerate(zip(flow.turns, full_turns(flow.turns))):
                assert ("act" in turn) == (k % 2 == 0) and turn.get("act", act) == act, turn
                stored = tuple(key for key in ACT_SLOTS[act] if key not in ECHOED_SLOTS.get(act, ()))
                assert tuple(turn["slots"]) == stored, turn
                assert set(ACT_SLOTS[act]) <= set(full), (turn, full)
                check_turn(act, full, scenes_by_id[flow.scene_id], ontology)
                seen.add(act)
    assert seen == set(ACT_SLOTS)


def test_echoed_slots_are_slots_of_both_acts_of_a_pair():
    """Every slot a customer act echoes is one it carries, and one every salesperson act it
    answers carries too; only customer acts echo."""
    from shopdialog.acts import ACT_PAIRS, ACT_SLOTS, ECHOED_SLOTS

    assert set(ECHOED_SLOTS) <= set(ACT_PAIRS.values())
    for act, echoed in ECHOED_SLOTS.items():
        assert echoed and set(echoed) <= set(ACT_SLOTS[act]), act
        asked = [s for s, c in ACT_PAIRS.items() if c == act]
        assert asked and all(set(echoed) <= set(ACT_SLOTS[s]) for s in asked), act


def test_template_keys_derive_from_act_slots():
    """A template file gives one key per act, or an ".accept" and a ".reject" key for an act that
    carries `accept`; the shipped file gives exactly those."""
    from shopdialog.acts import ACT_PAIRS, ACT_SLOTS, SALESPERSON_ACTS
    from shopdialog.realizer import REQUIRED_KEYS

    assert set(ACT_SLOTS) == {*SALESPERSON_ACTS, *ACT_PAIRS.values()}
    derived = [key for act, slots in ACT_SLOTS.items()
               for key in ((f"{act}.accept", f"{act}.reject") if "accept" in slots else (act,))]
    assert list(REQUIRED_KEYS) == derived
    shipped = json.loads((ROOT / "data" / "templates.json").read_text(encoding="utf-8"))
    assert set(shipped) == set(derived)


def test_eval_imports_only_scoring_modules(tmp_path):
    """`eval` on every task loads no simulation module, no dataclasses, datetime, csv or
    process pool."""
    from tests.test_cli import TINY_GOLD, write_tiny_gold

    argvs = []
    for task in TINY_GOLD:
        gold = str(write_tiny_gold(tmp_path / f"gold_{task}.jsonl", task))
        argvs.append(["eval", "--task", task, "--pred", gold, "--gold", gold,
                      "--out", str(tmp_path / f"report_{task}.json")])
    unwanted = ["dataclasses", "datetime", "csv", "shopdialog.engine", "shopdialog.catalog",
                "shopdialog.ontology", "shopdialog.realizer", "concurrent.futures.process"]
    probe = (
        "import sys\nfrom shopdialog import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        f"print(codes, [m for m in {unwanted!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == f"{[0] * len(argvs)} []"


def test_no_module_imports_csv():
    """Reports are JSON only."""
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "csv" not in names, path.name


def test_no_module_uses_dataclasses():
    """Records are NamedTuples or plain classes: importing `dataclasses` costs every process."""
    assert _modules_containing("dataclass") == set()


def _fresh_run(argv: list[str], watched: list[str]) -> str:
    """`cli.main(argv)` in a new interpreter: its exit code and which watched modules it loaded."""
    probe = (
        "import sys\nfrom shopdialog import cli\n"
        f"rc = cli.main({argv!r})\n"
        f"print(rc, [m for m in {watched!r} if m in sys.modules])"
    )
    return subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()[-1]


def test_flow_stages_import_only_what_they_run(tmp_path):
    """No stage loads dataclasses or datetime; split and stats load no catalog, ontology, attributes or
    realizer; validate, simulate and realize load no evalhub."""
    from shopdialog.acts import TASKS
    from shopdialog.cli import main
    from tests.conftest import DATA
    from tests.test_cli import base_flags

    flows, realized = tmp_path / "flows.jsonl", tmp_path / "realized.jsonl"
    simulate = ["simulate", *base_flags(), "--policy", str(DATA / "policy.json"), "--n", "20",
                "--seed", "3", "--out", str(flows)]
    realize = ["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
               "--flows", str(flows), "--out", str(realized)]
    assert main(simulate) == 0 and main(realize) == 0
    stages = {
        "validate": ["validate", *base_flags(), "--policy", str(DATA / "policy.json"),
                     "--templates", str(DATA / "templates.json")],
        "simulate": simulate[:-1] + [str(tmp_path / "flows2.jsonl")],
        "realize": realize[:-1] + [str(tmp_path / "realized2.jsonl")],
        **{f"gold {task}": ["gold", *base_flags(), "--task", task, "--flows", str(realized),
                            "--out", str(tmp_path / f"gold_{task}.jsonl")]
           for task in (t.lower() for t in TASKS)},
        "split": ["split", "--flows", str(realized), "--out-dir", str(tmp_path / "splits")],
        "stats": ["stats", "--flows", str(realized), "--out", str(tmp_path / "stats.json")],
    }
    flow_only = ["shopdialog.catalog", "shopdialog.ontology", "shopdialog.attributes",
                 "shopdialog.realizer"]
    for name, argv in stages.items():
        watched = ["dataclasses", "datetime"]
        if name in ("split", "stats"):
            watched += flow_only
        elif not name.startswith("gold"):
            watched.append("shopdialog.evalhub")
        assert _fresh_run(argv, watched) == "0 []", name


def test_main_is_the_one_output_step():
    """`main` writes every manifest, at the one call of `_write_manifest` in the package, and
    each subcommand's function takes only the parsed arguments."""
    from shopdialog.cli import SUBCOMMANDS

    callers = []
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                callers += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_write_manifest"]
    assert callers == ["cli.py:main"]
    for name, (_, fn, _) in SUBCOMMANDS.items():
        assert len(inspect.signature(fn).parameters) == 1, name


def _traced_targets() -> dict[str, tuple[str, ...]]:
    """`TARGETS` of perfbench/tracing.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )


def test_traced_names_exist(scenes, ontology, policy):
    for module, names in _traced_targets().items():
        mod = importlib.import_module(f"shopdialog.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    # The tracer reads these arguments by position.
    from shopdialog import engine
    from shopdialog.evalhub import build_gold

    assert list(inspect.signature(build_gold).parameters)[3] == "task"
    # generate_corpus takes no sixth argument, which the tracer would read as a jobs count.
    assert len(inspect.signature(engine.generate_corpus).parameters) == 5
    # It counts accepted dialogs from the `outcome` of what generate_corpus yields, and times
    # the flow codec through these engine functions.
    flows = list(engine.generate_corpus(scenes, ontology, policy, 2, 0))
    assert len(flows) == 2 and all(flow.outcome in ("success", "max_rounds") for flow in flows)
    for name in ("flow_to_dict", "flow_from_dict", "read_flows", "write_flows"):
        fn = getattr(engine, name)
        assert inspect.isfunction(fn) and fn.__qualname__ == name, name


def test_traced_names_are_module_level_functions():
    """The tracer wraps each name where its module defines it; a traced function that is
    inlined, nested or rebound to another object would escape `--trace 1`."""
    for module, names in _traced_targets().items():
        path = SRC / f"{module}.py"
        defined = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.FunctionDef)}
        mod = importlib.import_module(f"shopdialog.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            assert name in defined, f"{module}.{name} is not a top-level def"
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{module}.{name}"
            assert fn.__qualname__ == name, f"{module}.{name} is {fn.__qualname__}"


def test_flow_turn_keys_match_readme(tmp_path, scenes, scenes_by_id, ontology, policy, templates):
    from shopdialog.engine import generate_corpus, write_flows
    from shopdialog.realizer import realize_corpus

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("**Dialog flows**", 1)[1].split("\n\n", 1)[0]
    sentences = [paragraph.split(f"A {speaker} turn carries", 1)[1].split(".", 1)[0]
                 for speaker in ("salesperson", "customer")]
    readme_keys = [tuple(re.findall(r"`([^`]+)`", sentence)) for sentence in sentences]
    flows = realize_corpus(enumerate(generate_corpus(scenes, ontology, policy, 3, base_seed=0), 1),
                           templates, ontology, scenes_by_id, base_seed=0)
    write_flows(flows, tmp_path / "realized.jsonl")
    lines = (tmp_path / "realized.jsonl").read_text(encoding="utf-8").splitlines()
    for k in (0, 1):  # the salesperson turns, then the customer turns
        keys = {tuple(turn) for line in lines for turn in json.loads(line)["turns"][k::2]}
        assert keys == {readme_keys[k]}


def test_every_open_is_a_with_item():
    """`cli.run` ends a successful process without teardown, which would otherwise close a file
    left open, so every `open(...)` in the package is the context expression of a `with`."""
    calls = 0
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_with = {id(item.context_expr) for node in ast.walk(tree)
                   if isinstance(node, ast.With) for item in node.items}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id == "open" or (
                    isinstance(func, ast.Attribute) and func.attr == "open"
                    and not (isinstance(func.value, ast.Name) and func.value.id == "os")):
                calls += 1
                assert id(node) in in_with, f"{path.name}:{node.lineno}"
    assert calls >= 4


def test_script_target_is_the_module_entry_point():
    """The installed `shopdialog` command runs the function `python -m shopdialog` runs."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^shopdialog\s*=\s*"([^"]+)"', scripts, re.M).group(1)
    tree = ast.parse((SRC / "__main__.py").read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    [call] = [node.value for node in guard.body if isinstance(node, ast.Expr)]
    imports = {alias.asname or alias.name: f"shopdialog.{node.module}:{alias.name}"
               for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    assert imports.get(ast.unparse(call.func)) == target == "shopdialog.cli:run"


def test_exception_classes_match_readme_and_are_used():
    """`errors.py` defines exactly the exceptions README's table lists, and some module of the
    package raises or catches each one; a class that is neither is one more name to learn."""
    defined = [node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| exception | meaning |", 1)[1].split("\n\n", 1)[0]
    assert defined == re.findall(r"^\| `(\w+)` \|", table, re.M)
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(ast.unparse(exc).split(".")[0])  # a constructor such as `X.at(...)` raises an X
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                used.update(ast.unparse(t) for t in types)
    assert set(defined) <= used, sorted(set(defined) - used)
