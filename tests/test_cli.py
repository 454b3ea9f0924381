import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shopdialog import __version__
from shopdialog.acts import SALESPERSON_ACTS, SPLIT_NAMES
from shopdialog.cli import main
from shopdialog.engine import answer_slots
from tests.conftest import DATA, ROOT, SPEAKERS, act_of


def base_flags():
    return [
        "--scenes", str(DATA / "scenes.json"),
        "--metadata", str(DATA / "metadata.json"),
        "--ontology", str(DATA / "ontology.json"),
    ]


def test_validate_ok(capsys):
    rc = main(["validate", *base_flags(),
               "--policy", str(DATA / "policy.json"),
               "--templates", str(DATA / "templates.json")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("OK")


def test_validate_bad_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "scenes.json"
    bad.write_text("{not json")
    rc = main(["validate", "--scenes", str(bad),
               "--metadata", str(DATA / "metadata.json"),
               "--ontology", str(DATA / "ontology.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two(tmp_path):
    negative_n = ["simulate", *base_flags(), "--policy", str(DATA / "policy.json"),
                  "--n", "-5", "--out", str(tmp_path / "flows.jsonl")]
    for argv in (["simulate", "--n", "5"], negative_n):  # missing required flags; --n < 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not (tmp_path / "flows.jsonl").exists()


@pytest.mark.parametrize("stage", ["simulate", "realize"])
@pytest.mark.parametrize("jobs", ["0", "-4", "1.5", "two"])
def test_jobs_must_be_a_positive_integer(tmp_path, stage, jobs):
    if stage == "simulate":
        extra = ["--policy", str(DATA / "policy.json"), "--n", "5"]
    else:
        extra = ["--templates", str(DATA / "templates.json"), "--flows", str(tmp_path / "in.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main([stage, *base_flags(), *extra, "--jobs", jobs, "--out", str(tmp_path / "out.jsonl")])
    assert exc.value.code == 2
    assert not (tmp_path / "out.jsonl").exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def simulate(tmp_path, name, n=30, seed=7, jobs=1):
    out = tmp_path / name
    rc = main(["simulate", *base_flags(),
               "--policy", str(DATA / "policy.json"),
               "--n", str(n), "--seed", str(seed), "--jobs", str(jobs),
               "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_is_reproducible(tmp_path):
    a = simulate(tmp_path, "a.jsonl")
    b = simulate(tmp_path, "b.jsonl")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_jobs_do_not_change_output(tmp_path):
    # Every stage runs in one process and ignores --jobs: each n, 0 among them, writes the same bytes.
    for n, jobs in ((40, 4), (0, 4), (2, 4)):
        serial = simulate(tmp_path, f"serial_{n}.jsonl", n=n, jobs=1)
        parallel = simulate(tmp_path, f"parallel_{n}.jsonl", n=n, jobs=jobs)
        assert serial.read_bytes() == parallel.read_bytes(), (n, jobs)


# sha256 of the flow file `simulate --n 200` writes on the fixture pack: a change that
# reorders one RNG draw, or alters one byte of the JSON encoding, moves these.
PINNED_FLOWS_SHA256 = {
    3: "5dcf461c1c4944c1aca6ec636ffbff86ab8b6c8300393a07ce727d3687aebeb5",
    11: "67ffca12ce5c54ec1581a71ecda04ada6a2128ae51810273392b49e451975a8a",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed", sorted(PINNED_FLOWS_SHA256))
def test_simulate_bytes_are_pinned(tmp_path, seed, jobs):
    out = simulate(tmp_path, "flows.jsonl", n=200, seed=seed, jobs=jobs)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_FLOWS_SHA256[seed]


# sha256 of each file derived from `simulate --n 200 --seed 3` realized at `--seed 3`: the five
# gold files, SPD gold in `scene_only` mode and the stats report. A change to the flow format
# that keeps the dialogs keeps these.
PINNED_DERIVED_SHA256 = {
    "gold_spd.jsonl": "b5ec9a63a7a559fbec604dfc567a1698626bf9c05bf40606f52e6303838b37af",
    "gold_rru.jsonl": "25e9fc16ccb602eb351e5018fbb860bd7d2bd71595790d7fd3f017092878362c",
    "gold_act.jsonl": "5bec1b4ec8e7998c353b7d55c2a0237b564a55de148bc79e46d30220c69a88d2",
    "gold_recommend.jsonl": "d8dfdf58043a5a8cacc2f80532d4e237b228ba6ee5656e3aeebf7d833188a9b8",
    "gold_response.jsonl": "0afac516222b6223a3f33df96f0a0ec2073ea021489b8f2144eb3e2c84728d0c",
    "gold_spd_scene_only.jsonl": "8d5fc28278093b675042f76506ca98aa63c86ce33ad2854658041d055564c11e",
    "stats.json": "5937b42c07816a2183464310b6977f7977746eff3804ac753e3b4db3db3c4b52",
}


def test_derived_bytes_are_pinned(tmp_path):
    realized, out = tmp_path / "realized.jsonl", tmp_path / "out"
    out.mkdir()
    flows = simulate(tmp_path, "flows.jsonl", n=200, seed=3)
    assert main([*stage_argv("realize", flows, realized), "--seed", "3"]) == 0
    for task in TASKS:
        assert main(stage_argv(f"gold {task}", realized, out / f"gold_{task}.jsonl")) == 0
    assert main([*stage_argv("gold spd", realized, out / "gold_spd_scene_only.jsonl"),
                 "--spd-mode", "scene_only"]) == 0
    assert main(stage_argv("stats", realized, out / "stats.json")) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_DERIVED_SHA256}
    assert digests == PINNED_DERIVED_SHA256


def test_simulate_writes_manifest(tmp_path):
    out = simulate(tmp_path, "flows.jsonl")
    manifest = json.loads((tmp_path / "flows.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 7
    assert str(out) in manifest["outputs"]
    assert "--seed" in manifest["argv"]


def test_manifest_replay_is_byte_identical(tmp_path):
    out = simulate(tmp_path, "flows.jsonl")
    first = out.read_bytes()
    manifest = json.loads((tmp_path / "flows.jsonl.manifest.json").read_text())
    assert main(manifest["argv"]) == 0
    assert out.read_bytes() == first


def test_pipeline_gold_eval_perfect(tmp_path, capsys):
    flows = simulate(tmp_path, "flows.jsonl")
    gold = tmp_path / "gold.jsonl"
    rc = main(["gold", *base_flags(), "--flows", str(flows),
               "--task", "spd", "--out", str(gold)])
    assert rc == 0
    assert gold.read_text().startswith('{"task":"SPD","spd_mode":"cumulative"}\n')
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--task", "spd", "--pred", str(gold), "--gold", str(gold),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["micro"]["f1"] == 1.0
    assert report["spd_mode"] == "cumulative"


def test_eval_task_mismatch(tmp_path):
    flows = simulate(tmp_path, "flows.jsonl")
    gold = tmp_path / "gold.jsonl"
    main(["gold", *base_flags(), "--flows", str(flows), "--task", "rru", "--out", str(gold)])
    rc = main(["eval", "--task", "spd", "--pred", str(gold), "--gold", str(gold)])
    assert rc == 1


def test_eval_prints_report_without_out(tmp_path, capsys):
    flows = simulate(tmp_path, "flows.jsonl")
    gold = tmp_path / "gold.jsonl"
    main(["gold", *base_flags(), "--flows", str(flows), "--task", "act", "--out", str(gold)])
    capsys.readouterr()
    rc = main(["eval", "--task", "act", "--pred", str(gold), "--gold", str(gold)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["micro"]["f1"] == 1.0


def test_realize_deterministic_and_manifested(tmp_path):
    for n, jobs in ((30, 3), (0, 4), (2, 4)):
        flows = simulate(tmp_path, f"flows_{n}.jsonl", n=n)
        a = tmp_path / f"realized_a_{n}.jsonl"
        b = tmp_path / f"realized_b_{n}.jsonl"
        for out, j in ((a, 1), (b, jobs)):
            rc = main(["realize", *base_flags(),
                       "--templates", str(DATA / "templates.json"),
                       "--flows", str(flows), "--seed", "5", "--jobs", str(j),
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes(), (n, jobs)
        assert (tmp_path / f"realized_a_{n}.jsonl.manifest.json").exists()


def test_split_sizes_and_determinism(tmp_path):
    flows = simulate(tmp_path, "flows.jsonl", n=100)
    for run in ("one", "two"):
        rc = main(["split", "--flows", str(flows), "--seed", "13",
                   "--out-dir", str(tmp_path / run)])
        assert rc == 0
    sizes = {
        name: len((tmp_path / "one" / f"{name}.jsonl").read_text().splitlines())
        for name in ("train", "dev", "dev_test", "test_std")
    }
    assert sizes == {"train": 65, "dev": 5, "dev_test": 15, "test_std": 15}
    for name in sizes:
        assert (tmp_path / "one" / f"{name}.jsonl").read_bytes() == (
            tmp_path / "two" / f"{name}.jsonl"
        ).read_bytes()


STATS_SCALARS = [
    "n_dialogs", "n_utterances", "avg_utterances_per_dialog", "avg_salesperson_acts_per_dialog",
    "avg_subjective_preferences_per_dialog", "avg_objects_per_scene",
]


def test_stats_json_report(tmp_path):
    flows = simulate(tmp_path, "flows.jsonl")
    out_json = tmp_path / "stats.json"
    rc = main(["stats", "--flows", str(flows), "--out", str(out_json)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert list(report) == [*STATS_SCALARS, "candidate_items_by_round", "act_distribution_by_round"]
    assert report["n_dialogs"] == 30
    assert len(report["act_distribution_by_round"]) == 8
    assert all(list(row) == list(SALESPERSON_ACTS) for row in report["act_distribution_by_round"])


def test_stats_counts_the_preferences_of_flows_that_end_without_a_reply(tmp_path):
    """A flow may end on a salesperson turn without a reply. An ASK_PREFERENCE counts as a
    preference only once it is answered, since the answer names the concept, and a
    PROMPT_PREFERENCE counts either way, since it names its concept itself: the first dialog
    holds one preference, the second two."""
    prompt = {"act": "PROMPT_PREFERENCE", "slots": {"attribute": "color", "concept_id": "warm_color"}}
    lines = [turns_line([ASK_COLOR, ANSWER_WARM, {**ASK_COLOR, "slots": {"attribute": "size"}}]),
             turns_line([prompt, {"slots": {"accept": True}}, prompt], {"dialog_id": "d00001"})]
    flows, out = tmp_path / "flows.jsonl", tmp_path / "stats.json"
    flows.write_text("".join(line + "\n" for line in lines))
    assert main(["stats", "--flows", str(flows), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["avg_subjective_preferences_per_dialog"] == 1.5


# A small gold file per task, with a header, meant to be scored against itself.
TINY_GOLD = {
    "spd": ({"task": "SPD", "spd_mode": "cumulative"}, [["red"], ["blue", "red"]]),
    "rru": ({"task": "RRU"}, [[1, 2], [3]]),
    "act": ({"task": "ACT"}, ["ASK_PREFERENCE", "REFER_REGION"]),
    "response": ({"task": "RESPONSE"}, ["which color do you like ?", "here is <@3> ."]),
    "recommend": ({"task": "RECOMMEND"}, [[3], [7]]),
}
PRF_KEYS = ["precision", "recall", "f1", "tp", "fp", "fn"]
MACRO_KEYS = ["precision", "recall", "f1"]
REPORT_KEYS = {
    "spd": ["task", "n_rounds", "tool_version", "spd_mode", "micro", "macro"],
    "rru": ["task", "n_rounds", "tool_version", "micro", "macro"],
    "act": ["task", "n_rounds", "tool_version", "micro", "macro", "per_class"],
    "response": ["task", "n_rounds", "tool_version", "bleu4"],
    "recommend": ["task", "n_rounds", "tool_version", "micro"],
}


def write_tiny_gold(path, task, header=None):
    default_header, payloads = TINY_GOLD[task]
    header = default_header if header is None else header
    rows = [{"dialog_id": f"d{i:05d}", "round": 1, "payload": p} for i, p in enumerate(payloads)]
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *rows]))
    return path


@pytest.mark.parametrize("task", list(REPORT_KEYS))
def test_eval_report_keys_in_order(tmp_path, task):
    """The report's keys and each PRF's fields keep their order; a macro block has no counts."""
    gold = write_tiny_gold(tmp_path / "gold.jsonl", task)
    out = tmp_path / "report.json"
    assert main(["eval", "--task", task, "--pred", str(gold), "--gold", str(gold), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report) == REPORT_KEYS[task]
    if "micro" in report:
        assert list(report["micro"]) == PRF_KEYS
    if "macro" in report:
        assert list(report["macro"]) == MACRO_KEYS
    if task == "act":
        assert list(report["per_class"]) == ["ASK_PREFERENCE", "REFER_REGION"]
        assert all(list(prf) == PRF_KEYS for prf in report["per_class"].values())


@pytest.mark.parametrize("pred_mode", ["scene_only", "cumulative", None])
def test_eval_warns_on_spd_mode_mismatch(tmp_path, capsys, pred_mode):
    """A prediction header whose spd_mode differs from the gold's warns on stderr; the report is unchanged."""
    gold = write_tiny_gold(tmp_path / "gold.jsonl", "spd")
    header = {"task": "SPD"} if pred_mode is None else {"task": "SPD", "spd_mode": pred_mode}
    pred = write_tiny_gold(tmp_path / "pred.jsonl", "spd", header)
    reports = []
    for name, pred_file in (("self", gold), ("pred", pred)):
        reports.append(tmp_path / f"{name}.json")
        assert main(["eval", "--task", "spd", "--pred", str(pred_file), "--gold", str(gold),
                     "--out", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    warning = f"warning: {pred}: spd_mode 'scene_only' differs from gold 'cumulative'\n"
    assert capsys.readouterr().err == (warning if pred_mode == "scene_only" else "")


def test_inputs_never_mutated(tmp_path):
    scenes_bytes = (DATA / "scenes.json").read_bytes()
    ontology_bytes = (DATA / "ontology.json").read_bytes()
    simulate(tmp_path, "flows.jsonl")
    assert (DATA / "scenes.json").read_bytes() == scenes_bytes
    assert (DATA / "ontology.json").read_bytes() == ontology_bytes


def test_non_numeric_ratios_exit_one(tmp_path, capsys):
    flows = simulate(tmp_path, "flows.jsonl", n=5)
    capsys.readouterr()
    rc = main(["split", "--flows", str(flows), "--ratios", "a,b,c,d",
               "--out-dir", str(tmp_path / "splits")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("ratios", ["nan,0,0,1", "inf,0,0,1", "-inf,inf,0,1", "nan,nan,nan,nan"])
def test_non_finite_ratios_exit_one(tmp_path, capsys, ratios):
    flows = simulate(tmp_path, "flows.jsonl", n=5)
    capsys.readouterr()
    rc = main(["split", "--flows", str(flows), f"--ratios={ratios}",  # "=" keeps "-inf" a value
               "--out-dir", str(tmp_path / "splits")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ratios must be finite, non-negative and sum to 1")
    assert err.count("\n") == 1
    assert not (tmp_path / "splits").exists()


@pytest.mark.parametrize("stage, jobs", [
    ("gold", 1), *((f"gold {task}", 1) for task in ("rru", "act", "recommend", "response")),
    ("realize", 1), ("realize", 2),
])
def test_unknown_scene_id_exits_one(tmp_path, capsys, stage, jobs):
    """Every gold task and `realize` reject a flow whose scene is not in the scene file;
    `gold` alone is `gold spd`."""
    flows = simulate(tmp_path, "flows.jsonl", n=2)
    if stage == "gold response":  # RESPONSE gold reads realized flows
        assert main(stage_argv("realize", flows, tmp_path / "realized.jsonl")) == 0
        flows = tmp_path / "realized.jsonl"
    records = [json.loads(line) for line in flows.read_text().splitlines()]
    records[1]["scene_id"] = "nope"
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = stage_argv("gold spd" if stage == "gold" else stage, flows, tmp_path / "out.jsonl")
    capsys.readouterr()
    assert main([*argv, "--jobs", str(jobs)] if stage == "realize" else argv) == 1
    err = capsys.readouterr().err
    dialog = records[1]["dialog_id"]
    assert err == f"error: {flows}:2: dialog {dialog}: unknown scene_id 'nope': not in the scene file\n"
    assert not (tmp_path / "out.jsonl").exists()


def edited_flows(tmp_path, stage, edit) -> tuple[Path, list[dict]]:
    """Two simulated flows, realized for `gold response`, whose records `edit` changes."""
    flows = simulate(tmp_path, "flows.jsonl", n=2)
    if stage == "gold response":  # RESPONSE gold reads realized flows
        assert main(stage_argv("realize", flows, tmp_path / "realized.jsonl")) == 0
        flows = tmp_path / "realized.jsonl"
    records = [json.loads(line) for line in flows.read_text().splitlines()]
    edit(records)
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    return flows, records


@pytest.mark.parametrize("stage, jobs", [
    *((f"gold {task}", 1) for task in ("spd", "rru", "act", "recommend", "response")),
    ("realize", 1), ("realize", 2),
])
def test_unknown_recommend_target_exits_one(tmp_path, capsys, stage, jobs):
    """Every gold task and `realize` reject a flow whose target is not one of its scene's items,
    so `realize` writes nothing that `gold --task recommend` would then reject."""
    flows, records = edited_flows(tmp_path, stage, lambda r: r[1].update(target_object_id=99999))
    argv = stage_argv(stage, flows, tmp_path / "out.jsonl")
    capsys.readouterr()
    assert main([*argv, "--jobs", str(jobs)] if stage == "realize" else argv) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:2: dialog {records[1]['dialog_id']}: unknown target_object_id 99999: "
        f"not in scene {records[1]['scene_id']!r}\n")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("task", ["spd", "rru", "act", "recommend", "response"])
def test_duplicate_dialog_id_exits_one(tmp_path, capsys, task):
    """Gold rows are keyed by dialog id, so a repeated id would merge two dialogs' rows."""
    flows, records = edited_flows(tmp_path, f"gold {task}",
                                  lambda r: r[1].update(dialog_id=r[0]["dialog_id"]))
    capsys.readouterr()
    assert main(stage_argv(f"gold {task}", flows, tmp_path / "out.jsonl")) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:2: dialog {records[0]['dialog_id']}: duplicate dialog_id\n")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("spd_mode", ["cumulative", "scene_only"])
def test_gold_spd_rejects_concept_of_another_attribute(tmp_path, capsys, spd_mode):
    """A preference clause whose concept belongs to another attribute than its `attribute`
    slot is a located error, not a gold row of the other attribute's values."""
    flows = tmp_path / "flows.jsonl"
    answer = {**ANSWER_WARM, "slots": {"concept_id": "premium_price"}}
    flows.write_text(turns_line([ASK_COLOR, answer]) + "\n")
    capsys.readouterr()
    argv = stage_argv("gold spd", flows, tmp_path / "gold.jsonl")
    assert main([*argv, "--spd-mode", spd_mode]) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:1: dialog d00000 round 1 ANSWER_PREFERENCE: "
        "concept 'premium_price' is not a color concept\n")
    assert not (tmp_path / "gold.jsonl").exists()


def row(payload) -> str:
    return json.dumps({"dialog_id": "d00000", "round": 1, "payload": payload})


GOLD_ACT_ROW = row("ASK_PREFERENCE")
EMPTY_FLOW = json.dumps({"dialog_id": "d00000", "scene_id": "f01", "target_object_id": 1,
                         "outcome": "success", "candidate_counts": [2], "turns": []})


ASK_COLOR = {"act": "ASK_PREFERENCE", "slots": {"attribute": "color"}, "utterance": "Any color in mind?"}
ANSWER_WARM = {"slots": {"concept_id": "warm_color"}, "utterance": "Something warm."}  # ANSWER_PREFERENCE


def turns_line(turns: list[dict], flow_fields: dict | None = None) -> str:
    """A flow line of `turns`, each round leaving 2 candidate items, with the given flow fields
    replaced."""
    return json.dumps({"dialog_id": "d00000", "scene_id": "f01", "target_object_id": 1,
                       "outcome": "max_rounds", "candidate_counts": [2] * (len(turns) // 2 + 1),
                       "turns": turns, **(flow_fields or {})})


def flow_line(flow_fields: dict | None = None, before=(), **turn_fields) -> str:
    """A realized flow line of the turns `before` and then `ASK_COLOR` with the given turn fields
    replaced, and with the given flow fields replaced."""
    return turns_line([*before, {**ASK_COLOR, **turn_fields}], flow_fields)


@pytest.mark.parametrize("task, text, line", [
    ("act", '{"task": "ACT"}\n{"dialog_id": "d00000", "payload": "ASK_PREFERENCE"}\n', 2),
    ("act", '{"dialog_id": "d00000", "round": "one", "payload": "ASK_PREFERENCE"}\n', 1),
    ("act", '{"dialog_id": "d00000", "round": 1}\n', 1),
    ("act", '[1, 2]\n' + GOLD_ACT_ROW + '\n', 1),
    (None, '[1, 2]\n', 1),
    (None, EMPTY_FLOW + "\n", 1),
    ("spd", row(5) + "\n", 1),
    ("rru", '{"task": "RRU"}\n' + row([3, "a"]) + "\n", 2),
    ("rru", row([3.5]) + "\n", 1),
    ("recommend", row(5) + "\n", 1),
    (None, flow_line(slots=5) + "\n", 1),
    (None, flow_line(act=["x"]) + "\n", 1),
    (None, flow_line(utterance=5) + "\n", 1),
    (None, flow_line({"scene_id": ["f01"]}) + "\n", 1),
    (None, flow_line({"dialog_id": 0}) + "\n", 1),
    (None, flow_line({"target_object_id": "1"}) + "\n", 1),
    (None, flow_line() + "\n" + flow_line({"outcome": "banana"}) + "\n", 2),
], ids=["row-without-round", "non-integer-round", "row-without-payload",
        "array-header", "array-flow", "flow-without-turns", "spd-payload-not-a-list",
        "rru-string-id", "rru-float-id", "recommend-payload-not-a-list",
        "turn-slots-not-an-object", "turn-list-act", "turn-non-string-utterance", "list-scene-id",
        "integer-dialog-id", "string-target-object-id", "unknown-outcome"])
def test_malformed_jsonl_exits_one(tmp_path, capsys, task, text, line):
    """A malformed line, or a well-formed one with bad contents, exits 1 naming its line."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    if task is not None:
        gold = tmp_path / "gold.jsonl"
        gold.write_text((GOLD_ACT_ROW if task == "act" else row([])) + "\n")
        argv = ["eval", "--task", task, "--pred", str(bad), "--gold", str(gold)]
    else:
        argv = ["stats", "--flows", str(bad), "--out", str(tmp_path / "stats.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("stage", ["realize", "stats"])
def test_wrong_typed_turn_field_is_named_in_every_reader(tmp_path, capsys, stage):
    bad = tmp_path / "flows.jsonl"
    bad.write_text(flow_line(act=["x"]) + "\n")
    extra = [*base_flags(), "--templates", str(DATA / "templates.json")] if stage == "realize" else []
    assert main([stage, *extra, "--flows", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: bad dialog record (turn 1: act must be a string, got ['x'])\n")


MISSING = object()


def flows_with_bad_turn(tmp_path, edit, slot=None, speaker=None, act=None, text=None):
    """A flow file, of `text` or else of 40 simulated dialogs, whose first turn with `slot` (by
    `speaker` and of `act`, if given) is changed in place by `edit(turn)`; returns the file,
    "<line>: dialog <id> round <r> <act>", the edited turn's place in error messages after the
    file's path and a colon, and the edited record and turn."""
    if text is None:
        text = simulate(tmp_path, "flows.jsonl", n=40).read_text()
    records = [json.loads(line) for line in text.splitlines()]
    line, record, k, turn = next((i, r, k, t) for i, r in enumerate(records, 1)
                                 for k, t in enumerate(r["turns"])
                                 if slot in (None, *t["slots"]) and speaker in (None, SPEAKERS[k % 2])
                                 and act in (None, act_of(r["turns"], k)))
    edit(turn)
    flows = tmp_path / "flows.jsonl"
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    where = f"{line}: dialog {record['dialog_id']} round {k // 2 + 1} {act_of(record['turns'], k)}"
    return flows, where, record, turn


def flows_with_bad_slot(tmp_path, slot, bad=None, speaker=None, act=None):
    """`flows_with_bad_turn`'s file and place, where the turn holds `bad` in `slot`, or by
    default a list of the slot's own value, or lacks the slot if `bad` is MISSING."""
    def edit(turn):
        if bad is MISSING:
            del turn["slots"][slot]
        else:
            turn["slots"][slot] = [turn["slots"][slot]] if bad is None else bad
    return flows_with_bad_turn(tmp_path, edit, slot, speaker, act)[:2]


@pytest.mark.parametrize("slot, bad", [
    ("attribute", None), ("concept_id", None), ("value", None), ("region_label", None),
    ("object_id", None), ("values", [1, 2, 3]), ("values", []),
])
def test_realize_rejects_wrong_typed_slot(tmp_path, capsys, slot, bad):
    """A slot rendered as text must be a string, and `values` a non-empty list of them;
    the one error line names the flow file, dialog, round and act."""
    flows, where = flows_with_bad_slot(tmp_path, slot, bad)
    capsys.readouterr()
    rc = main(["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
               "--flows", str(flows), "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flows}:{where}: ") and slot in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_realize_slot_error_is_located_at_any_jobs(tmp_path, capsys, jobs):
    flows, where = flows_with_bad_slot(tmp_path, "attribute")
    capsys.readouterr()
    rc = main(["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
               "--jobs", str(jobs), "--flows", str(flows), "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: {flows}:{where}: slot 'attribute' must be a string, got ['")


def stage_argv(stage, flows, out):
    """`realize`, `split` (into the directory `out`), `stats`, or `gold --task <task>` for a stage
    named "gold <task>", on a flow file."""
    if stage == "split":
        return ["split", "--flows", str(flows), "--out-dir", str(out)]
    if stage == "stats":
        return ["stats", "--flows", str(flows), "--out", str(out)]
    if stage == "realize":
        return ["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
                "--flows", str(flows), "--out", str(out)]
    return ["gold", *base_flags(), "--task", stage.split()[1], "--flows", str(flows),
            "--out", str(out)]


@pytest.mark.parametrize("stage, act, slot", [
    pytest.param("gold spd", "RESPOND_PROMPT", "accept", id="spd-accept"),
    pytest.param("gold rru", "REFER_REGION", "region_label", id="rru-region_label"),
    pytest.param("realize", "ASK_PREFERENCE", "attribute", id="realize-attribute"),
])
def test_missing_slot_exits_one(tmp_path, capsys, stage, act, slot):
    """A turn that lacks a slot its act needs ends in one located error line, no traceback."""
    flows, where = flows_with_bad_slot(tmp_path, slot, MISSING, act=act)
    capsys.readouterr()
    assert main(stage_argv(stage, flows, tmp_path / "out.jsonl")) == 1
    assert capsys.readouterr().err == f"error: {flows}:{where}: missing slot '{slot}'\n"
    assert not (tmp_path / "out.jsonl").exists()


STAGES = ("realize", "gold spd", "gold rru", "gold act", "gold recommend", "gold response")


@pytest.fixture(scope="module")
def realized_text(tmp_path_factory):
    """40 simulated dialogs at seed 7, realized: an input that every stage reads."""
    tmp = tmp_path_factory.mktemp("realized")
    assert main(stage_argv("realize", simulate(tmp, "flows.jsonl", n=40), tmp / "realized.jsonl")) == 0
    return (tmp / "realized.jsonl").read_text()


TASKS = ("spd", "rru", "act", "recommend", "response")


@pytest.fixture(scope="module")
def compact_corpus(tmp_path_factory):
    """20 simulated dialogs at seed 7, their realization and all five gold files, as written."""
    tmp = tmp_path_factory.mktemp("compact")
    files = {"flows": simulate(tmp, "flows.jsonl", n=20), "realized": tmp / "realized.jsonl"}
    assert main(stage_argv("realize", files["flows"], files["realized"])) == 0
    for task in TASKS:
        files[task] = tmp / f"gold_{task}.jsonl"
        source = files["realized" if task == "response" else "flows"]
        assert main(stage_argv(f"gold {task}", source, files[task])) == 0
    return files


def copied(src: Path, dst: Path, keep=lambda i: True, spaced=False) -> Path:
    """The lines of `src` whose index `keep` accepts; if `spaced`, in the form `json.dumps`
    writes by default, with the second line also padded by JSON whitespace."""
    lines = [line for i, line in enumerate(src.read_text(encoding="utf-8").splitlines()) if keep(i)]
    if spaced:
        records = [json.loads(line) for line in lines]
        lines = [json.dumps(record, ensure_ascii=False) for record in records]
        lines[1] = " \t" + json.dumps(records[1], ensure_ascii=False, separators=(" ,\t", "  :  ")) + "\t "
    dst.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return dst


@pytest.mark.parametrize("stage", ["realize", *(f"gold {t}" for t in TASKS), "split", "stats",
                                   *(f"eval {t}" for t in TASKS)])
def test_spaced_records_read_as_compact_ones(tmp_path, compact_corpus, stage):
    """Every reader takes any JSON whitespace: from files in the spaced form of earlier writers,
    one line padded further, each stage writes the bytes it writes from the compact files. The
    `eval` predictions drop every third row, so the scores are not all 1."""
    outputs = []
    name, task = stage.split()[0], stage.split()[-1]
    source = "realized" if stage in ("gold response", "split") else "flows"
    for form in ("compact", "spaced"):
        out = tmp_path / form / "out"
        out.mkdir(parents=True)
        if name == "eval":
            gold = copied(compact_corpus[task], tmp_path / form / "gold.jsonl", spaced=form == "spaced")
            pred = copied(compact_corpus[task], tmp_path / form / "pred.jsonl", lambda i: i % 3 != 1,
                          spaced=form == "spaced")
            argv = ["eval", "--task", task, "--pred", str(pred), "--gold", str(gold),
                    "--out", str(out / "report.json")]
        else:
            flows = copied(compact_corpus[source], tmp_path / form / "flows.jsonl", spaced=form == "spaced")
            if name == "split":
                argv = ["split", "--flows", str(flows), "--out-dir", str(out)]
            elif name == "stats":
                argv = ["stats", "--flows", str(flows), "--out", str(out / "stats.json")]
            else:
                argv = stage_argv(stage, flows, out / "out.jsonl")
        assert main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if "manifest" not in p.name})
    assert outputs[0] and outputs[0] == outputs[1]


# Per rule of `engine.check_turn`, and the act rules of `engine.flow_from_dict` (a salesperson turn
# stores a salesperson act, a customer turn none): the act of the first turn that the edit breaks,
# the field set ("act" is the stored act, any other a slot), its new value (or MISSING), and the
# problem reported, in which {scene} and {attribute} name the turn's scene and `attribute` slot (a
# customer turn's read from the turn it answers) and {k} its place (from 1). A "bad dialog record"
# is located by line.
TURN_RULES = {
    "salesperson-act-unknown": ("RECOMMEND_ITEM", "act", "SING_A_SONG", "bad dialog record "
                                "(turn {k}: 'SING_A_SONG' is not an act of speaker 'salesperson')"),
    "customer-act-of-salesperson": ("ANSWER_PREFERENCE", "act", "ASK_PREFERENCE", "bad dialog record "
                                    "(turn {k}: a customer turn stores no act, got 'ASK_PREFERENCE')"),
    "slot-missing": ("ANSWER_PREFERENCE", "concept_id", MISSING, "missing slot 'concept_id'"),
    "attribute-not-a-string": ("ASK_PREFERENCE", "attribute", ["color"],
                               "slot 'attribute' must be a string, got ['color']"),
    "attribute-not-in-scene": ("ASK_PREFERENCE", "attribute", "nope", "scene {scene}: no attribute 'nope'"),
    "concept-not-a-string": ("NEGATE_PREFERENCE", "concept_id", ["warm_color"],
                             "slot 'concept_id' must be a string, got ['warm_color']"),
    "concept-unknown": ("PROMPT_PREFERENCE", "concept_id", "nope", "unknown concept 'nope'"),
    "concept-of-another-attribute": ("ANSWER_PREFERENCE", "concept_id", "premium_price",
                                     "concept 'premium_price' is not a {attribute} concept"),
    "value-not-a-string": ("GUESS_ATTRIBUTE_VALUE", "value", 5, "slot 'value' must be a string, got 5"),
    "values-not-strings": ("DISPLAY_CANDIDATE_VALUES", "values", [1, 2], "slot 'values' must be a list of strings"),
    "values-empty": ("DISPLAY_CANDIDATE_VALUES", "values", [], "slot 'values' must not be empty"),
    "region-not-a-string": ("REFER_REGION", "region_label", ["nope"],
                            "slot 'region_label' must be a string, got ['nope']"),
    "region-unknown": ("REFER_REGION", "region_label", "nope", "scene {scene}: no region labeled 'nope'"),
    "object-unknown": ("RECOMMEND_ITEM", "object_id", 999, "unknown object_id 999: not in scene '{scene}'"),
    "object-not-an-integer": ("RECOMMEND_ITEM", "object_id", "12", "unknown object_id '12': not in scene '{scene}'"),
    "accept-not-a-bool": ("RESPOND_RECOMMENDATION", "accept", "no", "slot 'accept' must be true or false, got 'no'"),
}


@pytest.mark.parametrize("rule", TURN_RULES)
@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_reports_a_broken_turn_alike(tmp_path, capsys, realized_text, stage, rule):
    """`realize` and every `gold` task check each turn by the one act-slot table before they read
    it, and every reader checks the act a turn stores against its speaker, so a turn that breaks a rule
    gives each of them the same located line and no output."""
    act, field, value, problem = TURN_RULES[rule]

    def edit(turn):
        if field == "act":
            turn["act"] = value
        elif value is MISSING:
            del turn["slots"][field]
        else:
            turn["slots"][field] = value

    flows, where, record, turn = flows_with_bad_turn(tmp_path, edit, act=act, text=realized_text)
    k = next(k for k, t in enumerate(record["turns"], 1) if t is turn)
    slots = answer_slots(act_of(record["turns"], k - 1), turn["slots"], record["turns"][k - 2]["slots"])
    problem = problem.format(scene=record["scene_id"], attribute=slots.get("attribute"), k=k)
    if problem.startswith("bad dialog record"):
        where = where.split(":")[0]
    capsys.readouterr()
    assert main(stage_argv(stage, flows, tmp_path / "out.jsonl")) == 1
    assert capsys.readouterr().err == f"error: {flows}:{where}: {problem}\n"
    assert not (tmp_path / "out.jsonl").exists()


# Turns that realize with exit 0 at some --seed (or fold into SPD gold, or write an ACT gold row)
# unless every turn is checked against the act-slot table: the acts and slots of round 1, the act
# of the turn at fault, and the problem. An answer stores only its slots: it reads its act and
# `attribute` from the turn it answers.
HAND_EDITED_FAULTS = {
    "answer-without-attribute": ([("ASK_PREFERENCE", {}), ("ANSWER_PREFERENCE", {"concept_id": "warm_color"})],
                                 "ASK_PREFERENCE", "missing slot 'attribute'"),
    "concept-of-another-attribute": ([("ASK_PREFERENCE", {"attribute": "color"}),
                                      ("ANSWER_PREFERENCE", {"concept_id": "premium_price"})],
                                     "ANSWER_PREFERENCE", "concept 'premium_price' is not a color concept"),
    "accept-no": ([("PROMPT_PREFERENCE", {"attribute": "color", "concept_id": "warm_color"}),
                   ("RESPOND_PROMPT", {"accept": "no"})],
                  "RESPOND_PROMPT", "slot 'accept' must be true or false, got 'no'"),
    "salesperson-sings": ([("SING_A_SONG", {})], "SING_A_SONG",
                          "'SING_A_SONG' is not an act of speaker 'salesperson'"),
}


def hand_edited_flows(tmp_path, fault):
    acts, act, problem = HAND_EDITED_FAULTS[fault]
    flows = tmp_path / "flows.jsonl"
    turns = [{**ASK_COLOR, "act": a, "slots": slots} if k % 2 == 0 else {**ANSWER_WARM, "slots": slots}
             for k, (a, slots) in enumerate(acts)]
    flows.write_text(turns_line(turns) + "\n")
    if act == "SING_A_SONG":  # every reader rejects an act of no speaker, before the act-slot table
        return flows, f"error: {flows}:1: bad dialog record (turn 1: {problem})\n"
    return flows, f"error: {flows}:1: dialog d00000 round 1 {act}: {problem}\n"


@pytest.mark.parametrize("fault", HAND_EDITED_FAULTS)
@pytest.mark.parametrize("stage, jobs", [("realize", 1), ("realize", 2), *((s, 1) for s in STAGES[1:])])
def test_hand_edited_fault_exits_one(tmp_path, capsys, stage, jobs, fault):
    """Each fault gives one located line and no output in `realize` at either `--jobs` and in
    every `gold` task."""
    flows, line = hand_edited_flows(tmp_path, fault)
    argv = stage_argv(stage, flows, tmp_path / "out.jsonl")
    assert main([*argv, "--jobs", str(jobs)] if stage == "realize" else argv) == 1
    assert capsys.readouterr().err == line
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


@pytest.mark.parametrize("seed", range(7))
def test_realize_rejects_a_missing_slot_at_every_seed(tmp_path, capsys, seed):
    """Whether or not the template the seed picks uses `{attr}`, a turn without `attribute` fails."""
    flows, line = hand_edited_flows(tmp_path, "answer-without-attribute")
    assert main([*stage_argv("realize", flows, tmp_path / "out.jsonl"), "--seed", str(seed)]) == 1
    assert capsys.readouterr().err == line
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("task, act, slot, problem", [
    pytest.param("spd", "ANSWER_PREFERENCE", "concept_id", "unknown concept 'nope'",
                 id="spd-concept_id"),
    pytest.param("rru", "REFER_REGION", "region_label", "no region labeled 'nope'",
                 id="rru-region_label"),
])
def test_gold_unknown_name_is_located(tmp_path, capsys, task, act, slot, problem):
    """An unknown concept or region label names the flow file, dialog, round and act."""
    flows, where = flows_with_bad_slot(tmp_path, slot, "nope", act=act)
    capsys.readouterr()
    assert main(stage_argv(f"gold {task}", flows, tmp_path / "gold.jsonl")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flows}:{where}: ") and err.endswith(f"{problem}\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_object_id_exits_one(tmp_path, capsys, jobs):
    flows = simulate(tmp_path, "flows.jsonl", n=2)
    records = [json.loads(line) for line in flows.read_text().splitlines()]
    k, recommend = next((k, t) for k, t in enumerate(records[1]["turns"]) if t.get("act") == "RECOMMEND_ITEM")
    recommend["slots"]["object_id"] = 999
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    rc = main(["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
               "--jobs", str(jobs), "--flows", str(flows), "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flows}:2: dialog {records[1]['dialog_id']} "
                          f"round {k // 2 + 1} RECOMMEND_ITEM: unknown object_id 999")
    assert err.count("\n") == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_realize_reports_the_first_fault_in_file_order(tmp_path, capsys, jobs):
    """A rule error on line 2 is reported before a line 5 that does not parse, at any `--jobs`."""
    flows = simulate(tmp_path, "flows.jsonl", n=5)
    lines = flows.read_text().splitlines()
    record = json.loads(lines[1])
    record["scene_id"] = "nope"
    lines[1] = json.dumps(record)
    lines[4] = "{not json"
    flows.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert main([*stage_argv("realize", flows, tmp_path / "out.jsonl"), "--jobs", str(jobs)]) == 1
    assert capsys.readouterr().err == (f"error: {flows}:2: dialog {record['dialog_id']}: "
                                       "unknown scene_id 'nope': not in the scene file\n")
    assert not (tmp_path / "out.jsonl").exists()


def test_stats_without_salesperson_turn(tmp_path, capsys):
    """A flow opens with round 1's salesperson turn: a lone customer turn, which stores no act, is a
    located error, not a dialog without salesperson acts."""
    flows = tmp_path / "flows.jsonl"
    flows.write_text(turns_line([ANSWER_WARM]) + "\n")
    out = tmp_path / "stats.json"
    assert main(["stats", "--flows", str(flows), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:1: bad dialog record (turn 1: a salesperson turn stores its act)\n")
    assert not out.exists()


def _swap(i, j):
    def edit(turns):
        turns[i], turns[j] = turns[j], turns[i]
    return edit


# Per fault: how it edits the turns of the second dialog at seed 7, whose rounds open with
# ASK_PREFERENCE, RECOMMEND_ITEM, ASK_PREFERENCE and RECOMMEND_ITEM, and what the error line
# reports after the file's path: a customer turn on a salesperson turn's place stores no act, and
# an answer on another answer's place lacks a slot of the act it now takes. Only `realize` and
# `gold` check slots (`engine.check_flow`), so `split` and `stats` take swapped answers.
TURN_ORDER_FAULTS = {
    "customer-first": (lambda turns: turns.pop(0),
                       "2: bad dialog record (turn 1: a salesperson turn stores its act)"),
    "speakers-swapped": (_swap(2, 3),
                         "2: bad dialog record (turn 3: a salesperson turn stores its act)"),
    "answers-swapped": (_swap(1, 3),
                        "2: dialog d00001 round 1 ANSWER_PREFERENCE: missing slot 'concept_id'"),
}


@pytest.mark.parametrize("stage, fault", [(stage, fault) for fault in TURN_ORDER_FAULTS
                                          for stage in (*STAGES, "split", "stats")
                                          if fault != "answers-swapped" or stage in STAGES])
def test_every_reader_rejects_turns_out_of_order(tmp_path, capsys, realized_text, stage, fault):
    """Turn k is round ceil(k/2)'s salesperson turn for odd k and its customer turn for even k,
    whose act is the answer to the salesperson turn's (`ACT_PAIRS`). Every flow reader rejects a
    dialog whose speakers break that with one located line and writes nothing, so `gold` never
    merges two turns' rows under one key; answers swapped between rounds lack the slots of the act
    they now take, which `realize` and `gold` report the same way."""
    edit, problem = TURN_ORDER_FAULTS[fault]
    records = [json.loads(line) for line in realized_text.splitlines()]
    edit(records[1]["turns"])
    flows = tmp_path / "flows.jsonl"
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = stage_argv(stage, flows, tmp_path / "out")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flows}:{problem}\n"
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


# The same round as older formats wrote it: its answer stores its act, and older still, echoes
# the asked `attribute` too.
ACTED_ROUND = [ASK_COLOR, {"act": "ANSWER_PREFERENCE", **ANSWER_WARM}]
ECHOED_ROUND = [ASK_COLOR, {**ACTED_ROUND[1], "slots": {"attribute": "color", **ANSWER_WARM["slots"]}}]
STORED_ACT_PROBLEM = "turn 2: a customer turn stores no act, got 'ANSWER_PREFERENCE'"
COUNTED_ROUND = [{**ECHOED_ROUND[0], "candidate_count": 2}, {**ECHOED_ROUND[1], "candidate_count": 1}]
POSITIONS = [{"round": 1, "speaker": "salesperson"}, {"round": 1, "speaker": "customer"}]


def older_line(turns: list[dict]) -> str:
    """A flow line of `turns` without `candidate_counts`, as written before the list."""
    record = json.loads(turns_line(turns))
    del record["candidate_counts"]
    return json.dumps(record)


# Per older flow format, newest first: a line of that format, and the problem every reader reports.
OLDER_FORMATS = {
    "acted-answers": (turns_line(ACTED_ROUND), STORED_ACT_PROBLEM),
    "echoed-slots": (turns_line(ECHOED_ROUND), STORED_ACT_PROBLEM),
    "turn-counts": (older_line(COUNTED_ROUND), "'candidate_counts'"),
    "stored-positions": (older_line([{**p, **t} for p, t in zip(POSITIONS, COUNTED_ROUND)]),
                         "'candidate_counts'"),
    "item-lists": (older_line([{**p, **t, "candidate_items": items}
                               for p, t, items in zip(POSITIONS, ECHOED_ROUND, ([1, 2], [1]))]),
                   "'candidate_counts'"),
}


@pytest.mark.parametrize("form", OLDER_FORMATS)
@pytest.mark.parametrize("stage", [*STAGES, "split", "stats"])
def test_every_reader_rejects_an_older_flow_format(tmp_path, capsys, stage, form):
    """Readers take one flow format. A line whose customer turn stores its act (and, older still,
    echoes a slot of the turn it answers), or one without `candidate_counts`, whose turns carry
    their count (and, older still, their round and speaker, or their candidate items), is one
    located line in every reader, which writes nothing."""
    line, problem = OLDER_FORMATS[form]
    flows = tmp_path / "flows.jsonl"
    flows.write_text(line + "\n")
    assert main(stage_argv(stage, flows, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {flows}:1: bad dialog record ({problem})\n"
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


# Per turn that is not a JSON object, as the whole `turns` list: the repr every reader names.
NON_OBJECT_TURNS = {"list": (["act"], "['act']"), "number": (5, "5"), "null": (None, "None")}


@pytest.mark.parametrize("turn", NON_OBJECT_TURNS)
@pytest.mark.parametrize("stage", [*STAGES, "split", "stats"])
def test_every_reader_rejects_a_turn_that_is_not_an_object(tmp_path, capsys, stage, turn):
    """A turn is a JSON object: every flow reader rejects a list, a number or a null in its place
    with one located line naming the turn, and writes nothing."""
    value, shown = NON_OBJECT_TURNS[turn]
    flows = tmp_path / "flows.jsonl"
    flows.write_text(turns_line([value]) + "\n")
    assert main(stage_argv(stage, flows, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:1: bad dialog record (turn 1 must be an object, got {shown})\n")
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


@pytest.mark.parametrize("turns", [5, "ab", {"a": 1}, None], ids=["number", "string", "object", "null"])
@pytest.mark.parametrize("stage", [*STAGES, "split", "stats"])
def test_every_reader_rejects_turns_that_are_not_a_list(tmp_path, capsys, stage, turns):
    """`turns` is a JSON list: every flow reader rejects anything else with one located line naming
    it, never a turn the file does not have, and writes nothing."""
    flows = tmp_path / "flows.jsonl"
    flows.write_text(turns_line([], {"turns": turns}) + "\n")
    assert main(stage_argv(stage, flows, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:1: bad dialog record (turns must be a list, got {turns!r})\n")
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


@pytest.mark.parametrize("stage", ["realize", "gold spd"])
def test_realize_and_spd_gold_join_each_customer_turn_once(tmp_path, monkeypatch, realized_text, stage):
    """`engine.check_flow` joins each customer turn with the turn it answers while it checks it, and
    `realize` and SPD gold read the list it returns, so `answer_slots` runs once per customer turn."""
    from shopdialog import engine

    calls = []
    real = engine.answer_slots

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(engine, "answer_slots", counting)
    flows = tmp_path / "flows.jsonl"
    flows.write_text(realized_text)
    assert main(stage_argv(stage, flows, tmp_path / "out.jsonl")) == 0
    assert len(calls) == sum(len(json.loads(line)["turns"]) // 2 for line in realized_text.splitlines())


# Per customer act that echoes: the echoed slot a hand-edited turn stores, under another name that
# fits the scene and the ontology.
ECHO_FAULTS = {"JUDGE_REGION": "region_label", "RESPOND_PROMPT": "concept_id",
               "RESPOND_ATTRIBUTE_VALUE": "value", "ANSWER_PREFERENCE": "attribute",
               "CHOOSE_ATTRIBUTE_VALUE": "attribute"}


@pytest.mark.parametrize("act", ECHO_FAULTS)
@pytest.mark.parametrize("stage", [*STAGES, "split", "stats"])
def test_every_reader_rejects_a_mismatched_echo(tmp_path, capsys, realized_text, scenes_by_id, ontology,
                                                stage, act):
    """A customer turn reads the slots `ECHOED_SLOTS` lists from the salesperson turn it answers and
    may not store them. Every flow reader, `split` and `stats` included, rejects a turn that stores
    one naming another region, concept, value or attribute with one located line and writes
    nothing, so no answer can name what was not asked."""
    slot = ECHO_FAULTS[act]
    records = [json.loads(line) for line in realized_text.splitlines()]
    i, k = next((i, k) for i, r in enumerate(records) for k in range(len(r["turns"]))
                if act_of(r["turns"], k) == act)
    said = answer_slots(act, {}, records[i]["turns"][k - 1]["slots"])
    scene = scenes_by_id[records[i]["scene_id"]]
    if slot == "region_label":
        names = list(scene.region_items)
    elif slot == "attribute":
        names = list(scene.value_universe)
    elif slot == "value":
        names = sorted(scene.value_universe[said["attribute"]])
    else:
        names = [c.concept_id for c in ontology.concepts_of(said["attribute"])]
    records[i]["turns"][k]["slots"][slot] = next(name for name in names if name != said[slot])
    flows = tmp_path / "flows.jsonl"
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(stage_argv(stage, flows, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (f"error: {flows}:{i + 1}: bad dialog record (turn {k + 1}: "
                                       f"{act!r} stores slot {slot!r}, which it reads from turn {k})\n")
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


ROUND = [ASK_COLOR, ANSWER_WARM]
# Per fault: the `candidate_counts` of a realized flow line of `ROUND`, which breaks one rule, and
# the problem every reader reports.
COUNT_RULE_FAULTS = {
    "count-below-one": ([0, 0], "candidate_counts[0] must be at least 1, got 0"),
    "list-entry-below-one": ([2, 0], "candidate_counts[1] must be at least 1, got 0"),
    "list-entry-grows": ([2, 3], "candidate_counts[1] must be at most the 2 before it, got 3"),
    "list-short": ([2], "candidate_counts must hold 2 counts, got 1"),
    "list-long": ([2, 1, 1], "candidate_counts must hold 2 counts, got 3"),
    "list-not-a-list": (2, "candidate_counts must be a list of integers, got 2"),
    "list-bool-entry": ([2, True], "candidate_counts must be a list of integers, got [2, True]"),
}


@pytest.mark.parametrize("fault", COUNT_RULE_FAULTS)
@pytest.mark.parametrize("stage", [*STAGES, "split", "stats"])
def test_every_reader_rejects_inconsistent_candidate_counts(tmp_path, capsys, stage, fault):
    """`candidate_counts` is a list of integers, one per customer turn plus one, each at least 1
    and none above the one before it. Every flow reader rejects a flow that breaks that with one
    located line and writes nothing."""
    counts, problem = COUNT_RULE_FAULTS[fault]
    flows = tmp_path / "flows.jsonl"
    flows.write_text(turns_line(ROUND, {"candidate_counts": counts}) + "\n")
    assert main(stage_argv(stage, flows, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {flows}:1: bad dialog record ({problem})\n"
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


@pytest.mark.parametrize("stage", [*STAGES, "split", "stats"])
def test_every_reader_rejects_an_act_of_the_other_speaker(tmp_path, capsys, realized_text, stage):
    """With a dialog's last salesperson turn deleted, its reply, which stores no act, sits on a
    salesperson turn's position: every flow reader, `split` and `stats` included, rejects it with
    one located line."""
    records = [json.loads(line) for line in realized_text.splitlines()]
    turns = records[1]["turns"]
    del turns[-2]
    flows = tmp_path / "flows.jsonl"
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(stage_argv(stage, flows, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:2: bad dialog record (turn {len(turns)}: a salesperson turn stores its act)\n")
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]


@pytest.mark.parametrize("stage", STAGES)
def test_first_candidate_count_must_be_the_scene_item_count(tmp_path, capsys, realized_text, stage):
    """`realize` and every `gold` task reject a flow whose `candidate_counts` does not open with
    its scene's item count, naming the dialog; `split` and `stats`, which load no catalog, do not."""
    records = [json.loads(line) for line in realized_text.splitlines()]
    counts = records[1]["candidate_counts"]
    counts[0] += 1
    flows = tmp_path / "flows.jsonl"
    flows.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(stage_argv(stage, flows, tmp_path / "out.jsonl")) == 1
    assert capsys.readouterr().err == (
        f"error: {flows}:2: dialog {records[1]['dialog_id']}: candidate_counts[0] must be scene "
        f"{records[1]['scene_id']}'s {counts[0] - 1} items, got {counts[0]}\n")
    assert sorted(os.listdir(tmp_path)) == ["flows.jsonl"]
    for stage in ("split", "stats"):
        assert main(stage_argv(stage, flows, tmp_path / stage)) == 0


DROP = object()


def edited_config(tmp_path, config, keys, value):
    """A copy of a fixture config file with the value at `keys` replaced (or dropped); with no
    keys, `value` is the whole file."""
    raw = json.loads((DATA / f"{config}.json").read_text())
    parent = raw
    for key in keys[:-1]:
        parent = parent[key]
    if not keys:
        raw = value
    elif value is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    bad = tmp_path / f"{config}.json"
    bad.write_text(json.dumps(raw))
    return bad


@pytest.mark.parametrize("config, keys, value", [
    ("policy", ("rounds",), DROP),
    ("policy", ("rounds", 0), list(SALESPERSON_ACTS)),
    ("policy", ("rounds", 0, "ASK_PREFERENCE"), "high"),
    ("policy", ("max_rounds",), "many"),
    ("policy", ("max_rounds",), 2.5),
    ("policy", ("display_min",), True),
    ("policy", ("recommend_max",), -3),
    ("policy", ("recommend_max",), 0),
    ("policy", ("rounds", 0, "ASK_PREFERENCE"), True),
    ("policy", ("stationary", "REFER_REGION"), float("nan")),
    ("ontology", (0, "attribute"), DROP),
    ("ontology", (0, "value_space"), DROP),
    ("ontology", (0, "concepts"), DROP),
    ("ontology", (0, "concepts", 0, "concept_id"), DROP),
    ("ontology", (0, "concepts", 0, "surface_forms"), DROP),
    ("ontology", (0, "concepts", 0, "values"), "dress"),
    ("templates", ("ASK_PREFERENCE",), "great"),
    ("templates", ("ASK_PREFERENCE", 0), "Which {attr do you like?"),
    ("templates", ("ASK_PREFERENCE", 0), "What {attr:d} do you like?"),
    ("templates", ("ASK_PREFERENCE", 0), "What {attr!r} do you like?"),
    ("scenes", (0, "items", 0, "bbox", 0), "a"),
    ("scenes", (0, "regions"), 5),
    ("scenes", (0, "items", 0), 5),
    ("metadata", ("p_fash_000", "flavor"), "sweet"),
    ("scenes", (0, "scene_id"), ["f01"]),
    ("scenes", (0, "items", 0, "prototype_id"), ["p_fash_020"]),
    ("scenes", (0, "regions", 0, "label"), ["back left rack"]),
    ("ontology", (0, "attribute"), "nope"),
    ("scenes", (0, "items", 1, "object_id"), True),
], ids=["policy-without-rounds", "policy-row-not-an-object", "policy-non-numeric-probability",
        "policy-non-numeric-field", "policy-fractional-max-rounds", "policy-bool-display-min",
        "policy-negative-recommend-max", "policy-zero-recommend-max", "policy-bool-probability",
        "policy-nan-probability", "block-without-attribute", "block-without-value-space",
        "block-without-concepts", "concept-without-id", "concept-without-surface-forms",
        "concept-values-not-a-list", "template-bare-string", "template-stray-brace",
        "template-format-spec", "template-conversion",
        "scene-non-numeric-bbox", "scene-regions-not-a-list", "scene-item-not-an-object",
        "metadata-unknown-attribute", "scene-list-valued-scene-id", "scene-list-valued-prototype-id",
        "scene-list-valued-region-label", "block-unknown-attribute", "scene-bool-object-id"])
def test_malformed_config_exits_one(tmp_path, capsys, config, keys, value):
    """A config file whose contents do not fit its schema exits 1 with one line naming it."""
    bad = edited_config(tmp_path, config, keys, value)
    names = ("scenes", "metadata", "ontology", "policy", "templates")
    paths = {name: DATA / f"{name}.json" for name in names}
    paths[config] = bad
    assert main(["validate",
                 *(arg for name, path in paths.items() for arg in (f"--{name}", str(path)))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert err.count("\n") == 1
    assert "unhashable" not in err


# Per rule of a config file: the file, the keys and value `edited_config` edits it with, and the
# line after "error: <path>: " that `validate` reports for it.
CONFIG_RULES = {
    "ontology-not-a-list": ("ontology", (), {}, "ontology file must hold a list of attribute blocks"),
    "block-a-string": ("ontology", (0,), "abc", "ontology block must be an object"),
    "block-a-list": ("ontology", (0,), [5], "ontology block must be an object"),
    "block-unknown-field": ("ontology", (0, "weight"), 1, "ontology block: unknown fields ['weight']"),
    "block-without-attribute": ("ontology", (0, "attribute"), DROP,
                                "ontology block: missing fields ['attribute']"),
    "duplicate-block": ("ontology", (1, "attribute"), "type",
                        "duplicate ontology block for attribute 'type'"),
    "duplicate-value": ("ontology", (0, "value_space", 1), "jacket", "type: value_space has duplicates"),
    "value-without-number": ("ontology", (4, "value_space", 0), "cheap",
                             "price: value 'cheap' has no numeric payload"),
    "concepts-a-string": ("ontology", (0, "concepts"), "ab",
                          "ontology block: concepts must be a list, got 'ab'"),
    "concepts-a-number": ("ontology", (0, "concepts"), 5, "ontology block: concepts must be a list, got 5"),
    "concept-a-string": ("ontology", (0, "concepts", 0), "abc", "type concept must be an object"),
    "concept-a-list": ("ontology", (0, "concepts", 0), [5], "type concept must be an object"),
    "concept-unknown-field": ("ontology", (0, "concepts", 0, "weight"), 1,
                              "type concept: unknown fields ['weight']"),
    "concept-without-id": ("ontology", (0, "concepts", 0, "concept_id"), DROP,
                           "type concept: missing fields ['concept_id']"),
    "concept-without-surface-forms": ("ontology", (0, "concepts", 0, "surface_forms"), DROP,
                                      "type concept: missing fields ['surface_forms']"),
    "concept-numeric-id": ("ontology", (0, "concepts", 0, "concept_id"), 5,
                           "type concept: concept_id must be a string, got 5"),
    "concept-values-and-range": ("ontology", (0, "concepts", 0, "min"), 0,
                                 "concept 'formal_type': give either values or min/max"),
    "categorical-range": ("ontology", (0, "concepts", 0, "values"), DROP,
                          "type concept: missing fields ['values']"),
    "concept-no-values": ("ontology", (0, "concepts", 0, "values"), [],
                          "concept 'formal_type': empty value set"),
    "concept-values-outside": ("ontology", (0, "concepts", 0, "values"), ["dress", "banana"],
                               "concept 'formal_type': values ['banana'] outside the type value space"),
    "concept-no-surface-forms": ("ontology", (0, "concepts", 0, "surface_forms"), [],
                                 "concept 'formal_type': needs at least one surface form"),
    "duplicate-concept-id": ("ontology", (0, "concepts", 1, "concept_id"), "formal_type",
                             "duplicate concept ids ['formal_type']"),
    "policy-a-list": ("policy", (), [1, 2], "policy must be an object"),
    "policy-unknown-field": ("policy", ("weight",), 1, "policy: unknown fields ['weight']"),
    "policy-without-rounds": ("policy", ("rounds",), DROP, "policy: missing fields ['rounds']"),
    "rounds-a-number": ("policy", ("rounds",), 5, "policy: rounds must be a list, got 5"),
    "rounds-a-string": ("policy", ("rounds",), "ab", "policy: rounds must be a list, got 'ab'"),
    "rounds-empty": ("policy", ("rounds",), [], "policy: needs at least one round row"),
    "row-a-string": ("policy", ("rounds", 0), "abc", "policy round 1 must be an object"),
    "stationary-a-list": ("policy", ("stationary",), [5],
                          "policy: stationary must be an object, got [5]"),
    "row-unknown-act": ("policy", ("rounds", 0, "WAVE"), 0, "policy round 1: unknown fields ['WAVE']"),
    "row-without-act": ("policy", ("rounds", 1, "REFER_REGION"), DROP,
                        "policy round 2: missing fields ['REFER_REGION']"),
    "display-min-above-max": ("policy", ("display_min",), 6,
                              "policy: display_min must be <= display_max"),
    "templates-a-list": ("templates", (), ["hi"], "templates must be an object"),
    "templates-unknown-key": ("templates", ("WAVE",), ["hi"], "templates: unknown fields ['WAVE']"),
    "templates-without-key": ("templates", ("ASK_PREFERENCE",), DROP,
                              "templates: missing fields ['ASK_PREFERENCE']"),
    "templates-empty-list": ("templates", ("ASK_PREFERENCE",), [],
                             "templates: 'ASK_PREFERENCE' needs at least one template"),
    "template-unknown-placeholder": ("templates", ("ASK_PREFERENCE", 0), "{banana}",
                                     "templates: 'ASK_PREFERENCE' has unfillable placeholders ['banana']"),
    "scene-file-a-number": ("scenes", (), 5, "scene file must hold a scene object or a list of them"),
    "scene-a-string": ("scenes", (0,), "abc", "scene must be an object"),
    "scene-item-unknown-field": ("scenes", (0, "items", 0, "color"), "red",
                                 "scene f01 item: unknown fields ['color']"),
    "scene-region-without-bbox": ("scenes", (0, "regions", 0, "bbox"), DROP,
                                  "scene f01 region: missing fields ['bbox']"),
    "scene-short-bbox": ("scenes", (0, "items", 0, "bbox"), [1, 2],
                         "scene f01 item 0: bbox must be [x, y, w, h]"),
    "metadata-a-list": ("metadata", (), [], "metadata file must map prototype ids to attribute maps"),
    "block-list-attribute": ("ontology", (0, "attribute"), ["type"],
                             "ontology block: attribute must be a string, got ['type']"),
    "range-string-min": ("ontology", (4, "concepts", 0, "min"), "abc",
                         "price concept: min must be a number, got 'abc'"),
    "range-null-max": ("ontology", (4, "concepts", 0, "max"), None,
                       "price concept: max must be a number, got None"),
    "range-bool-min": ("ontology", (4, "concepts", 0, "min"), True,
                       "price concept: min must be a number, got True"),
    "range-without-max": ("ontology", (4, "concepts", 0, "max"), DROP,
                          "price concept: missing fields ['max']"),
    "concept-numeric-provenance": ("ontology", (0, "concepts", 0, "provenance"), 5,
                                   "type concept: provenance must be a string, got 5"),
    "scene-bool-object-id": ("scenes", (0, "items", 1, "object_id"), True,
                             "scene f01 item: object_id must be an integer, got True"),
    "scene-string-object-id": ("scenes", (0, "items", 1, "object_id"), "1",
                               "scene f01 item: object_id must be an integer, got '1'"),
    "metadata-numeric-value": ("metadata", ("p_fash_000", "color"), 5,
                               "metadata 'p_fash_000': color must be a string, got 5"),
    "metadata-unknown-attribute": ("metadata", ("p_fash_000", "flavor"), "sweet",
                                   "metadata 'p_fash_000': unknown fields ['flavor']"),
    "policy-bool-threshold": ("policy", ("display_min",), True,
                              "policy: display_min must be an integer, got True"),
    "bbox-strings": ("scenes", (0, "items", 0, "bbox"), ["0", "0", "10", "10"],
                     "scene f01 item 0: bbox values must be finite numbers"),
    "bbox-bool": ("scenes", (0, "items", 0, "bbox"), [True, 0, 10, 10],
                  "scene f01 item 0: bbox values must be finite numbers"),
    "bbox-nan": ("scenes", (0, "items", 0, "bbox"), [0, 0, float("nan"), 10],
                 "scene f01 item 0: bbox values must be finite numbers"),
    "region-infinite-width": ("scenes", (0, "regions", 0, "bbox", 2), float("inf"),
                              "scene f01 region 'back left rack': bbox values must be finite numbers"),
    "bbox-integer-beyond-float": ("scenes", (0, "items", 0, "bbox", 0), 10 ** 400,
                                  "scene f01 item 0: bbox values must be finite numbers"),
}


@pytest.mark.parametrize("rule", CONFIG_RULES)
def test_every_config_rule_names_its_fault(tmp_path, capsys, rule):
    """Each rule of a scene, metadata, ontology, policy or template file exits `validate` with its
    own line, and a block, concept, row or file of the wrong type is reported as such, never read
    as its characters or items."""
    config, keys, value, message = CONFIG_RULES[rule]
    bad = edited_config(tmp_path, config, keys, value)
    paths = {name: str(DATA / f"{name}.json") for name in ("scenes", "metadata", "ontology", "policy",
                                                              "templates")}
    paths[config] = str(bad)
    assert main(["validate", *(arg for name, path in paths.items() for arg in (f"--{name}", path))]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


@pytest.mark.parametrize("field", ["{attr:d}", "{attr!r}"])
def test_realize_rejects_template_with_format_spec_or_conversion(tmp_path, capsys, field):
    """A template field that is not a bare name stops `realize` with one line naming the
    template file, before it writes anything."""
    flows = simulate(tmp_path, "flows.jsonl", n=2)
    capsys.readouterr()
    bad = edited_config(tmp_path, "templates", ("ASK_PREFERENCE", 0), f"What {field} do you like?")
    out = tmp_path / "out.jsonl"
    assert main(["realize", *base_flags(), "--templates", str(bad), "--flows", str(flows),
                 "--out", str(out)]) == 1
    expected = f"error: {bad}: templates: 'ASK_PREFERENCE' has a format spec or conversion: '{field}'\n"
    assert capsys.readouterr() == ("", expected)
    assert not out.exists() and not (tmp_path / "out.jsonl.manifest.json").exists()


def catalog_stage_fails(tmp_path, capsys, stage, config, path, expected):
    """Run `stage` with `path` as its --<config> file: it must stop with `expected` as its one
    line before it writes anything."""
    flows = simulate(tmp_path, "flows.jsonl", n=2)
    capsys.readouterr()
    paths = {name: DATA / f"{name}.json" for name in ("scenes", "metadata", "ontology")}
    paths[config] = path
    out = tmp_path / "out.jsonl"
    extra = {
        "validate": [],
        "simulate": ["--policy", str(DATA / "policy.json"), "--n", "300", "--out", str(out)],
        "realize": ["--templates", str(DATA / "templates.json"), "--flows", str(flows), "--out", str(out)],
        "gold": ["--task", "spd", "--flows", str(flows), "--out", str(out)],
    }[stage]
    flags = [arg for name, p in paths.items() for arg in (f"--{name}", str(p))]
    assert main([stage, *flags, *extra]) == 1
    assert capsys.readouterr() == ("", expected)
    assert not out.exists()


@pytest.mark.parametrize("stage", ["validate", "simulate", "realize", "gold"])
def test_metadata_outside_the_ontology_exits_one_before_writing(tmp_path, capsys, stage):
    """Every stage that takes the catalog flags checks that the ontology covers each metadata
    value, and stops with one line naming the metadata file before it writes anything."""
    bad = edited_config(tmp_path, "metadata", ("p_fash_000", "color"), "chartreuse")
    catalog_stage_fails(tmp_path, capsys, stage, "metadata", bad,
                        f"error: {bad}: p_fash_000: color='chartreuse' not covered by the ontology\n")


@pytest.mark.parametrize("stage", ["validate", "simulate", "realize", "gold"])
def test_empty_scene_file_exits_one_before_writing(tmp_path, capsys, stage):
    """A scene file that holds no scene stops every stage that takes the catalog flags with one
    line naming it; `simulate` would otherwise have no scene to draw from."""
    empty = tmp_path / "scenes.json"
    empty.write_text("[]")
    catalog_stage_fails(tmp_path, capsys, stage, "scenes", empty,
                        f"error: {empty}: scene file needs at least one scene\n")


@pytest.mark.parametrize("case", ["act-pred", "act-gold", "stats-no-dialogs", "response-no-gold-rows",
                                  "response-unrealized"])
def test_input_errors_name_their_file(tmp_path, capsys, case):
    """An ACT payload outside the salesperson repertoire, in either file, a flow file without
    dialogs, a RESPONSE gold file without rows and RESPONSE gold from unrealized flows each
    exit 1 with one line naming the file."""
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    out = tmp_path / "out.json"
    if case == "response-unrealized":
        simulate(tmp_path, bad.name, n=2)
        capsys.readouterr()
        argv = ["gold", *base_flags(), "--task", "response", "--flows", str(bad)]
        expected = f"error: {bad}:1: dialog d00000: RESPONSE gold needs realized flows\n"
    elif case.startswith("act"):
        bad.write_text(write_tiny_gold(good, "act").read_text().replace("REFER_REGION", "FOO"))
        pred, gold = (bad, good) if case == "act-pred" else (good, bad)
        argv = ["eval", "--task", "act", "--pred", str(pred), "--gold", str(gold)]
        expected = f"error: {bad}:3: a ACT payload must be a salesperson act name\n"
    elif case == "stats-no-dialogs":
        bad.write_text("\n")
        argv = ["stats", "--flows", str(bad)]
        expected = f"error: {bad}: no dialogs\n"
    else:
        write_tiny_gold(good, "response")
        bad.write_text(json.dumps({"task": "RESPONSE"}) + "\n")
        argv = ["eval", "--task", "response", "--pred", str(good), "--gold", str(bad)]
        expected = f"error: {bad}: no reference utterances to score against\n"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", expected)
    assert not out.exists()


def flows_with_bad_last_line(tmp_path, tail):
    """A simulated 30-dialog flow file whose last line does not parse (`malformed-line`), holds a
    first turn whose slots are no object (`slots-not-an-object`), or holds a dialog whose first
    ANSWER_PREFERENCE turn lacks the `concept_id` that `realize` and `gold --task spd` need
    (`missing-slot`)."""
    records = [json.loads(line) for line in simulate(tmp_path, "clean.jsonl").read_text().splitlines()]
    answers = {r["dialog_id"]: [t for k, t in enumerate(r["turns"])
                                if act_of(r["turns"], k) == "ANSWER_PREFERENCE"] for r in records}
    last = next(r for r in reversed(records) if answers[r["dialog_id"]])
    records.remove(last)
    if tail == "slots-not-an-object":
        last["turns"][0]["slots"] = ["attribute"]
    elif tail == "missing-slot":
        del answers[last["dialog_id"]][0]["slots"]["concept_id"]
    lines = [json.dumps(r) for r in [*records, last]]
    if tail == "malformed-line":
        lines[-1] = lines[-1][:-1]
    flows = tmp_path / "bad.jsonl"
    flows.write_text("".join(line + "\n" for line in lines))
    return flows


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("stage, tail", [
    *((stage, tail) for stage in ("realize", "split", "gold", "stats")
      for tail in ("malformed-line", "slots-not-an-object")),
    ("realize", "missing-slot"), ("gold", "missing-slot"),
])
def test_a_failed_stage_leaves_its_outputs_as_they_were(tmp_path, capsys, stage, tail, existing):
    """The streamed stages find a bad last line only after writing every dialog before it; they
    exit 1 with one error line naming it and leave no output, no temporary file and no
    `--out-dir` they made, and an output that was there keeps its bytes."""
    flows = flows_with_bad_last_line(tmp_path, tail)
    out_root = tmp_path / "out"
    out_root.mkdir()
    if stage == "split":
        out = out_root / "splits" if existing else out_root / "new" / "splits"
        flag, previous = ["--out-dir", str(out)], out / "train.jsonl"
    else:
        out = previous = out_root / ("result.json" if stage == "stats" else "result.jsonl")
        flag = ["--out", str(out)]
    if existing:
        previous.parent.mkdir(exist_ok=True)
        previous.write_bytes(b"previous\n")
    extra = {"realize": [*base_flags(), "--templates", str(DATA / "templates.json")],
             "gold": [*base_flags(), "--task", "spd"]}.get(stage, [])
    capsys.readouterr()
    assert main([stage, *extra, "--flows", str(flows), *flag]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith(f"error: {flows}:30: ") and err.count("\n") == 1
    left = {str(p.relative_to(out_root)): p.read_bytes() for p in out_root.rglob("*") if p.is_file()}
    assert left == ({str(previous.relative_to(out_root)): b"previous\n"} if existing else {})
    assert [p.name for p in out_root.iterdir()] == ([previous.relative_to(out_root).parts[0]] if existing else [])


@pytest.mark.parametrize("stage", ["stats", "eval"])
def test_format_is_no_option(tmp_path, capsys, stage):
    """Reports are JSON only: `--format` is an unrecognized argument, and nothing is written."""
    gold = write_tiny_gold(tmp_path / "gold.jsonl", "act")
    inputs = (["--flows", str(gold)] if stage == "stats" else
              ["--task", "act", "--pred", str(gold), "--gold", str(gold)])
    with pytest.raises(SystemExit) as exc:
        main([stage, *inputs, "--out", str(tmp_path / "report.csv"), "--format", "csv"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "shopdialog: error: unrecognized arguments: --format csv"
    assert [p.name for p in tmp_path.iterdir()] == ["gold.jsonl"]


# case: the output path under a directory holding `a_dir` and an empty file `a_file`, and the reason.
UNWRITABLE = {
    "missing-parent": ("missing/out.json", "No such file or directory"),
    "directory": ("a_dir", "Is a directory"),
    "parent-is-a-file": ("a_file/splits", "Not a directory"),
    "out-dir-is-a-file": ("a_file", "File exists"),
    "name-too-long": ("x" * 300, "File name too long"),
    "new-parent-name-too-long": ("new/" + "x" * 300, "File name too long"),
    "tmp-is-a-directory": ("out.json", "Is a directory"),  # "<out>.tmp" is made a directory first
}


@pytest.mark.parametrize("stage, case", [
    *((stage, case) for stage in ("simulate", "realize", "gold", "stats", "eval")
      for case in ("missing-parent", "directory", "tmp-is-a-directory")),
    *(("split", case) for case in ("parent-is-a-file", "out-dir-is-a-file", "name-too-long",
                                   "new-parent-name-too-long")),
])
def test_unwritable_output_exits_one(tmp_path, capsys, stage, case):
    """An output that cannot be written exits 1 with one line naming the path given, and the
    stage creates nothing: no output, no temporary file, no manifest and no directory, not even
    the parent that `split` makes before the name it cannot make (`new-parent-name-too-long`)."""
    flows = simulate(tmp_path, "flows.jsonl", n=5)
    gold = write_tiny_gold(tmp_path / "gold.jsonl", "act")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    name, reason = UNWRITABLE[case]
    out = tmp_path / name
    if case == "tmp-is-a-directory":
        Path(f"{out}.tmp").mkdir()  # the stage must leave it as it is
    argv = {
        "simulate": ["simulate", *base_flags(), "--policy", str(DATA / "policy.json"), "--n", "5", "--out"],
        "realize": ["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
                    "--flows", str(flows), "--out"],
        "gold": ["gold", *base_flags(), "--task", "act", "--flows", str(flows), "--out"],
        "stats": ["stats", "--flows", str(flows), "--out"],
        "eval": ["eval", "--task", "act", "--pred", str(gold), "--gold", str(gold), "--out"],
        "split": ["split", "--flows", str(flows), "--out-dir"],
    }[stage]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([*argv, str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_unwritable_manifest_exits_one(tmp_path, capsys):
    """A manifest that cannot be written is reported like any other output."""
    out = tmp_path / "stats.json"
    Path(f"{out}.manifest.json").mkdir()
    assert main(["stats", "--flows", str(simulate(tmp_path, "flows.jsonl", n=5)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}.manifest.json: Is a directory\n"


def test_split_of_a_flow_file_without_dialogs(tmp_path, capsys):
    flows = tmp_path / "empty.jsonl"
    flows.write_text("")
    out_dir = tmp_path / "splits"
    assert main(["split", "--flows", str(flows), "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out == "split sizes: train=0, dev=0, dev_test=0, test_std=0\n"
    assert [(out_dir / f"{name}.jsonl").read_text() for name in SPLIT_NAMES] == [""] * 4


@pytest.mark.parametrize("keys, value, message", [
    (("rounds", 0, "ASK_PREFERENCE"), "high",
     "policy round 1: ASK_PREFERENCE must be a number, got 'high'"),
    (("rounds", 1, "REFER_REGION"), True, "policy round 2: REFER_REGION must be a number, got True"),
    (("stationary", "RECOMMEND_ITEM"), -0.5,
     "policy stationary: RECOMMEND_ITEM must be a probability in [0, 1], got -0.5"),
    (("max_rounds",), 2.5, "policy: max_rounds must be an integer, got 2.5"),
    (("display_min",), True, "policy: display_min must be an integer, got True"),
    (("recommend_max",), -3, "policy: recommend_max must be an integer >= 1, got -3"),
], ids=["string-probability", "bool-probability", "negative-probability", "fractional-max-rounds",
        "bool-display-min", "negative-recommend-max"])
def test_policy_field_errors_name_the_field(tmp_path, capsys, keys, value, message):
    bad = edited_config(tmp_path, "policy", keys, value)
    assert main(["validate", *base_flags(), "--policy", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


# argv -> exit code, stdout and stderr of every help, version and usage-error run, as
# written by the parser that built every subparser in full. argparse wraps at $COLUMNS,
# and its wording can change between Python versions; these are Python 3.11's.
USAGE_PINS = json.loads((Path(__file__).with_name("cli_usage.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", USAGE_PINS, ids=lambda pin: " ".join(pin["argv"]) or "no-arguments")
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, pin):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main(pin["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (pin["code"], pin["stdout"], pin["stderr"])


TURN_KEYS = (["act", "slots"], ["slots"])  # a salesperson turn's, then a customer turn's


def scrambled(src: Path, dst: Path) -> Path:
    """A copy of a flow file with each turn's keys reversed and an unknown key added."""
    records = [json.loads(line) for line in src.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["turns"] = [{"note": "extra", **dict(reversed(t.items()))} for t in record["turns"]]
    dst.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return dst


def test_writers_put_turn_keys_in_canonical_order(tmp_path):
    """Turn keys in another order, or an unknown one, come out of realize and split in the
    wire order, with the unknown key dropped."""
    flows = simulate(tmp_path, "flows.jsonl", n=20)
    realize = ["realize", *base_flags(), "--templates", str(DATA / "templates.json")]
    written = {}
    for tag, edit in (("plain", lambda src, dst: src), ("scrambled", scrambled)):
        raw = edit(flows, tmp_path / f"{tag}_raw.jsonl")
        realized = tmp_path / f"{tag}_realized.jsonl"
        assert main([*realize, "--flows", str(raw), "--out", str(realized)]) == 0
        for name, src in (("raw", raw), ("realized", edit(realized, tmp_path / f"{tag}_r.jsonl"))):
            assert main(["split", "--flows", str(src), "--out-dir", str(tmp_path / tag / name)]) == 0
        written[tag] = {"realized.jsonl": realized.read_bytes(), **{
            f"{p.parent.name}/{p.name}": p.read_bytes() for p in (tmp_path / tag).glob("*/*.jsonl")}}
    assert written["plain"] == written["scrambled"]
    for name, blob in written["plain"].items():
        keys = ["utterance"] if name.startswith("realized") else []
        for line in blob.decode().splitlines():
            turns = json.loads(line)["turns"]
            assert all(list(t) == TURN_KEYS[k % 2] + keys for k, t in enumerate(turns)), name


def test_manifests_are_byte_identical_across_reruns(tmp_path):
    """Every subcommand that writes a manifest (all but `validate`) writes the same bytes when
    the same argv runs again."""
    flows = simulate(tmp_path, "flows.jsonl", n=20)
    realized = tmp_path / "realized.jsonl"
    gold = tmp_path / "gold.jsonl"
    argvs = [
        ["simulate", *base_flags(), "--policy", str(DATA / "policy.json"), "--n", "20",
         "--out", str(flows)],
        ["realize", *base_flags(), "--templates", str(DATA / "templates.json"),
         "--flows", str(flows), "--out", str(realized)],
        ["gold", *base_flags(), "--flows", str(realized), "--task", "act", "--out", str(gold)],
        ["split", "--flows", str(realized), "--out-dir", str(tmp_path / "splits")],
        ["stats", "--flows", str(realized), "--out", str(tmp_path / "stats.json")],
        ["eval", "--task", "act", "--pred", str(gold), "--gold", str(gold),
         "--out", str(tmp_path / "report.json")],
    ]
    for argv in argvs:
        runs = []
        for _ in range(2):
            assert main(argv) == 0, argv
            runs.append({p.name: p.read_bytes() for p in tmp_path.rglob("*.manifest.json")})
        assert runs[0] == runs[1], argv[0]
    assert len(runs[1]) == len(argvs)


def run_module(argv, cwd, unbuffered=False, **streams):
    """`python -m shopdialog argv` in a new process, with stdout and stderr piped unless
    `streams` says otherwise. `subprocess.run` waits in `communicate(timeout=...)`, which returns
    only once every process holding the pipes has closed them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "shopdialog", *argv], cwd=cwd, env=env,
                          timeout=120, **streams)


def test_module_entry_point_end_to_end(tmp_path, monkeypatch, capsys):
    """Every stage run as `python -m shopdialog` exits 0 with the stdout, stderr, artifacts and
    manifests of the same argv run in-process through `cli.main`; bad input exits 1 with one
    `error:` line and a usage error exits 2. Output paths are relative, so manifests compare."""
    pack = [*base_flags(), "--seed", "3"]
    policy, templates = ["--policy", str(DATA / "policy.json")], ["--templates", str(DATA / "templates.json")]
    act = ["--task", "act", "--pred", "gold_act.jsonl", "--gold", "gold_act.jsonl"]
    argvs = [
        ["simulate", *pack, *policy, "--n", "30", "--jobs", "1", "--out", "flows.jsonl"],
        ["simulate", *pack, *policy, "--n", "30", "--jobs", "2", "--out", "flows_j2.jsonl"],
        ["realize", *pack, *templates, "--flows", "flows.jsonl", "--jobs", "2", "--out", "realized.jsonl"],
        ["gold", *base_flags(), "--flows", "realized.jsonl", "--task", "act", "--out", "gold_act.jsonl"],
        ["split", "--flows", "realized.jsonl", "--seed", "3", "--out-dir", "splits"],
        ["stats", "--flows", "realized.jsonl", "--out", "stats.json"],
        ["eval", *act, "--out", "report.json"],
        ["eval", *act],
    ]
    sub, inproc = tmp_path / "sub", tmp_path / "inproc"
    sub.mkdir()
    inproc.mkdir()
    monkeypatch.chdir(inproc)
    for argv in argvs:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        result = run_module(argv, sub)
        assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == (0, out, err), argv
        assert err == "", argv
    assert json.loads(out)["micro"]["f1"] == 1.0  # the report `eval` printed to the pipe

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    written = files(sub)
    assert written == files(inproc)
    assert len([name for name in written if name.endswith(".manifest.json")]) == len(argvs) - 1
    assert written["flows.jsonl"] == written["flows_j2.jsonl"]

    (sub / "bad.jsonl").write_text("{not json\n")
    result = run_module(["stats", "--flows", "bad.jsonl", "--out", "bad.json"], sub)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode().startswith("error: bad.jsonl:1: ")
    assert result.stderr.count(b"\n") == 1
    assert not (sub / "bad.json").exists()
    result = run_module(["simulate", "--n", "5"], sub)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"usage: shopdialog simulate")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_traceback(tmp_path, unbuffered):
    """A stage whose stdout reader has gone exits 1 with nothing on stderr, whether the write
    fails in `print` (unbuffered) or in the flush before exit (buffered)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_module(["validate", *base_flags()], tmp_path, unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0), (["simulate"], 2)],
                         ids=["version", "help", "usage-error"])
def test_every_exit_code_zero_skips_teardown(tmp_path, argv, code):
    """`cli.run` ends exit code 0, argparse's after `--version` or `--help` too, without
    interpreter teardown, so a handler registered with `atexit` does not run; a usage error
    takes the normal exit and runs it."""
    probe = ("import atexit, sys\nfrom shopdialog import cli\n"
             "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
             f"sys.argv[1:] = {argv!r}\ncli.run()\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == code
    assert ("atexit ran" in result.stderr) == (code != 0)
    if argv == ["--version"]:
        assert result.stdout == f"{__version__}\n"


def corpus_through_every_stage(tmp_path, **policy_fields):
    """Simulate 200 dialogs at seed 1 under the fixture policy with `policy_fields` replaced, and
    run `realize`, all five `gold` tasks, `eval` of each gold file against itself, `split` and
    `stats` on them, each of which must exit 0. Returns the realized records, after checking that
    RECOMMEND gold holds one row per dialog that has a RECOMMEND_ITEM turn, keyed at the last such
    round, and none for a dialog without one, as README's rule says."""
    policy = {**json.loads((DATA / "policy.json").read_text()), **policy_fields}
    (tmp_path / "policy.json").write_text(json.dumps(policy))
    flows, realized = tmp_path / "flows.jsonl", tmp_path / "realized.jsonl"
    assert main(["simulate", *base_flags(), "--policy", str(tmp_path / "policy.json"), "--n", "200",
                 "--seed", "1", "--out", str(flows)]) == 0
    assert main(stage_argv("realize", flows, realized)) == 0
    for task in TASKS:
        gold = tmp_path / f"gold_{task}.jsonl"
        assert main(stage_argv(f"gold {task}", realized, gold)) == 0
        assert main(["eval", "--task", task, "--pred", str(gold), "--gold", str(gold),
                     "--out", str(tmp_path / f"report_{task}.json")]) == 0
    assert main(stage_argv("split", realized, tmp_path / "splits")) == 0
    assert main(stage_argv("stats", realized, tmp_path / "stats.json")) == 0
    records = [json.loads(line) for line in realized.read_text().splitlines()]
    recommended = {r["dialog_id"]: [rnd for rnd, t in enumerate(r["turns"][::2], 1)
                                    if t["act"] == "RECOMMEND_ITEM"] for r in records}
    expected = [{"dialog_id": r["dialog_id"], "round": recommended[r["dialog_id"]][-1],
                 "payload": [r["target_object_id"]]} for r in records if recommended[r["dialog_id"]]]
    rows = [json.loads(line) for line in (tmp_path / "gold_recommend.jsonl").read_text().splitlines()[1:]]
    assert rows == expected
    assert sum(r["outcome"] == "success" for r in records) <= len(rows)
    return records


def test_a_corpus_that_mostly_ends_at_max_rounds_runs_every_stage(tmp_path):
    """A policy that stops after round 3 and recommends only a last candidate (`max_rounds` 3,
    `recommend_max` 1) ends most dialogs in `max_rounds`, which the fixture policy does not.
    Every stage exits 0 on it, RECOMMEND gold follows README's rule, and some dialogs have no
    RECOMMEND gold row."""
    records = corpus_through_every_stage(tmp_path, max_rounds=3, recommend_max=1)
    outcomes = [r["outcome"] for r in records]
    assert outcomes.count("max_rounds") >= 0.9 * len(records) and "success" in outcomes
    rows = (tmp_path / "gold_recommend.jsonl").read_text().splitlines()[1:]
    assert len(rows) < len(records)


def test_a_corpus_of_forced_recommendations_runs_every_stage(tmp_path):
    """With `recommend_max` 1 and no REFER_REGION (`refer_region_min_elicited` 99), a salesperson
    whose candidate values are all narrowed to one, with several items left, has no eligible act,
    and `engine.eligible_acts` forces a RECOMMEND_ITEM whose round opens on more than one
    candidate; a RECOMMEND_ITEM drawn by its guard opens on one. Every stage exits 0 on the corpus,
    both outcomes occur, and RECOMMEND gold follows README's rule."""
    records = corpus_through_every_stage(tmp_path, recommend_max=1, refer_region_min_elicited=99)
    forced = [(r["dialog_id"], rnd) for r in records for rnd, t in enumerate(r["turns"][::2], 1)
              if t["act"] == "RECOMMEND_ITEM" and r["candidate_counts"][rnd - 1] > 1]
    outcomes = [r["outcome"] for r in records]
    assert forced and "success" in outcomes and "max_rounds" in outcomes
