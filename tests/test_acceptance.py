"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the
corpus criteria share one streamed 10,000-dialog simulation (default policy,
seed 42, bundled fixture pack).
"""

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import pytest

from shopdialog.engine import DialogFlow, ELICIT_ACTS, generate_corpus
from shopdialog.evalhub import (
    build_gold,
    eval_recommend,
    eval_response,
    eval_set_task,
    split_corpus,
)
from shopdialog.ontology import spd_oracle
from shopdialog.realizer import realize_corpus
from tests.conftest import DATA, positioned, replayed, resolve_surface, turn_counts

N_DIALOGS = 10_000
KEEP = 1_000


def check(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    return ok


@dataclass
class CorpusSummary:
    elapsed: float = 0.0
    n: int = 0
    n_success: int = 0
    n_terminated: int = 0
    retention_violations: int = 0
    count_violations: int = 0
    monotonic_violations: int = 0
    total_sales_acts: int = 0
    round1_acts: Counter = field(default_factory=Counter)
    kept: list = field(default_factory=list)


@pytest.fixture(scope="session")
def corpus(scenes, scenes_by_id, ontology, policy) -> CorpusSummary:
    """Simulate the corpus and replay each dialog through `new_session`/`apply_turn`: the
    replayed item set of every turn must keep the target and have the turn's candidate count."""
    summary = CorpusSummary()
    start = time.perf_counter()
    for flow in generate_corpus(scenes, ontology, policy, N_DIALOGS, base_seed=42):
        summary.n += 1
        summary.n_terminated += flow.outcome in ("success", "max_rounds")
        summary.n_success += flow.outcome == "success"
        prev = None
        replay = replayed(flow, scenes_by_id[flow.scene_id], ontology)
        for (rnd, speaker, _), (turn, state), count in zip(positioned(flow), replay, turn_counts(flow)):
            if flow.target_object_id not in state.candidate_items:
                summary.retention_violations += 1
            if count != len(state.candidate_items):
                summary.count_violations += 1
            if speaker == "salesperson":
                summary.total_sales_acts += 1
                if rnd == 1:
                    summary.round1_acts[turn["act"]] += 1
            else:
                if prev is not None and count > prev:
                    summary.monotonic_violations += 1
                prev = count
        if len(summary.kept) < KEEP:
            summary.kept.append(flow)
    summary.elapsed = time.perf_counter() - start
    return summary


def test_criterion_1_retention_and_monotonicity(corpus):
    ok = (
        corpus.n == N_DIALOGS
        and corpus.retention_violations == 0
        and corpus.count_violations == 0
        and corpus.monotonic_violations == 0
        and corpus.elapsed < 60.0
    )
    assert check(
        1,
        "target retention & monotonicity",
        ok,
        f"{corpus.n} dialogs in {corpus.elapsed:.1f}s, "
        f"{corpus.retention_violations} retention / {corpus.count_violations} count / "
        f"{corpus.monotonic_violations} monotonicity violations",
    )


def test_criterion_2_termination(corpus):
    success_rate = corpus.n_success / corpus.n
    ok = success_rate >= 0.99 and corpus.n_terminated == corpus.n
    assert check(2, "termination", ok, f"success rate {success_rate:.4f}")


def clauses_through(flow: DialogFlow, attr: str, upto_round: int):
    out = []
    for rnd, speaker, turn in positioned(flow):
        if speaker != "customer" or rnd > upto_round:
            continue
        if turn["act"] == "ANSWER_PREFERENCE" and turn["slots"]["attribute"] == attr:
            out.append(("like", turn["slots"]["concept_id"]))
        elif turn["act"] == "NEGATE_PREFERENCE" and turn["slots"]["attribute"] == attr:
            out.append(("dislike", turn["slots"]["concept_id"]))
        elif turn["act"] == "RESPOND_PROMPT" and turn["slots"]["attribute"] == attr:
            polarity = "like" if turn["slots"]["accept"] else "dislike"
            out.append((polarity, turn["slots"]["concept_id"]))
    return out


def brute_force_filter(ontology, scene, attr, clauses):
    kept = set()
    for item in scene.items:
        value = item.attributes[attr]
        if all((value in ontology.concept(c).values) == (p == "like") for p, c in clauses):
            kept.add(value)
    return kept


def test_criterion_3_oracle_equivalence(corpus, scenes_by_id, ontology):
    gold_rows = dict(build_gold(enumerate(corpus.kept, 1), ontology, scenes_by_id, "SPD", spd_mode="cumulative"))

    population = []
    for flow in corpus.kept:
        elicit_by_round = {
            rnd: t["slots"]["attribute"] for rnd, speaker, t in positioned(flow)
            if speaker == "customer" and t["act"] in
            ("ANSWER_PREFERENCE", "NEGATE_PREFERENCE", "RESPOND_PROMPT")
        }
        sales_rounds = {
            rnd for rnd, speaker, t in positioned(flow) if speaker == "salesperson" and t["act"] in ELICIT_ACTS
        }
        population.extend((flow, rnd, elicit_by_round[rnd]) for rnd in sorted(sales_rounds))
    sample = random.Random(3).sample(population, 1_000)

    mismatches = 0
    for flow, rnd, attr in sample:
        scene = scenes_by_id[flow.scene_id]
        clauses = clauses_through(flow, attr, rnd)
        expected = brute_force_filter(ontology, scene, attr, clauses)
        if spd_oracle(ontology, scene, clauses) != expected:
            mismatches += 1
        elif set(gold_rows[(flow.dialog_id, rnd)]) != expected:
            mismatches += 1

    region_mismatches = 0
    from shopdialog.catalog import items_in_region

    for scene in scenes_by_id.values():
        for region in scene.regions:
            rx, ry, rw, rh = region.bbox
            brute = {
                it.object_id for it in scene.items
                if rx <= it.bbox[0] + it.bbox[2] / 2 <= rx + rw
                and ry <= it.bbox[1] + it.bbox[3] / 2 <= ry + rh
            }
            if items_in_region(scene, region.label) != brute:
                region_mismatches += 1

    ok = mismatches == 0 and region_mismatches == 0
    assert check(
        3, "oracle equivalence", ok,
        f"1000 sampled rounds, {mismatches} SPD / {region_mismatches} region mismatches",
    )


def test_criterion_4_policy_calibration(corpus):
    mean_acts = corpus.total_sales_acts / corpus.n
    ask = corpus.round1_acts["ASK_PREFERENCE"]
    ok = (
        5.0 <= mean_acts <= 12.0
        and ask > corpus.round1_acts["EXCLUDE_PREFERENCE"]
        and ask > corpus.round1_acts["PROMPT_PREFERENCE"]
    )
    assert check(
        4, "policy calibration", ok,
        f"mean acts/dialog {mean_acts:.2f}, round-1 acts {dict(corpus.round1_acts)}",
    )


def test_criterion_5_metric_correctness():
    prf = eval_set_task({("d", 1): {"red", "yellow"}}, {("d", 1): {"yellow", "brown", "red"}})
    f1_ok = abs(prf["f1"] - 0.8) < 1e-12 and prf["precision"] == 1.0

    refs = {("d", 1): "please have a look at this one", ("d", 2): "what about the red jacket"}
    bleu_identical = eval_response(refs, refs)

    hyp = "the quick brown fox jumps over the dog"
    ref = "the quick brown fox jumps over the lazy dog"
    hand = math.exp(1 - 9 / 8) * (1.0 * (6 / 7) * (5 / 6) * (4 / 5)) ** 0.25
    bleu_pair = eval_response({("d", 1): hyp}, {("d", 1): ref})

    rec = eval_recommend({("d", 9): "you might like this <@1132>"}, {("d", 9): {1132}})

    ok = (
        f1_ok
        and abs(bleu_identical - 1.0) < 1e-9
        and abs(bleu_pair - hand) < 1e-9
        and rec["f1"] == 1.0
    )
    assert check(
        5, "metric correctness", ok,
        f"F1 {prf['f1']:.3f}, BLEU pair {bleu_pair:.6f} vs hand {hand:.6f}",
    )


def test_criterion_6_split_exactness():
    ratios = (0.65, 0.05, 0.15, 0.15)
    split_of = split_corpus(100, ratios, seed=11)
    again = split_corpus(100, ratios, seed=11)
    sizes = [split_of.count(k) for k in ("train", "dev", "dev_test", "test_std")]
    ok = sizes == [65, 5, 15, 15] and len(split_of) == 100 and split_of == again
    assert check(6, "split exactness", ok, f"sizes {sizes}")


def test_criterion_7_realization_round_trip(corpus, scenes_by_id, ontology, templates):
    import re

    realized = list(realize_corpus(enumerate(corpus.kept, 1), templates, ontology, scenes_by_id, base_seed=42))
    concept_turns = 0
    bad_resolution = 0
    recommend_turns = 0
    bad_tokens = 0
    for flow in realized:
        for turn in flow.turns:
            if turn["act"] in ("ANSWER_PREFERENCE", "NEGATE_PREFERENCE",
                            "PROMPT_PREFERENCE", "RESPOND_PROMPT"):
                concept_turns += 1
                concept = ontology.concept(turn["slots"]["concept_id"])
                present = [f for f in concept.surface_forms if f in turn["utterance"]]
                if not present or any(
                    resolve_surface(ontology, f) != concept.concept_id for f in present
                ):
                    bad_resolution += 1
            if turn["act"] == "RECOMMEND_ITEM":
                recommend_turns += 1
                tokens = re.findall(r"<@(\d+)>", turn["utterance"])
                if len(tokens) != 1 or int(tokens[0]) != turn["slots"]["object_id"]:
                    bad_tokens += 1
    ok = (
        len(realized) == KEEP
        and bad_resolution == 0
        and bad_tokens == 0
        and concept_turns > 0
        and recommend_turns > 0
    )
    assert check(
        7, "realization round-trip", ok,
        f"{concept_turns} concept turns, {recommend_turns} recommend turns, "
        f"{bad_resolution}/{bad_tokens} bad",
    )


def test_criterion_8_cli_determinism(tmp_path):
    from shopdialog.cli import main

    flags = [
        "--scenes", str(DATA / "scenes.json"),
        "--metadata", str(DATA / "metadata.json"),
        "--ontology", str(DATA / "ontology.json"),
    ]

    def run(args):
        assert main(args) == 0

    flows_a = tmp_path / "a.jsonl"
    flows_b = tmp_path / "b.jsonl"
    for out in (flows_a, flows_b):
        run(["simulate", *flags, "--policy", str(DATA / "policy.json"),
             "--n", "200", "--seed", "42", "--jobs", "8", "--out", str(out)])
    simulate_ok = flows_a.read_bytes() == flows_b.read_bytes()

    # replay the recorded invocation from the manifest
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    before = flows_a.read_bytes()
    run(manifest["argv"])
    replay_ok = flows_a.read_bytes() == before

    realized_a = tmp_path / "ra.jsonl"
    realized_b = tmp_path / "rb.jsonl"
    for out, jobs in ((realized_a, 8), (realized_b, 1)):
        run(["realize", *flags, "--templates", str(DATA / "templates.json"),
             "--flows", str(flows_a), "--seed", "42", "--jobs", str(jobs),
             "--out", str(out)])
    realize_ok = realized_a.read_bytes() == realized_b.read_bytes()

    stages_ok = True
    for args, outs in [
        (["gold", *flags, "--flows", str(flows_a), "--task", "spd",
          "--out", str(tmp_path / "g{i}.jsonl")], [tmp_path / "g0.jsonl", tmp_path / "g1.jsonl"]),
        (["split", "--flows", str(flows_a), "--seed", "1",
          "--out-dir", str(tmp_path / "s{i}")],
         [tmp_path / "s0" / "train.jsonl", tmp_path / "s1" / "train.jsonl"]),
        (["stats", "--flows", str(flows_a), "--out", str(tmp_path / "t{i}.json")],
         [tmp_path / "t0.json", tmp_path / "t1.json"]),
    ]:
        for i in range(2):
            run([a.replace("{i}", str(i)) for a in args])
        stages_ok = stages_ok and outs[0].read_bytes() == outs[1].read_bytes()

    for i in range(2):
        run(["eval", "--task", "spd", "--pred", str(tmp_path / "g0.jsonl"),
             "--gold", str(tmp_path / "g0.jsonl"), "--out", str(tmp_path / f"e{i}.json")])
    eval_ok = (tmp_path / "e0.json").read_bytes() == (tmp_path / "e1.json").read_bytes()

    ok = simulate_ok and replay_ok and realize_ok and stages_ok and eval_ok
    assert check(
        8, "CLI determinism", ok,
        f"simulate={simulate_ok} replay={replay_ok} realize={realize_ok} "
        f"stages={stages_ok} eval={eval_ok}",
    )
