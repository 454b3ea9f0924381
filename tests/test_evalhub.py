import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopdialog.acts import SPLIT_NAMES
from shopdialog.engine import SALESPERSON_ACTS, DialogFlow, generate_corpus
from shopdialog.errors import MalformedFile, ValidationError
from shopdialog.evalhub import (
    build_gold,
    corpus_stats,
    eval_act,
    eval_recommend,
    eval_response,
    eval_set_task,
    extract_item_ids,
    prf,
    read_predictions,
    split_corpus,
    write_predictions,
)


def turn(act, slots):
    """A turn in its wire form; its place in the flow's turns gives its round and speaker."""
    return {"act": act, "slots": slots}


def test_perfect_set_prediction():
    gold = {("d0", 1): {"red", "yellow"}, ("d0", 3): {"blue"}}
    block = eval_set_task(gold, gold)
    assert block["precision"] == block["recall"] == block["f1"] == 1.0


def test_partial_set_prediction():
    gold = {("d0", 1): {"yellow", "brown", "red"}}
    preds = {("d0", 1): {"red", "yellow"}}
    block = eval_set_task(preds, gold)
    assert block["precision"] == 1.0
    assert block["recall"] == pytest.approx(2 / 3)
    assert block["f1"] == pytest.approx(0.8)


def test_micro_pooling_matches_hand_counts():
    # Round A: pred {1,2} vs gold {2,3}; round B: pred {4} vs gold {4,5}.
    # Pooled: tp=2 (2 and 4), fp=1 (1), fn=2 (3 and 5).
    preds = {("d0", 1): {1, 2}, ("d0", 2): {4}}
    gold = {("d0", 1): {2, 3}, ("d0", 2): {4, 5}}
    block = eval_set_task(preds, gold)
    assert (block["tp"], block["fp"], block["fn"]) == (2, 1, 2)
    assert block["precision"] == pytest.approx(2 / 3)
    assert block["recall"] == pytest.approx(2 / 4)


def test_missing_rows_count_as_empty():
    gold = {("d0", 1): {"red"}, ("d1", 1): {"blue"}}
    block = eval_set_task({("d0", 1): {"red"}}, gold)
    assert block["recall"] == pytest.approx(0.5)
    assert block["precision"] == 1.0


def test_f1_harmonic_identity():
    block = prf(3, 2, 4)
    expected = 2 * block["precision"] * block["recall"] / (block["precision"] + block["recall"])
    assert abs(block["f1"] - expected) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
def test_prf_bounds(tp, fp, fn):
    block = prf(tp, fp, fn)
    assert 0.0 <= block["precision"] <= 1.0
    assert 0.0 <= block["recall"] <= 1.0
    assert 0.0 <= block["f1"] <= 1.0


def test_row_order_invariance():
    gold = {("d0", 1): {"a"}, ("d1", 2): {"b", "c"}, ("d2", 3): {"d"}}
    preds = {("d2", 3): {"d"}, ("d0", 1): {"a", "b"}}
    forward = eval_set_task(preds, gold)
    backward = eval_set_task(
        dict(reversed(list(preds.items()))), dict(reversed(list(gold.items())))
    )
    assert forward == backward


def test_act_perfect_and_wrong():
    gold = {("d0", 1): "ASK_PREFERENCE", ("d0", 2): "RECOMMEND_ITEM"}
    report = eval_act(gold, gold)
    assert report["micro"]["f1"] == 1.0
    wrong = eval_act({("d0", 1): "REFER_REGION"}, {("d0", 1): "ASK_PREFERENCE"})
    assert wrong["micro"]["f1"] == 0.0


def test_act_price_complaint_round():
    # A rejected price guess is followed by a revision; that round's gold act
    # is REVISE_ATTRIBUTE_VALUE and a matching prediction scores full marks.
    from tests.test_engine import make_scene

    scene = make_scene(["red"])
    flow = DialogFlow("d0", scene.scene_id, 0, "success", [1, 1, 1], [
        turn("GUESS_ATTRIBUTE_VALUE",
             {"attribute": "price", "value": "$299"}),
        turn("RESPOND_ATTRIBUTE_VALUE",
             {"attribute": "price", "value": "$299", "accept": False}),
        turn("REVISE_ATTRIBUTE_VALUE",
             {"attribute": "price", "value": "$99"}),
        turn("RESPOND_ATTRIBUTE_VALUE",
             {"attribute": "price", "value": "$99", "accept": True}),
    ])
    rows = dict(build_gold([(1, flow)], None, {scene.scene_id: scene}, "ACT"))
    assert rows[("d0", 2)] == "REVISE_ATTRIBUTE_VALUE"
    report = eval_act({("d0", 2): "REVISE_ATTRIBUTE_VALUE"}, {("d0", 2): rows[("d0", 2)]})
    assert report["micro"]["f1"] == 1.0


def test_act_unknown_name_rejected(tmp_path):
    """An ACT payload outside the salesperson repertoire is rejected where the file is read."""
    path = tmp_path / "pred.jsonl"
    write_predictions(path, {"task": "ACT"}, [(("d0", 1), "ASK_PREFERENCE"), (("d0", 2), "SING_A_SONG")])
    with pytest.raises(MalformedFile, match="pred.jsonl:3: a ACT payload must be a salesperson act name"):
        read_predictions(path, "ACT")


def test_bleu_identical_corpus():
    refs = {("d0", 1): "have a look at the back left rack", ("d0", 2): "yes I like it"}
    assert eval_response(refs, refs) == pytest.approx(1.0)


def test_bleu_no_fourgram_overlap():
    refs = {("d0", 1): "a b c d e"}
    preds = {("d0", 1): "a x c y e"}
    assert eval_response(preds, refs) == 0.0


def test_bleu_hand_computed_pair():
    hyp = "the quick brown fox jumps over the dog"
    ref = "the quick brown fox jumps over the lazy dog"
    # Hand counts: 8 hyp tokens, 9 ref tokens.
    # p1 = 8/8 (all unigrams clipped-matched, "the" appears twice in both)
    # p2 = 6/7 ("the dog" unmatched), p3 = 5/6 ("over the dog" unmatched)
    # p4 = 4/5 ("jumps over the dog" unmatched); BP = exp(1 - 9/8).
    expected = math.exp(1 - 9 / 8) * (1.0 * (6 / 7) * (5 / 6) * (4 / 5)) ** 0.25
    got = eval_response({("d0", 1): hyp}, {("d0", 1): ref})
    assert got == pytest.approx(expected, abs=1e-9)


def test_bleu_empty_corpus():
    with pytest.raises(ValidationError, match="no reference utterances to score against"):
        eval_response({}, {})


def reference_bleu(preds, refs):
    """Pair-by-pair corpus BLEU-4: the loop `eval_response` must equal bit for bit."""
    clipped = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for key, ref in refs.items():
        hyp_tokens = preds.get(key, "").split()
        ref_tokens = ref.split()
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, 5):
            hyp_grams = Counter(
                tuple(hyp_tokens[i:i + n]) for i in range(len(hyp_tokens) - n + 1)
            )
            ref_grams = Counter(
                tuple(ref_tokens[i:i + n]) for i in range(len(ref_tokens) - n + 1)
            )
            totals[n - 1] += sum(hyp_grams.values())
            clipped[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    if any(t == 0 for t in totals) or any(c == 0 for c in clipped):
        return 0.0
    log_precision = sum(0.25 * math.log(c / t) for c, t in zip(clipped, totals))
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


def reference_act(preds, gold):
    """Three scans per class: the counts `eval_act` must equal exactly."""
    tp = fp = fn = 0
    per_class = {}
    classes = sorted(set(gold.values()) | set(preds.values()))
    for cls in classes:
        ctp = sum(1 for k, g in gold.items() if g == cls and preds.get(k) == cls)
        cfp = sum(1 for k, p in preds.items() if p == cls and gold.get(k) != cls)
        cfn = sum(1 for k, g in gold.items() if g == cls and preds.get(k) != cls)
        per_class[cls] = prf(ctp, cfp, cfn)
        tp, fp, fn = tp + ctp, fp + cfp, fn + cfn
    n = len(classes)
    macro = {
        "precision": sum(p["precision"] for p in per_class.values()) / n if n else 0.0,
        "recall": sum(p["recall"] for p in per_class.values()) / n if n else 0.0,
        "f1": sum(p["f1"] for p in per_class.values()) / n if n else 0.0,
    }
    return {"micro": prf(tp, fp, fn), "macro": macro, "per_class": per_class}


# Few short sentences over a tiny vocabulary, so pairs repeat, hypotheses are
# often empty or under 4 tokens, and n-gram matches are common.
SENTENCES = st.lists(st.sampled_from("abc"), max_size=6).map(" ".join)
KEYS = st.tuples(st.sampled_from(["d0", "d1", "d2"]), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bleu_equals_pair_by_pair_reference(data):
    pool = data.draw(st.lists(SENTENCES, min_size=1, max_size=4))
    sentence = st.sampled_from(pool)
    refs = data.draw(st.dictionaries(KEYS, sentence, min_size=1, max_size=30))
    preds = data.draw(st.dictionaries(KEYS, sentence, max_size=30))  # misses and extras
    assert eval_response(preds, refs) == reference_bleu(preds, refs)


def test_bleu_repeated_pair_equals_single_pair():
    hyp = "the quick brown fox jumps over the dog"
    ref = "the quick brown fox jumps over the lazy dog"
    keys = [(f"d{i:05d}", 1) for i in range(1000)]
    single = eval_response({keys[0]: hyp}, {keys[0]: ref})
    assert eval_response({k: hyp for k in keys}, {k: ref for k in keys}) == single


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_act_equals_three_pass_reference(data):
    act = st.sampled_from(SALESPERSON_ACTS[:4])
    gold = data.draw(st.dictionaries(KEYS, act, max_size=30))
    preds = data.draw(st.dictionaries(KEYS, act, max_size=30))  # misses and extras
    got, want = eval_act(preds, gold), reference_act(preds, gold)
    assert got == want
    assert list(got["per_class"]) == list(want["per_class"])


def test_recommend_extraction_cases():
    gold = {("d0", 9): {1132}}
    assert eval_recommend({("d0", 9): 'I suggest this one <@1132>'}, gold)["f1"] == 1.0
    missing = eval_recommend({("d0", 9): "no token here"}, gold)
    assert missing["recall"] == 0.0
    multi = eval_recommend({("d0", 9): "<@3> <@7>"}, {("d0", 9): {3}})
    assert multi["precision"] == pytest.approx(0.5)
    assert multi["recall"] == 1.0
    assert multi["f1"] == pytest.approx(2 / 3)


def test_extract_item_ids_accepts_lists():
    assert extract_item_ids([3, "7"]) == {3, 7}
    assert extract_item_ids("<@12> and <@12>") == {12}


def two_turn_flow(dialog_id="d0", act="ASK_PREFERENCE"):
    pair = {"ASK_PREFERENCE": "ANSWER_PREFERENCE"}[act]
    return DialogFlow(dialog_id, "s", 0, "success", [2, 1], [
        turn(act, {"attribute": "color"}),
        turn(pair, {"attribute": "color", "concept_id": "warm_color"}),
    ])


def test_stats_single_dialog():
    report = corpus_stats([two_turn_flow()])
    assert report["n_utterances"] == 2
    assert report["avg_utterances_per_dialog"] == 2.0
    assert report["avg_salesperson_acts_per_dialog"] == 1.0
    assert report["avg_objects_per_scene"] == 2.0


def test_stats_round_one_point_mass():
    flows = [two_turn_flow(f"d{i}") for i in range(5)]
    report = corpus_stats(flows)
    assert report["act_distribution_by_round"][0]["ASK_PREFERENCE"] == 1.0
    assert sum(report["act_distribution_by_round"][0].values()) == pytest.approx(1.0)


def test_stats_candidate_series_non_increasing(scenes, ontology, policy):
    flows = list(generate_corpus(scenes, ontology, policy, 400, base_seed=21))
    report = corpus_stats(flows)
    series = report["candidate_items_by_round"]
    assert all(a >= b for a, b in zip(series, series[1:]))
    assert report["n_dialogs"] == 400


def test_stats_empty_corpus():
    with pytest.raises(ValidationError, match="no dialogs"):
        corpus_stats([])


def test_split_exact_sizes():
    split_of = split_corpus(100, (0.65, 0.05, 0.15, 0.15), seed=1)
    assert [split_of.count(k) for k in ("train", "dev", "dev_test", "test_std")] == [65, 5, 15, 15]


def test_split_everything_in_train():
    assert split_corpus(10, (1.0, 0.0, 0.0, 0.0), seed=1) == ["train"] * 10


def test_split_deterministic():
    a = split_corpus(50, (0.65, 0.05, 0.15, 0.15), seed=9)
    b = split_corpus(50, (0.65, 0.05, 0.15, 0.15), seed=9)
    assert a == b and a != split_corpus(50, (0.65, 0.05, 0.15, 0.15), seed=10)


def test_split_bad_ratios():
    with pytest.raises(ValidationError, match=r"ratios must be finite, non-negative and sum to 1, "
                                              r"got \(0.5, 0.5, 0.5, 0.5\)"):
        split_corpus(4, (0.5, 0.5, 0.5, 0.5), seed=0)
    with pytest.raises(ValidationError, match="need 4 ratios, got 3"):
        split_corpus(4, (1.0, 0.0, 0.0), seed=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 60),
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)).filter(
        lambda t: sum(t) > 0
    ),
    st.integers(0, 2**30),
)
def test_split_disjoint_and_exhaustive(n, raw_ratios, seed):
    total = sum(raw_ratios)
    ratios = tuple(r / total for r in raw_ratios)
    split_of = split_corpus(n, ratios, seed)
    assert len(split_of) == n
    assert set(split_of) <= set(SPLIT_NAMES)


def test_build_gold_spd_single_round(ontology, scenes):
    from tests.test_engine import make_scene

    scene = make_scene(["red", "blue", "yellow"])
    flow = DialogFlow("d0", scene.scene_id, 0, "success", [3, 2], [
        turn("ASK_PREFERENCE", {"attribute": "color"}),
        turn("ANSWER_PREFERENCE",
             {"attribute": "color", "concept_id": "warm_color"}),
    ])
    rows = dict(build_gold([(1, flow)], ontology, {scene.scene_id: scene}, "SPD"))
    assert rows[("d0", 1)] == ["red", "yellow"]


def test_build_gold_spd_modes(ontology):
    from tests.test_engine import make_scene

    scene = make_scene(["red", "yellow", "blue", "orange"])
    flow = DialogFlow("d0", scene.scene_id, 0, "success", [4, 2, 1], [
        turn("ASK_PREFERENCE", {"attribute": "color"}),
        turn("ANSWER_PREFERENCE",
             {"attribute": "color", "concept_id": "warm_color"}),
        turn("EXCLUDE_PREFERENCE", {"attribute": "color"}),
        turn("NEGATE_PREFERENCE",
             {"attribute": "color", "concept_id": "powerful_color"}),
    ])
    cumulative = dict(build_gold([(1, flow)], ontology, {scene.scene_id: scene}, "SPD", spd_mode="cumulative"))
    assert cumulative[("d0", 2)] == ["yellow"]  # warm minus powerful, in scene
    scene_only = dict(build_gold([(1, flow)], ontology, {scene.scene_id: scene}, "SPD", spd_mode="scene_only"))
    assert scene_only[("d0", 2)] == ["blue", "yellow"]  # scene minus powerful


def test_build_gold_rru_definitional(ontology, scenes_by_id):
    flow = DialogFlow("d0", "f01", 12, "success", [32, 5], [
        turn("REFER_REGION", {"region_label": "far right shelf"}),
        turn("JUDGE_REGION",
             {"region_label": "far right shelf", "accept": True}),
    ])
    rows = dict(build_gold([(1, flow)], ontology, scenes_by_id, "RRU"))
    assert rows[("d0", 1)] == [12, 13, 16, 22, 31]


def test_build_gold_recommend_is_target(ontology, scenes_by_id):
    flow = two_turn_flow()
    scene = next(iter(scenes_by_id.values()))
    flow = flow._replace(scene_id=scene.scene_id, target_object_id=7,
                         candidate_counts=[len(scene.items_by_id), 1])
    rows = dict(build_gold([(1, flow)], ontology, scenes_by_id, "RECOMMEND"))
    assert rows[("d0", 1)] == [7]


def test_prediction_file_round_trip(tmp_path):
    rows = {("d0", 1): ["red"], ("d1", 2): ["blue", "green"]}
    path = tmp_path / "pred.jsonl"
    assert write_predictions(path, {"task": "SPD", "spd_mode": "cumulative"}, rows.items()) == 2
    header, loaded = read_predictions(path, "SPD")
    assert header["task"] == "SPD"
    assert loaded == rows


def test_header_is_the_first_record(tmp_path):
    """Blank lines are skipped before the header as everywhere else; a header-like record after
    the first is a row without dialog_id."""
    path = tmp_path / "pred.jsonl"
    row = '{"dialog_id":"d0","round":1,"payload":"ASK_PREFERENCE"}\n'
    path.write_text('\n \n{"task":"ACT"}\n' + row)
    assert read_predictions(path, "ACT") == ({"task": "ACT"}, {("d0", 1): "ASK_PREFERENCE"})
    path.write_text('\n' + row + '{"task":"ACT"}\n')
    with pytest.raises(MalformedFile, match="pred.jsonl:3: row without dialog_id"):
        read_predictions(path, "ACT")


@pytest.mark.parametrize("task, payload, fits", [
    ("RRU", [1, 2], True), ("RRU", [], True), ("RRU", [1, True], False), ("RRU", [1.0], False),
    ("SPD", ["a", "b"], True), ("SPD", ["a", 1], False), ("SPD", "ab", False), ("SPD", [["a"]], False),
    ("RECOMMEND", [3], True), ("RECOMMEND", "<@3>", True), ("RECOMMEND", [True], False),
])
def test_list_payload_types_are_exact(tmp_path, task, payload, fits):
    """A list payload's elements must have exactly the task's type: `true` is not an id."""
    path = tmp_path / "pred.jsonl"
    write_predictions(path, {"task": task}, [(("d0", 1), payload)])
    if fits:
        assert read_predictions(path, task)[1] == {("d0", 1): payload}
    else:
        with pytest.raises(MalformedFile, match=f"pred.jsonl:2: a {task} payload must be"):
            read_predictions(path, task)
