import json
import random
from collections import Counter

import pytest

from shopdialog.catalog import Item, Scene
from shopdialog.cli import main
from shopdialog.engine import (
    ACT_PAIRS,
    ELICIT_ACTS,
    SALESPERSON_ACTS,
    apply_turn,
    customer_step,
    eligible_acts,
    flow_to_dict,
    generate_corpus,
    generate_goal,
    new_session,
    run_dialog,
    salesperson_step,
)
from shopdialog.errors import ValidationError
from tests.conftest import full_flow, positioned, replayed, turn_counts

FASHION_ATTRS = {
    "type": "jacket", "color": "red", "pattern": "plain", "material": "wool",
    "price": "$49", "brand": "Yogi Fit", "size": "M", "customer_review": "4.2",
    "sleeve_length": "full",
}


def make_scene(colors, regions=()):
    items = tuple(
        Item(i, (30.0 * i, 0.0, 10.0, 10.0), {**FASHION_ATTRS, "color": c})
        for i, c in enumerate(colors)
    )
    return Scene("toy", "fashion", items, tuple(regions))


def test_goal_forced_choice():
    scene = make_scene(["red"])
    goal = generate_goal(scene, random.Random(0))
    assert goal.object_id == 0
    assert goal.attributes == scene.items[0].attributes


def test_goal_uniform_frequencies():
    scene = make_scene(["red", "blue", "yellow", "green", "white",
                        "black", "brown", "olive", "grey", "orange"])
    rng = random.Random(123)
    counts = Counter(generate_goal(scene, rng).object_id for _ in range(10_000))
    for oid in range(10):
        assert abs(counts[oid] / 10_000 - 0.1) <= 0.02


def test_goal_deterministic():
    scene = make_scene(["red", "blue"])
    assert generate_goal(scene, random.Random(9)) == generate_goal(scene, random.Random(9))


def test_item_less_scene_exits_one(tmp_path, capsys, data_dir):
    """`simulate` draws each target from a scene of the scene file, whose reader rejects a scene
    without items in one line before anything is drawn or written."""
    raw = json.loads((data_dir / "scenes.json").read_text(encoding="utf-8"))
    raw[1]["items"] = []
    scenes, out = tmp_path / "scenes.json", tmp_path / "flows.jsonl"
    scenes.write_text(json.dumps(raw), encoding="utf-8")
    argv = ["simulate", "--scenes", str(scenes), "--n", "3", "--out", str(out),
            *(arg for name in ("metadata", "ontology", "policy")
              for arg in (f"--{name}", str(data_dir / f"{name}.json")))]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {scenes}: scene {raw[1]['scene_id']}: needs at least one item\n")
    assert not out.exists()


def test_round_one_gating(policy):
    state = new_session(make_scene(["red", "blue", "yellow"]))
    elig = eligible_acts(state, policy)
    assert "GUESS_ATTRIBUTE_VALUE" not in elig
    assert "DISPLAY_CANDIDATE_VALUES" not in elig
    assert "REVISE_ATTRIBUTE_VALUE" not in elig
    assert {"ASK_PREFERENCE", "EXCLUDE_PREFERENCE", "PROMPT_PREFERENCE"} <= elig


def test_refer_region_threshold_zero_allows_round_one(scenes, ontology, policy):
    """`refer_region_min_elicited: 0` lets the salesperson refer to a region before any
    preference is elicited, which the shipped threshold of 1 forbids."""
    zero = policy._replace(refer_region_min_elicited=0)
    assert policy.refer_region_min_elicited == 1
    state = new_session(scenes[0])
    assert "REFER_REGION" in eligible_acts(state, zero)
    assert "REFER_REGION" not in eligible_acts(state, policy)
    corpora = [list(generate_corpus(scenes, ontology, cfg, 200, base_seed=3)) for cfg in (zero, policy)]
    opening = [sum(f.turns[0]["act"] == "REFER_REGION" for f in corpus) for corpus in corpora]
    assert opening[0] > 0 and opening[1] == 0
    assert corpora[0] != corpora[1]


def test_single_candidate_allows_recommend(policy):
    state = new_session(make_scene(["red"]))
    assert "RECOMMEND_ITEM" in eligible_acts(state, policy)


def test_display_window(policy):
    state = new_session(make_scene(["red", "blue", "white", "red"]))._replace(
        elicited_attrs=frozenset({"material"}))
    # color candidates {red, blue, white}: 3 values, inside the 3..5 window
    assert len(state.candidate_values["color"]) == 3
    assert "DISPLAY_CANDIDATE_VALUES" in eligible_acts(state, policy)


def test_display_window_is_bounded_by_the_counts(policy):
    """`display_max` may be huge: the window is compared with the candidate counts, so the call
    returns at once even when no count falls inside it."""
    state = new_session(make_scene(["red", "blue"]))._replace(elicited_attrs=frozenset({"color"}))
    huge = policy._replace(display_min=3, display_max=10**15)
    assert "DISPLAY_CANDIDATE_VALUES" not in eligible_acts(state, huge)
    assert "DISPLAY_CANDIDATE_VALUES" in eligible_acts(state, huge._replace(display_min=2))


def test_round_one_ask_dominates(ontology, policy):
    scene = make_scene(["red", "blue", "yellow", "green"])
    counts = Counter()
    for i in range(4000):
        state = new_session(scene)
        name, _ = salesperson_step(state, policy, random.Random(i), ontology)
        counts[name] += 1
    assert counts["ASK_PREFERENCE"] > counts["EXCLUDE_PREFERENCE"]
    assert counts["ASK_PREFERENCE"] > counts["PROMPT_PREFERENCE"]


def test_forced_singleton_renormalization(ontology, policy):
    # Single item, nothing elicited: only RECOMMEND_ITEM survives the guards.
    scene = make_scene(["red"])
    state = new_session(scene)
    for i in range(50):
        name, _ = salesperson_step(state, policy, random.Random(i), ontology)
        assert name == "RECOMMEND_ITEM"


def all_acts_eligible_state(ontology, policy):
    """A state where all eight acts pass their guards."""
    scene = make_scene(
        ["red", "blue", "yellow", "green", "white"],
        regions=[],
    )
    from shopdialog.catalog import BackgroundItem

    region = BackgroundItem("back left rack", (0.0, 0.0, 70.0, 50.0))  # covers items 0..2
    scene = Scene(scene.scene_id, scene.domain, scene.items, (region,))
    state = new_session(scene)._replace(elicited_attrs=frozenset({"color"}),
                                        last_guess=("color", "violet"))
    assert eligible_acts(state, policy) == set(SALESPERSON_ACTS)
    return state


def test_sampling_matches_hand_set_row(ontology, policy):
    state = all_acts_eligible_state(ontology, policy)
    row = {
        "ASK_PREFERENCE": 0.30, "EXCLUDE_PREFERENCE": 0.05, "PROMPT_PREFERENCE": 0.05,
        "GUESS_ATTRIBUTE_VALUE": 0.15, "REVISE_ATTRIBUTE_VALUE": 0.05,
        "DISPLAY_CANDIDATE_VALUES": 0.10, "REFER_REGION": 0.10, "RECOMMEND_ITEM": 0.20,
    }
    cfg = policy._replace(rounds=(row,), stationary=row)
    rng = random.Random(777)
    counts = Counter(salesperson_step(state, cfg, rng, ontology)[0] for _ in range(10_000))
    for act, p in row.items():
        assert abs(counts[act] / 10_000 - p) <= 0.02, act


def test_customer_answers_with_covering_concept(ontology, policy):
    scene = make_scene(["red", "blue"])
    state = new_session(scene)
    goal = generate_goal(make_scene(["red"]), random.Random(0))
    ask = ("ASK_PREFERENCE", {"attribute": "color"})
    seen = set()
    for i in range(200):
        name, slots = customer_step(state, goal, ask, ontology, random.Random(i))
        assert name == "ANSWER_PREFERENCE"
        seen.add(slots["concept_id"])
    assert seen == {"warm_color", "powerful_color"}


def test_exclude_with_no_truthful_concept(policy):
    # Degenerate ontology: the only concept covers every color, so a customer
    # with a red target has nothing truthful to negate anywhere.
    from shopdialog.errors import NoTruthfulConcept
    from shopdialog.ontology import ontology_from_blocks

    ont = ontology_from_blocks([{
        "attribute": "color",
        "value_space": ["red", "blue"],
        "concepts": [{
            "concept_id": "any_color", "values": ["red", "blue"],
            "surface_forms": ["whatever color"],
        }],
    }])
    scene = make_scene(["red", "blue"])
    state = new_session(scene)
    goal = generate_goal(make_scene(["red"]), random.Random(0))
    exclude = ("EXCLUDE_PREFERENCE", {"attribute": "color"})
    with pytest.raises(NoTruthfulConcept):
        customer_step(state, goal, exclude, ont, random.Random(0))


def test_customer_never_negates_target(ontology, policy):
    scene = make_scene(["red", "blue", "yellow"])
    state = new_session(scene)
    goal = generate_goal(make_scene(["red"]), random.Random(0))
    exclude = ("EXCLUDE_PREFERENCE", {"attribute": "color"})
    for i in range(1000):
        name, slots = customer_step(state, goal, exclude, ontology, random.Random(i))
        assert name == "NEGATE_PREFERENCE"
        concept = ontology.concept(slots["concept_id"])
        assert goal.attributes[concept.attr] not in concept.values


def test_recommend_target_accepted(ontology):
    scene = make_scene(["red", "blue"])
    state = new_session(scene)
    goal = generate_goal(make_scene(["red"]), random.Random(0))
    act = ("RECOMMEND_ITEM", {"object_id": goal.object_id})
    _, slots = customer_step(state, goal, act, ontology, random.Random(0))
    assert slots["accept"] is True


def test_apply_answer_intersects(ontology):
    scene = make_scene(["red", "blue", "yellow"])
    state = new_session(scene)
    s_act = ("ASK_PREFERENCE", {"attribute": "color"})
    c_act = ("ANSWER_PREFERENCE", {"attribute": "color", "concept_id": "warm_color"})
    nxt = apply_turn(state, s_act, c_act, ontology)
    assert nxt.candidate_values["color"] == {"red", "yellow"}
    assert nxt.round == 2
    assert nxt.elicited_attrs == {"color"}


# Items 0..3 are red, blue, yellow, black; "front rack" covers items 0 and 1.
# Each case: salesperson act, customer act, then the expected color candidates,
# items, whether color joins elicited_attrs, last_guess and outcome.
APPLY_CASES = {
    "answer": ("ASK_PREFERENCE", "ANSWER_PREFERENCE", {"concept_id": "warm_color"},
               {"red", "yellow"}, {0, 2}, True, None, None),
    "negate": ("EXCLUDE_PREFERENCE", "NEGATE_PREFERENCE", {"concept_id": "cold_color"},
               {"red", "yellow", "black"}, {0, 2, 3}, True, None, None),
    "prompt-accept": ("PROMPT_PREFERENCE", "RESPOND_PROMPT",
                      {"concept_id": "warm_color", "accept": True},
                      {"red", "yellow"}, {0, 2}, True, None, None),
    "prompt-reject": ("PROMPT_PREFERENCE", "RESPOND_PROMPT",
                      {"concept_id": "warm_color", "accept": False},
                      {"blue", "black"}, {1, 3}, True, None, None),
    "guess-accept": ("GUESS_ATTRIBUTE_VALUE", "RESPOND_ATTRIBUTE_VALUE",
                     {"value": "red", "accept": True}, {"red"}, {0}, False, None, None),
    "revise-reject": ("REVISE_ATTRIBUTE_VALUE", "RESPOND_ATTRIBUTE_VALUE",
                      {"value": "red", "accept": False},
                      {"blue", "yellow", "black"}, {1, 2, 3}, False, ("color", "red"), None),
    "choose": ("DISPLAY_CANDIDATE_VALUES", "CHOOSE_ATTRIBUTE_VALUE", {"value": "yellow"},
               {"yellow"}, {2}, False, None, None),
    "region-accept": ("REFER_REGION", "JUDGE_REGION", {"accept": True},
                      None, {0, 1}, False, None, None),
    "region-reject": ("REFER_REGION", "JUDGE_REGION", {"accept": False},
                      None, {2, 3}, False, None, None),
    "recommend-accept": ("RECOMMEND_ITEM", "RESPOND_RECOMMENDATION", {"accept": True},
                         None, {0, 1, 2, 3}, False, None, "success"),
    "recommend-reject": ("RECOMMEND_ITEM", "RESPOND_RECOMMENDATION", {"accept": False},
                         None, {0, 1, 3}, False, None, None),
}


@pytest.mark.parametrize("case", APPLY_CASES.values(), ids=APPLY_CASES.keys())
def test_apply_turn_narrows_per_act(ontology, case):
    s_name, c_name, c_slots, colors, items, elicits, last_guess, outcome = case
    from shopdialog.catalog import BackgroundItem

    region = BackgroundItem("front rack", (0.0, 0.0, 40.0, 50.0))
    scene = make_scene(["red", "blue", "yellow", "black"], regions=[region])
    state = new_session(scene)._replace(elicited_attrs=frozenset({"size"}),
                                        last_guess=("size", "M"))
    if s_name == "REFER_REGION":
        s_slots = c_slots = {"region_label": "front rack", **c_slots}
    elif s_name == "RECOMMEND_ITEM":
        s_slots = {"object_id": 2}
    else:
        s_slots = {"attribute": "color", **{k: v for k, v in c_slots.items() if k != "accept"}}
        c_slots = {"attribute": "color", **c_slots}
    nxt = apply_turn(state, (s_name, s_slots), (c_name, c_slots), ontology)
    expected_values = {a: set(vs) for a, vs in state.candidate_values.items()}
    if colors is not None:
        expected_values["color"] = colors
    assert list(nxt.candidate_values) == list(state.candidate_values)
    assert {a: set(vs) for a, vs in nxt.candidate_values.items()} == expected_values
    assert nxt.candidate_items == items
    assert nxt.elicited_attrs == ({"size", "color"} if elicits else {"size"})
    assert nxt.last_guess == last_guess
    assert nxt.outcome == outcome
    assert nxt.round == state.round + 1


def test_apply_universe_intersection_is_identity(ontology):
    # A concept covering every scene color must leave the state unchanged.
    scene = make_scene(["red", "yellow"])
    state = new_session(scene)
    s_act = ("ASK_PREFERENCE", {"attribute": "color"})
    c_act = ("ANSWER_PREFERENCE", {"attribute": "color", "concept_id": "warm_color"})
    nxt = apply_turn(state, s_act, c_act, ontology)
    assert nxt.candidate_values["color"] == state.candidate_values["color"]
    assert nxt.candidate_items == state.candidate_items


def test_apply_region_no_subtracts(ontology):
    from shopdialog.catalog import BackgroundItem

    region = BackgroundItem("front rack", (0.0, 0.0, 40.0, 50.0))  # covers items 0 and 1
    scene = make_scene(["red", "blue", "yellow"], regions=[region])
    state = new_session(scene)
    s_act = ("REFER_REGION", {"region_label": "front rack"})
    c_act = ("JUDGE_REGION", {"region_label": "front rack", "accept": False})
    nxt = apply_turn(state, s_act, c_act, ontology)
    assert nxt.candidate_items == {2}


def test_apply_rejects_bad_pair(ontology):
    scene = make_scene(["red"])
    state = new_session(scene)
    with pytest.raises(ValueError):
        apply_turn(
            state,
            ("ASK_PREFERENCE", {"attribute": "color"}),
            ("JUDGE_REGION", {"region_label": "x", "accept": True}),
            ontology,
        )


def test_apply_inconsistent_state_detected(ontology):
    scene = make_scene(["red", "yellow"])
    state = new_session(scene)
    # Untruthful answers: no scene color is mysterious, and blue is no candidate,
    # so the color candidates would empty.
    for s_act, c_act in (
        (("ASK_PREFERENCE", {"attribute": "color"}),
         ("ANSWER_PREFERENCE", {"attribute": "color", "concept_id": "mysterious_color"})),
        (("DISPLAY_CANDIDATE_VALUES", {"attribute": "color", "values": ["red", "yellow"]}),
         ("CHOOSE_ATTRIBUTE_VALUE", {"attribute": "color", "value": "blue"})),
    ):
        with pytest.raises(ValidationError, match="candidate values of color emptied"):
            apply_turn(state, s_act, c_act, ontology)


def test_single_item_scene_succeeds_round_one(ontology, policy):
    flow = run_dialog(make_scene(["red"]), ontology, policy, random.Random(5))
    assert flow.outcome == "success"
    assert list(positioned(flow))[-1][0] == 1
    assert flow.turns[0]["act"] == "RECOMMEND_ITEM"


def test_run_dialog_deterministic(scenes, ontology, policy):
    a = run_dialog(scenes[0], ontology, policy, random.Random(99))
    b = run_dialog(scenes[0], ontology, policy, random.Random(99))
    assert json.dumps(flow_to_dict(a)) == json.dumps(flow_to_dict(b))


@pytest.fixture(scope="module")
def small_corpus(scenes, ontology, policy):
    return list(generate_corpus(scenes, ontology, policy, 300, base_seed=7))


def flow_scene(scenes, flow):
    return next(s for s in scenes if s.scene_id == flow.scene_id)


def test_corpus_pairing(small_corpus):
    """Each round has a salesperson turn, which stores its act, and a customer turn, which stores
    none: its act is the answer `ACT_PAIRS` gives."""
    for flow in small_corpus:
        sales = [(rnd, t) for rnd, speaker, t in positioned(flow) if speaker == "salesperson"]
        custs = [(rnd, t) for rnd, speaker, t in positioned(flow) if speaker == "customer"]
        assert len(sales) == len(custs)
        for (s_round, s), (c_round, c) in zip(sales, custs):
            assert s_round == c_round
            assert s["act"] in ACT_PAIRS and "act" not in c


def test_corpus_target_retention_and_monotonicity(small_corpus, scenes_by_id, ontology):
    # Each turn's candidate count is the size of the item set that replay rebuilds, and that set
    # keeps the target.
    for flow in small_corpus:
        prev = None
        replay = replayed(flow, scenes_by_id[flow.scene_id], ontology)
        for (_, speaker, _), (turn, state), count in zip(positioned(flow), replay, turn_counts(flow)):
            assert flow.target_object_id in state.candidate_items
            assert count == len(state.candidate_items)
            if speaker == "customer":
                if prev is not None:
                    assert count <= prev
                prev = count


def test_corpus_guard_conformance(small_corpus, policy):
    for flow in small_corpus:
        elicited_round: dict[int, bool] = {}
        elicited = False
        for rnd, speaker, turn in positioned(full_flow(flow)):
            if speaker == "customer":
                if turn["act"] in ("ANSWER_PREFERENCE", "NEGATE_PREFERENCE", "RESPOND_PROMPT"):
                    elicited = True
                elicited_round[rnd] = elicited
        prev_reject: dict[int, bool] = {}
        for rnd, speaker, turn in positioned(full_flow(flow)):
            if speaker == "customer" and turn["act"] == "RESPOND_ATTRIBUTE_VALUE":
                prev_reject[rnd + 1] = not turn["slots"]["accept"]
        for (rnd, speaker, turn), count in zip(positioned(flow), turn_counts(flow)):
            if speaker != "salesperson":
                continue
            before = elicited_round.get(rnd - 1, False)
            if turn["act"] in ("GUESS_ATTRIBUTE_VALUE", "DISPLAY_CANDIDATE_VALUES"):
                assert before, f"{flow.dialog_id} r{rnd}: {turn['act']} before any preference"
            if turn["act"] == "DISPLAY_CANDIDATE_VALUES":
                assert policy.display_min <= len(turn["slots"]["values"]) <= policy.display_max
            if turn["act"] == "RECOMMEND_ITEM":
                assert count <= policy.recommend_max
            if turn["act"] == "REVISE_ATTRIBUTE_VALUE":
                assert prev_reject.get(rnd), "REVISE without fresh rejection"


def test_corpus_recommend_guard_is_true_guard(small_corpus, policy):
    # A salesperson turn's candidate count is the pre-act items it acted on.
    for flow in small_corpus:
        for (_, speaker, turn), count in zip(positioned(flow), turn_counts(flow)):
            if speaker == "salesperson" and turn["act"] == "RECOMMEND_ITEM":
                assert count <= policy.recommend_max


def test_corpus_termination(small_corpus):
    success = sum(1 for f in small_corpus if f.outcome == "success")
    assert success / len(small_corpus) >= 0.99
    assert all(f.outcome in ("success", "max_rounds") for f in small_corpus)


def consistent_items(candidate_values: dict[str, set[str]], scene: Scene) -> set[int]:
    """Items whose every attribute value lies in the corresponding candidate set."""
    return {
        it.object_id
        for it in scene.items
        if all(it.attributes[a] in vals for a, vals in candidate_values.items())
    }


def test_consistent_items_full_universe(scenes):
    scene = scenes[0]
    universe = {a: set() for a in scene.items[0].attributes}
    for item in scene.items:
        for attr, value in item.attributes.items():
            universe[attr].add(value)
    assert consistent_items(universe, scene) == {it.object_id for it in scene.items}


def test_consistent_items_color_filter(scenes):
    scene = scenes[0]
    universe = {a: {it.attributes[a] for it in scene.items} for a in scene.items[0].attributes}
    universe["color"] = {"red"}
    expected = {it.object_id for it in scene.items if it.attributes["color"] == "red"}
    assert consistent_items(universe, scene) == expected


def test_corpus_state_formula(small_corpus, scenes, ontology, policy):
    # Replay each flow through apply_turn and check the candidate-item formula:
    # items consistent with the candidate values, inside every accepted region,
    # outside every rejected region, minus every rejected recommendation.
    # The replayed candidate values keep the target's value of every attribute.
    for flow in small_corpus[:50]:
        scene = flow_scene(scenes, flow)
        target = scene.items_by_id[flow.target_object_id]
        state = new_session(scene)
        judged = {it.object_id for it in scene.items}
        sales = [t for _, speaker, t in positioned(full_flow(flow)) if speaker == "salesperson"]
        custs = [t for _, speaker, t in positioned(full_flow(flow)) if speaker == "customer"]
        for s, c, count in zip(sales, custs, flow.candidate_counts[1:]):
            state = apply_turn(
                state, (s["act"], s["slots"]), (c["act"], c["slots"]), ontology
            )
            if c["act"] == "JUDGE_REGION":
                region = scene.region_items[s["slots"]["region_label"]]
                judged = judged & region if c["slots"]["accept"] else judged - region
            elif c["act"] == "RESPOND_RECOMMENDATION" and not c["slots"]["accept"]:
                judged.discard(s["slots"]["object_id"])
            for attr, value in target.attributes.items():
                assert value in state.candidate_values[attr], (flow.dialog_id, state.round, attr)
            expected = consistent_items(state.candidate_values, scene) & judged
            assert state.candidate_items == expected
            assert count == len(state.candidate_items)


def test_generate_corpus_deterministic_and_seeded_per_session(scenes, ontology, policy):
    first = [flow_to_dict(f) for f in generate_corpus(scenes, ontology, policy, 20, base_seed=3)]
    again = [flow_to_dict(f) for f in generate_corpus(scenes, ontology, policy, 20, base_seed=3)]
    assert first == again
    shifted = [flow_to_dict(f) for f in generate_corpus(scenes, ontology, policy, 20, base_seed=4)]
    assert first != shifted


def test_elicit_acts_are_the_three_preference_acts():
    assert set(ELICIT_ACTS) == {"ASK_PREFERENCE", "EXCLUDE_PREFERENCE", "PROMPT_PREFERENCE"}


def test_distinct_seeds_give_independent_corpora(scenes, ontology, policy):
    # Dialog bodies (everything but dialog_id) shared between two corpora.
    def bodies(seed):
        out = set()
        for f in generate_corpus(scenes, ontology, policy, 300, base_seed=seed):
            record = flow_to_dict(f)
            del record["dialog_id"]
            out.add(json.dumps(record, sort_keys=True))
        return out

    base = bodies(0)
    for other in (1, 300):
        assert len(base & bodies(other)) <= 3, other  # at most 1% of n


def test_concepts_for_value_is_reached_once_per_answer(monkeypatch, scenes, ontology, policy):
    """A wrapper set on `ontology.concepts_for_value`, as the benchmark's tracer sets one,
    sees one call per ANSWER_PREFERENCE turn."""
    from shopdialog import ontology as ontology_module

    calls = []
    real = ontology_module.concepts_for_value
    monkeypatch.setattr(ontology_module, "concepts_for_value",
                        lambda *args: calls.append(args) or real(*args))
    flows = list(generate_corpus(scenes, ontology, policy, 40, base_seed=2))
    answers = sum(t["act"] == "ASK_PREFERENCE" for f in flows for t in f.turns[::2])  # each answered
    assert answers > 0
    assert len(calls) == answers


# The fallback paths of `run_dialog`, which the fixture pack never reaches: each test builds its
# own scene, ontology and policy, and every flow it simulates must pass `check_flow`.

def broad_ontology(scene, narrow=()):
    """One concept per attribute, holding every value the scene's items have, so no customer can
    name a concept that excludes the target; an attribute in `narrow` has one concept per value."""
    from shopdialog.ontology import ontology_from_blocks

    return ontology_from_blocks([
        {"attribute": attr, "value_space": sorted(values),
         "concepts": [{"concept_id": f"{attr}_{v}", "values": [v], "surface_forms": [f"{attr} {v}"]}
                      for v in sorted(values)] if attr in narrow else
                     [{"concept_id": f"any_{attr}", "values": sorted(values), "surface_forms": [f"any {attr}"]}]}
        for attr, values in scene.value_universe.items()
    ])


def one_act_policy(act, **thresholds):
    """A policy whose every row gives `act` all the weight."""
    from shopdialog.engine import policy_from_dict

    return policy_from_dict({"rounds": [{a: float(a == act) for a in SALESPERSON_ACTS}], **thresholds})


def check_flows(flows, scene, ont):
    from shopdialog.engine import check_flow

    for i, flow in enumerate(flows):
        assert check_flow(f"test:{i}", flow, {scene.scene_id: scene}, ont) is scene


def test_run_dialog_retries_an_act_without_a_truthful_answer(monkeypatch):
    """Every concept covers the target, so an EXCLUDE_PREFERENCE has no truthful answer: the
    customer raises NoTruthfulConcept and the salesperson draws another act instead."""
    from shopdialog import engine
    from shopdialog.errors import NoTruthfulConcept

    scene = make_scene(["red", "blue", "yellow", "green"])
    ont = broad_ontology(scene)
    cfg = one_act_policy("EXCLUDE_PREFERENCE", max_rounds=4)
    retries = []
    real = engine.customer_step

    def counting(*args):  # (state, goal, s_act, ont, rng)
        try:
            return real(*args)
        except NoTruthfulConcept:
            retries.append(args[2][0])
            raise

    monkeypatch.setattr(engine, "customer_step", counting)
    flows = [run_dialog(scene, ont, cfg, random.Random(seed)) for seed in range(5)]
    assert retries and set(retries) == {"EXCLUDE_PREFERENCE"}
    acts = {t["act"] for f in flows for t in full_flow(f).turns}
    assert "EXCLUDE_PREFERENCE" not in acts and "NEGATE_PREFERENCE" not in acts
    check_flows(flows, scene, ont)


def test_run_dialog_forces_a_recommendation_when_no_act_is_eligible():
    """Every attribute has one value, there are more items than `recommend_max` and no region,
    so no act passes its guard and `eligible_acts` forces RECOMMEND_ITEM."""
    scene = make_scene(["red"] * 8)
    ont = broad_ontology(scene)
    cfg = one_act_policy("ASK_PREFERENCE", recommend_max=5)
    assert eligible_acts(new_session(scene), cfg) == {"RECOMMEND_ITEM"}
    flows = [run_dialog(scene, ont, cfg, random.Random(seed)) for seed in range(5)]
    forced = [t for f in flows for t, count in zip(f.turns[::2], f.candidate_counts)
              if count > cfg.recommend_max]
    assert forced and {t["act"] for t in forced} == {"RECOMMEND_ITEM"}
    check_flows(flows, scene, ont)


def test_run_dialog_stops_at_max_rounds():
    """With `max_rounds` 1 and no weight on RECOMMEND_ITEM in round 1, a dialog ends after one
    round without a recommendation, with outcome "max_rounds"."""
    scene = make_scene(["red", "blue", "yellow"])
    ont = broad_ontology(scene)
    cfg = one_act_policy("ASK_PREFERENCE", max_rounds=1)
    assert cfg.row_for_round(1)["RECOMMEND_ITEM"] == 0
    flows = [run_dialog(scene, ont, cfg, random.Random(seed)) for seed in range(5)]
    assert {f.outcome for f in flows} == {"max_rounds"}
    assert {len(f.turns) for f in flows} == {2}
    check_flows(flows, scene, ont)


def test_a_negation_about_another_attribute_keeps_its_own_attribute(tmp_path):
    """Every color concept covers the target, so an EXCLUDE_PREFERENCE about color, the most
    ambiguous attribute, has no truthful dislike there and the customer negates a size instead.
    The written NEGATE_PREFERENCE keeps its own `attribute`, which it does not echo, and read back,
    checked and replayed through `apply_turn` it narrows the sizes, not the asked colors."""
    from shopdialog.engine import check_flow, read_flows, write_flows

    items = tuple(Item(i, (30.0 * i, 0.0, 10.0, 10.0), {**FASHION_ATTRS, "color": c, "size": s})
                  for i, (c, s) in enumerate(zip(["red", "blue", "yellow", "green"], "MMSM")))
    scene = Scene("toy", "fashion", items, ())
    ont = broad_ontology(scene, narrow={"size"})
    cfg = one_act_policy("EXCLUDE_PREFERENCE", max_rounds=1)
    flows = [run_dialog(scene, ont, cfg, random.Random(seed), f"d{seed:05d}") for seed in range(6)]
    assert {flow.target_object_id for flow in flows} >= {2, 3}  # an S target and an M one
    write_flows(flows, tmp_path / "flows.jsonl")
    for where, flow in read_flows(tmp_path / "flows.jsonl"):
        ask, negate = flow.turns
        assert ask == {"act": "EXCLUDE_PREFERENCE", "slots": {"attribute": "color"}}
        assert "act" not in negate  # NEGATE_PREFERENCE, the answer to EXCLUDE_PREFERENCE
        assert list(negate["slots"]) == ["attribute", "concept_id"] and negate["slots"]["attribute"] == "size"
        check_flow(where, flow, {scene.scene_id: scene}, ont)
        state = [state for _, state in replayed(flow, scene, ont)][-1]
        assert state.candidate_values["color"] == scene.value_universe["color"]
        assert len(state.candidate_values["size"]) == 1 < len(scene.value_universe["size"])
        assert state.elicited_attrs == {"size"}
