import random

import pytest

from shopdialog.engine import (
    DialogFlow,
    flow_to_dict,
    generate_corpus,
)
from shopdialog.errors import ValidationError
from shopdialog.realizer import (
    item_description,
    realize_corpus,
    realize_dialog,
    realize_turn,
    templates_from_dict,
)
from tests.conftest import full_flow, resolve_surface

CONCEPT_ACTS = ("ANSWER_PREFERENCE", "NEGATE_PREFERENCE", "PROMPT_PREFERENCE",
                "RESPOND_PROMPT")


def concept_turn(concept_id="warm_color"):
    """The act and full slots of an answer to an ASK_PREFERENCE about color: `engine.check_flow`
    joins the act and `attribute` from the turn it answers."""
    return "ANSWER_PREFERENCE", {"attribute": "color", "concept_id": concept_id}


def test_answer_contains_surface_form(templates, ontology, scenes):
    utterance = realize_turn(*concept_turn(), templates, ontology, scenes[0], random.Random(1))
    forms = ontology.concept("warm_color").surface_forms
    assert any(form in utterance for form in forms)


def test_recommend_mentions_region_and_token(templates, ontology, scenes):
    f01 = next(s for s in scenes if s.scene_id == "f01")
    shelf_item = sorted({12, 13, 16, 22, 31})[0]
    utterance = realize_turn("RECOMMEND_ITEM", {"object_id": shelf_item}, templates, ontology, f01,
                             random.Random(0))
    assert "far right shelf" in utterance
    assert f"<@{shelf_item}>" in utterance


def test_item_description_without_region(templates, ontology, scenes):
    # u03 ships without labeled regions; the description degrades gracefully.
    u03 = next(s for s in scenes if s.scene_id == "u03")
    item = u03.items[0]
    desc = item_description(u03, item.object_id)
    assert item.attributes["color"] in desc
    assert item.attributes["type"] in desc
    assert " on the " not in desc


def test_fixed_seed_is_deterministic(templates, ontology, scenes):
    turn = concept_turn()
    a = realize_turn(*turn, templates, ontology, scenes[0], random.Random(42))
    b = realize_turn(*turn, templates, ontology, scenes[0], random.Random(42))
    assert a == b


def test_empty_flow_unchanged(templates, ontology, scenes):
    flow = DialogFlow("d0", scenes[0].scene_id, 0, "success", [len(scenes[0].items)], [])
    realized = realize_dialog(flow, [], templates, ontology, scenes[0], seed=1)
    assert flow_to_dict(realized) == flow_to_dict(flow)


def test_missing_template_raises(templates, ontology, scenes):
    broken = dict(templates)
    del broken["ANSWER_PREFERENCE"]
    with pytest.raises(ValidationError, match="no templates for act key 'ANSWER_PREFERENCE'"):
        realize_turn(*concept_turn(), broken, ontology, scenes[0], random.Random(0))


def test_template_validation_rejects_unknown_placeholder():
    from shopdialog.realizer import REQUIRED_KEYS

    raw = {k: ["hello"] for k in REQUIRED_KEYS}
    raw["ASK_PREFERENCE"] = ["tell me about {banana}"]
    with pytest.raises(ValidationError):
        templates_from_dict(raw)


@pytest.mark.parametrize("template, field", [
    ("What {attr:d} do you like?", "{attr:d}"),
    ("What {attr!r} do you like?", "{attr!r}"),
    ("What {attr!s:>9} do you like?", "{attr!s:>9}"),
    ("What {attr:{attr}} do you like?", "{attr:{attr}}"),
])
def test_template_validation_rejects_format_spec_or_conversion(template, field):
    """A placeholder is a bare name: a spec or conversion could fail or quote at render time."""
    from shopdialog.realizer import REQUIRED_KEYS

    raw = {k: ["hello"] for k in REQUIRED_KEYS}
    raw["ASK_PREFERENCE"] = [template]
    message = f"templates: 'ASK_PREFERENCE' has a format spec or conversion: '{field}'"
    with pytest.raises(ValidationError) as exc:
        templates_from_dict(raw)
    assert str(exc.value) == message


def test_template_validation_requires_all_acts():
    with pytest.raises(ValidationError):
        templates_from_dict({"ASK_PREFERENCE": ["hi"]})


@pytest.fixture(scope="module")
def realized_fixture(scenes, scenes_by_id, ontology, policy, templates):
    flows = list(generate_corpus(scenes, ontology, policy, 60, base_seed=5))
    realized = list(realize_corpus(enumerate(flows, 1), templates, ontology, scenes_by_id, base_seed=5))
    return flows, realized


def test_annotations_untouched(realized_fixture):
    flows, realized = realized_fixture
    for flow, real in zip(flows, realized):
        assert flow.dialog_id == real.dialog_id
        for turn, rturn in zip(flow.turns, real.turns):
            original = dict(turn)
            rendered = dict(rturn)
            rendered.pop("utterance")
            assert original == rendered
            assert rturn["utterance"]


def test_slot_values_recoverable_by_substring(realized_fixture):
    _, realized = realized_fixture
    for flow in realized:
        for turn in full_flow(flow).turns:
            slots = turn["slots"]
            if "value" in slots:
                assert slots["value"] in turn["utterance"]
            if "values" in slots:
                for value in slots["values"]:
                    assert value in turn["utterance"]
            if "region_label" in slots:
                assert slots["region_label"] in turn["utterance"]


def test_surface_forms_resolve_back(realized_fixture, ontology):
    _, realized = realized_fixture
    checked = 0
    for flow in realized:
        for turn in full_flow(flow).turns:
            if turn["act"] not in CONCEPT_ACTS:
                continue
            concept = ontology.concept(turn["slots"]["concept_id"])
            present = [f for f in concept.surface_forms if f in turn["utterance"]]
            assert present, f"{turn['act']}: no surface form in {turn['utterance']!r}"
            assert all(resolve_surface(ontology, f) == concept.concept_id for f in present)
            checked += 1
    assert checked > 50


def test_recommend_turns_have_exactly_one_token(realized_fixture):
    import re

    _, realized = realized_fixture
    for flow in realized:
        for turn in flow.turns[::2]:  # the salesperson turns
            if turn["act"] == "RECOMMEND_ITEM":
                tokens = re.findall(r"<@(\d+)>", turn["utterance"])
                assert len(tokens) == 1
                assert int(tokens[0]) == turn["slots"]["object_id"]


def test_realized_corpus_round_trips_jsonl(realized_fixture, tmp_path):
    from shopdialog.engine import read_flows, write_flows

    _, realized = realized_fixture
    path = tmp_path / "realized.jsonl"
    write_flows(realized, path)
    where, reloaded = zip(*read_flows(path))
    assert where == tuple(f"{path}:{i}" for i in range(1, len(realized) + 1))
    assert [flow_to_dict(f) for f in reloaded] == [flow_to_dict(f) for f in realized]
    # utterances survive the round trip
    assert all(t["utterance"] for f in reloaded for t in f.turns)
