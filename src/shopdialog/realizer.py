"""Template-based surface realization of dialog flows.

Stands in for the human paraphrase pass at desk scale: deterministic given a
seed, and slot-preserving by construction.  Concept slots are rendered
through a surface form from the ontology lexicon (so the phrase resolves
back to the annotated concept); values, region labels and item references
are rendered verbatim.  Recommendation turns embed the item id as an
"<@id>" token, which the recommendation metric extracts by regex.

Template files are UTF-8 JSON mapping an act key to a list of template
strings.  Keys and placeholders derive from `acts.ACT_SLOTS`: an act that
carries an accept slot has the keys "RESPOND_PROMPT.accept" / "RESPOND_PROMPT.reject",
and likewise for RESPOND_ATTRIBUTE_VALUE, JUDGE_REGION and RESPOND_RECOMMENDATION.
A customer turn renders the act and slots it reads from the turn it answers (`engine.full_turns`).
`realize_corpus` checks each flow with `engine.check_flow` before it renders any of its turns.
"""

from __future__ import annotations

import random
import string
from typing import Iterable, Iterator

from .acts import ACT_SLOTS
from .catalog import Scene
from .engine import DialogFlow, check_flow, full_turns, session_seed
from .errors import ValidationError
from .jsonio import read_json_with, string_list
from .ontology import Ontology

# The placeholders each slot fills.
_PLACEHOLDERS = {"attribute": {"attr"}, "concept_id": {"preference_phrase"}, "value": {"value"},
                 "values": {"values_list"}, "region_label": {"region_label"},
                 "object_id": {"object_id", "item_description"}, "accept": set()}
# Every act key a template file must give, with the placeholders its templates may use: an
# act that carries `accept` has an ".accept" and a ".reject" key.
_ALLOWED_PLACEHOLDERS = {
    key: set().union(*(_PLACEHOLDERS[slot] for slot in slots))
    for act, slots in ACT_SLOTS.items()
    for key in ((f"{act}.accept", f"{act}.reject") if "accept" in slots else (act,))
}
REQUIRED_KEYS = tuple(_ALLOWED_PLACEHOLDERS)
Templates = dict[str, tuple[str, ...]]  # act key -> its templates


def templates_from_dict(raw: dict) -> Templates:
    if not isinstance(raw, dict):
        raise ValidationError("templates: must map act keys to lists of templates")
    extra = set(raw) - set(REQUIRED_KEYS)
    if extra:
        raise ValidationError(f"templates: unknown act keys {sorted(extra)}")
    missing = set(REQUIRED_KEYS) - set(raw)
    if missing:
        raise ValidationError(f"templates: missing act keys {sorted(missing)}")
    by_key: Templates = {}
    for key, templates in raw.items():
        string_list(templates, f"templates: {key!r}")
        if not templates:
            raise ValidationError(f"templates: {key!r} needs at least one template")
        for tpl in templates:
            fields = [f[1:] for f in string.Formatter().parse(tpl) if f[1] is not None]
            bad = {name for name, _, _ in fields} - _ALLOWED_PLACEHOLDERS[key]
            if bad:
                raise ValidationError(f"templates: {key!r} has unfillable placeholders {sorted(bad)}")
            for name, spec, conv in fields:  # a placeholder is a bare name: "{attr}"
                if spec or conv:
                    field = "{" + name + (f"!{conv}" if conv else "") + (f":{spec}" if spec else "") + "}"
                    raise ValidationError(f"templates: {key!r} has a format spec or conversion: {field!r}")
        by_key[key] = tuple(templates)
    return by_key


def load_templates(path) -> Templates:
    return read_json_with(path, templates_from_dict)


def _values_list(values: list[str]) -> str:
    if len(values) == 1:
        return values[0]
    return ", ".join(values[:-1]) + " and " + values[-1]


def item_description(scene: Scene, object_id: int) -> str:
    """Color + type, anchored to the first region covering the item's center."""
    attrs = scene.items_by_id[object_id].attributes
    base = f"{attrs['color']} {attrs['type']}"
    for label, ids in scene.region_items.items():
        if object_id in ids:
            return f"{base} on the {label}"
    return base


def realize_turn(
    act: str, slots: dict, templates: Templates, ont: Ontology, scene: Scene, rng: random.Random
) -> str:
    """Render one turn that `check_flow` passed from its act and full slots (`full_turns`), those its
    act carries; concept slots keep a surface form."""
    carried = ACT_SLOTS[act]
    key = f"{act}.{'accept' if slots['accept'] else 'reject'}" if "accept" in carried else act
    pool = templates.get(key)
    if pool is None:
        raise ValidationError(f"no templates for act key {key!r}")
    template = rng.choice(pool)
    fills: dict[str, str] = {}
    if "attribute" in carried:
        fills["attr"] = slots["attribute"].replace("_", " ")
    if "concept_id" in carried:
        forms = ont.concept(slots["concept_id"]).surface_forms
        fills["preference_phrase"] = rng.choice(forms)
    if "value" in carried:
        fills["value"] = slots["value"]
    if "values" in carried:
        fills["values_list"] = _values_list(slots["values"])
    if "region_label" in carried:
        fills["region_label"] = slots["region_label"]
    if "object_id" in carried:
        fills["object_id"] = str(slots["object_id"])
        fills["item_description"] = item_description(scene, slots["object_id"])
    return template.format(**fills)


def realize_dialog(
    flow: DialogFlow, templates: Templates, ont: Ontology, scene: Scene, seed: int | str
) -> DialogFlow:
    """Fill every turn's utterance; acts, slots and candidate counts untouched. The flow must
    have passed `check_flow`."""
    rng = random.Random(seed)
    return flow._replace(turns=[{**t, "utterance": realize_turn(act, slots, templates, ont, scene, rng)}
                                for t, (act, slots) in zip(flow.turns, full_turns(flow.turns))])


def realize_corpus(
    flows: Iterable[tuple[str, DialogFlow]],
    templates: Templates,
    ont: Ontology,
    scenes: dict[str, Scene],
    base_seed: int,
) -> Iterator[DialogFlow]:
    """Realize the (where, flow) pairs `read_flows` yields, in order, each once `check_flow`
    passed it against `scenes`, by scene_id; dialog i is seeded from (base_seed, i)."""
    for i, (where, flow) in enumerate(flows):
        scene = check_flow(where, flow, scenes, ont)
        yield realize_dialog(flow, templates, ont, scene, session_seed(base_seed, "realize", i))
