"""Template-based surface realization of dialog flows.

Stands in for the human paraphrase pass at desk scale: deterministic given a
seed, and slot-preserving by construction.  Concept slots are rendered
through a surface form from the ontology lexicon (so the phrase resolves
back to the annotated concept); values, region labels and item references
are rendered verbatim.  Recommendation turns embed the item id as an
"<@id>" token, which the recommendation metric extracts by regex.

Template files are UTF-8 JSON mapping an act key to a list of template
strings.  Acts whose turn carries an accept slot use variant keys:
"RESPOND_PROMPT.accept" / "RESPOND_PROMPT.reject", and likewise for
RESPOND_ATTRIBUTE_VALUE, JUDGE_REGION and RESPOND_RECOMMENDATION.
"""

from __future__ import annotations

import random
import string
from typing import Iterable, Iterator

from .catalog import Scene, SceneIndex
from .engine import DialogFlow, text_slot
from .errors import DialogError, ShopDialogError, ValidationError
from .jsonio import read_json_with, string_list
from .ontology import Ontology
from .parallel import parallel_map, session_seed

# Every act key a template file must give, with the placeholders its templates
# may use (all are filled from the turn's slots).
_ALLOWED_PLACEHOLDERS = {
    "ASK_PREFERENCE": {"attr"},
    "EXCLUDE_PREFERENCE": {"attr"},
    "PROMPT_PREFERENCE": {"attr", "preference_phrase"},
    "GUESS_ATTRIBUTE_VALUE": {"attr", "value"},
    "REVISE_ATTRIBUTE_VALUE": {"attr", "value"},
    "DISPLAY_CANDIDATE_VALUES": {"attr", "values_list"},
    "REFER_REGION": {"region_label"},
    "RECOMMEND_ITEM": {"item_description", "object_id"},
    "ANSWER_PREFERENCE": {"attr", "preference_phrase"},
    "NEGATE_PREFERENCE": {"attr", "preference_phrase"},
    "RESPOND_PROMPT.accept": {"attr", "preference_phrase"},
    "RESPOND_PROMPT.reject": {"attr", "preference_phrase"},
    "RESPOND_ATTRIBUTE_VALUE.accept": {"attr", "value"},
    "RESPOND_ATTRIBUTE_VALUE.reject": {"attr", "value"},
    "CHOOSE_ATTRIBUTE_VALUE": {"attr", "value"},
    "JUDGE_REGION.accept": {"region_label"},
    "JUDGE_REGION.reject": {"region_label"},
    "RESPOND_RECOMMENDATION.accept": set(),
    "RESPOND_RECOMMENDATION.reject": set(),
}
REQUIRED_KEYS = tuple(_ALLOWED_PLACEHOLDERS)
Templates = dict[str, tuple[str, ...]]  # act key -> its templates
# The slot each placeholder is filled from.
_SLOT_OF = {"attr": "attribute", "preference_phrase": "concept_id", "value": "value",
            "values_list": "values", "region_label": "region_label", "object_id": "object_id",
            "item_description": "object_id"}


def _placeholders(template: str) -> set[str]:
    return {f[1] for f in string.Formatter().parse(template) if f[1] is not None}


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
            bad = _placeholders(tpl) - _ALLOWED_PLACEHOLDERS[key]
            if bad:
                raise ValidationError(f"templates: {key!r} has unfillable placeholders {sorted(bad)}")
        by_key[key] = tuple(templates)
    return by_key


def load_templates(path) -> Templates:
    return read_json_with(path, templates_from_dict)


def _attr_display(attr: str) -> str:
    return attr.replace("_", " ")


def _values_list(values: list[str]) -> str:
    if len(values) == 1:
        return values[0]
    return ", ".join(values[:-1]) + " and " + values[-1]


def item_description(scene: Scene, object_id: int) -> str:
    """Color + type, anchored to the first region covering the item's center."""
    item = scene.items_by_id.get(object_id) if type(object_id) is int else None
    if item is None:
        raise ValidationError(f"unknown object_id {object_id!r}: not in scene {scene.scene_id!r}")
    attrs = item.attributes
    base = f"{attrs['color']} {attrs['type']}"
    for label, ids in scene.region_items.items():
        if object_id in ids:
            return f"{base} on the {label}"
    return base


def _template_key(turn: dict) -> str:
    if "accept" in turn["slots"]:
        return f"{turn['act']}.{'accept' if turn['slots']['accept'] else 'reject'}"
    return turn["act"]


def realize_turn(
    turn: dict, templates: Templates, ont: Ontology, scene: Scene, rng: random.Random
) -> str:
    """Render one turn; concept slots keep a registered surface form."""
    key = _template_key(turn)
    pool = templates.get(key)
    if pool is None:
        raise ValidationError(f"no templates for act key {key!r}")
    template = pool[rng.randrange(len(pool))]
    slots = turn["slots"]
    fills: dict[str, str] = {}
    if "attribute" in slots:
        fills["attr"] = _attr_display(text_slot(turn, "attribute"))
    if "concept_id" in slots:
        forms = ont.concept(text_slot(turn, "concept_id")).surface_forms
        fills["preference_phrase"] = forms[rng.randrange(len(forms))]
    if "value" in slots:
        fills["value"] = text_slot(turn, "value")
    if "values" in slots:
        if not string_list(slots["values"], "slot 'values'"):
            raise ValidationError("slot 'values' must not be empty")
        fills["values_list"] = _values_list(slots["values"])
    if "region_label" in slots:
        fills["region_label"] = text_slot(turn, "region_label")
    if "object_id" in slots:
        fills["object_id"] = str(slots["object_id"])
        fills["item_description"] = item_description(scene, slots["object_id"])
    try:
        return template.format(**fills)
    except KeyError as exc:  # the template needs a slot the turn lacks
        raise ValidationError(f"missing slot {_SLOT_OF[exc.args[0]]!r}") from None


def realize_dialog(
    flow: DialogFlow, templates: Templates, ont: Ontology, scene: Scene, seed: int | str
) -> DialogFlow:
    """Fill every turn's utterance; acts, slots and candidate items untouched.
    A turn that cannot be rendered raises DialogError naming it."""
    rng = random.Random(seed)
    turns = []
    for t in flow.turns:
        try:
            turns.append({**t, "utterance": realize_turn(t, templates, ont, scene, rng)})
        except ShopDialogError as exc:
            raise DialogError.at(flow, t, exc) from None
    return flow._replace(turns=turns)


def _realize_one(shared: tuple, item: tuple[int, tuple[int, DialogFlow]]) -> DialogFlow:
    templates, ont, scenes_by_id, base_seed = shared
    i, (line_no, flow) = item
    seed = session_seed(base_seed, "realize", i)
    try:
        return realize_dialog(flow, templates, ont, scenes_by_id.scene_of(flow), seed)
    except DialogError as exc:
        exc.line = line_no
        raise


def realize_corpus(
    flows: Iterable[tuple[int, DialogFlow]],
    templates: Templates,
    ont: Ontology,
    scenes: list[Scene],
    base_seed: int,
    jobs: int = 1,
) -> Iterator[DialogFlow]:
    """Realize (line_no, flow) pairs in order; dialog i is seeded from (base_seed, i) at any jobs."""
    shared = (templates, ont, SceneIndex(scenes), base_seed)
    return parallel_map(_realize_one, shared, enumerate(flows), jobs)
