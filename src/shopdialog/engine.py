"""Self-play dialog flow generation.

A session pits a salesperson policy (stochastic act selection under
eligibility guards, per-round probability rows) against a truthful customer
simulator that answers from a hidden target item.  Candidate attribute-value
sets and the candidate item set narrow monotonically until the target is
recommended and accepted.

Flows are interchanged as JSON Lines, one dialog per line, here cut short and wrapped:

    {"dialog_id":"d00000","scene_id":"f02","target_object_id":9,"outcome":"success",
     "candidate_counts":[26,12,...],"turns":[{"act":"ASK_PREFERENCE","slots":{"attribute":"color"}},
     {"slots":{"concept_id":"warm_color"}},...]}

The outcome is "success" or "max_rounds", and a realized turn ends with its "utterance". A turn is
that wire dict from the moment `run_dialog` appends it: `flow_from_dict` rebuilds each turn it reads
in this key order, and `flow_to_dict` passes turns through. Turn k (from 1) is round ceil(k/2)'s
salesperson turn if k is odd, else its customer turn. A turn stores only what its speaker adds: a
customer turn reads its act (`acts.ACT_PAIRS`) and the slots `acts.ECHOED_SLOTS` lists from the turn
it answers. The counts are round 1's candidate items, then those left after each round. This is the
one format readers take. `realize` and `gold` read a flow's turns as the (act, full slots) list that
`check_flow` joins while it checks them against `acts.ACT_SLOTS`. Neither candidate values nor items
are stored: replaying the act pairs through `apply_turn` from `new_session(scene)` rebuilds both.
"""

from __future__ import annotations

import functools
import random
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .acts import ACT_PAIRS, ACT_SLOTS, ECHOED_SLOTS, ELICIT_ACTS, SALESPERSON_ACTS
from .errors import MalformedFile, NoTruthfulConcept, ValidationError
from .jsonio import JSON_TYPES, check_fields, read_json_with, read_jsonl, string_list, write_jsonl

if TYPE_CHECKING:  # reading flows (split, stats) loads no catalog or ontology
    from .catalog import Item, Scene
    from .ontology import Ontology


@functools.cache
def _ontology():
    """The ontology module, imported on first use; calls through it reach whatever
    `concepts_for_value` the module holds at call time."""
    from . import ontology

    return ontology


class PolicyConfig(NamedTuple):
    rounds: tuple[dict[str, float], ...]  # act-probability rows for rounds 1..8
    stationary: dict[str, float]          # row used beyond round 8
    display_min: int
    display_max: int
    recommend_max: int
    refer_region_min_elicited: int
    max_rounds: int

    def row_for_round(self, rnd: int) -> dict[str, float]:
        if rnd <= len(self.rounds):
            return self.rounds[rnd - 1]
        return self.stationary


# Each integer threshold of a policy file: its default and its least allowed value.
_THRESHOLDS = {
    "display_min": (3, 0),
    "display_max": (5, 0),
    "recommend_max": (5, 1),
    "refer_region_min_elicited": (1, 0),
    "max_rounds": (30, 1),
}
# The JSON type of each field of a policy file, and of each act of its probability rows.
_POLICY_FIELDS = {"rounds": list, "stationary": dict, **dict.fromkeys(_THRESHOLDS, int)}
_ROW_FIELDS = dict.fromkeys(SALESPERSON_ACTS, float)


def _validate_row(row: dict[str, float], where: str) -> dict[str, float]:
    check_fields(row, where, _ROW_FIELDS)
    for act in SALESPERSON_ACTS:
        p = row[act]
        if not 0 <= p <= 1:  # also rejects NaN
            raise ValidationError(f"{where}: {act} must be a probability in [0, 1], got {p}")
    if abs(sum(row.values()) - 1.0) > 1e-9:
        raise ValidationError(f"{where}: row sums to {sum(row.values())}, not 1")
    return {a: float(row[a]) for a in SALESPERSON_ACTS}


def _threshold(raw: dict, name: str) -> int:
    default, least = _THRESHOLDS[name]
    value = raw.get(name, default)
    if value < least:
        raise ValidationError(f"policy: {name} must be an integer >= {least}, got {value!r}")
    return value


def policy_from_dict(raw: dict) -> PolicyConfig:
    check_fields(raw, "policy", _POLICY_FIELDS, ("rounds",))
    rows = tuple(_validate_row(r, f"policy round {i + 1}") for i, r in enumerate(raw["rounds"]))
    if not rows:
        raise ValidationError("policy: needs at least one round row")
    stationary = _validate_row(raw.get("stationary", raw["rounds"][-1]), "policy stationary")
    cfg = PolicyConfig(rows, stationary, **{name: _threshold(raw, name) for name in _THRESHOLDS})
    if cfg.display_min > cfg.display_max:
        raise ValidationError("policy: display_min must be <= display_max")
    return cfg


def load_policy(path) -> PolicyConfig:
    return read_json_with(path, policy_from_dict)


class SessionState(NamedTuple):
    """One round's candidates; a round builds a new state and shares what it did not narrow.

    `candidate_values` starts as the scene's own `value_universe` and is never
    mutated: narrowing an attribute builds a new dict in the same (registry)
    key order, which `_most_ambiguous_attr`'s tie-break needs.  Every candidate
    item holds a candidate value of every attribute, so `apply_turn` drops the
    items holding a rejected value and keeps the others.
    """

    scene: Scene
    round: int
    candidate_values: dict[str, frozenset[str]]
    candidate_items: frozenset[int]
    elicited_attrs: frozenset[str]
    last_guess: str | None  # the attribute of a guess the customer just rejected
    outcome: str | None


def new_session(scene: Scene) -> SessionState:
    return SessionState(scene, 1, scene.value_universe, frozenset(scene.items_by_id), frozenset(),
                        None, None)


def generate_goal(scene: Scene, rng: random.Random) -> Item:
    """Uniformly pick the hidden target item."""
    return rng.choice(scene.items)


def _informative_regions(state: SessionState) -> Iterator[str]:
    """Regions that properly split the current candidate item set."""
    items = state.candidate_items
    return (label for label, ids in state.scene.region_items.items()
            if not (items.isdisjoint(ids) or items <= ids))


def eligible_acts(state: SessionState, cfg: PolicyConfig) -> set[str]:
    """Guard-based act availability; never empty (RECOMMEND_ITEM is forced last)."""
    counts = set(map(len, state.candidate_values.values()))
    most = max(counts)
    elig = set(ELICIT_ACTS) if most >= 2 else set()
    if state.elicited_attrs:
        if most >= 2:
            elig.add("GUESS_ATTRIBUTE_VALUE")
        # The window stops at the largest count, so a huge display_max costs nothing.
        if not counts.isdisjoint(range(cfg.display_min, min(cfg.display_max, most) + 1)):
            elig.add("DISPLAY_CANDIDATE_VALUES")
    if (len(state.elicited_attrs) >= cfg.refer_region_min_elicited
            and next(_informative_regions(state), None) is not None):
        elig.add("REFER_REGION")
    if state.last_guess is not None:
        elig.add("REVISE_ATTRIBUTE_VALUE")
    if len(state.candidate_items) <= cfg.recommend_max:
        elig.add("RECOMMEND_ITEM")
    return elig or {"RECOMMEND_ITEM"}


def _most_ambiguous_attr(state: SessionState) -> str:
    """Attribute with the largest candidate-value count; registry order breaks ties."""
    counts = list(map(len, state.candidate_values.values()))
    best = max(counts)
    assert best > 1, "no ambiguous attribute left"
    return list(state.candidate_values)[counts.index(best)]


def salesperson_step(
    state: SessionState,
    cfg: PolicyConfig,
    rng: random.Random,
    ont: Ontology,
    banned: frozenset[str] = frozenset(),
) -> tuple[str, dict]:
    """Sample an act from the round's row renormalized over eligible acts, fill slots.

    `banned` removes acts the customer just declined to answer (see run_dialog).
    """
    elig = eligible_acts(state, cfg)
    elig -= banned
    if not elig:
        elig = {"RECOMMEND_ITEM"}
    order = list(filter(elig.__contains__, SALESPERSON_ACTS))
    weights = list(map(cfg.row_for_round(state.round).__getitem__, order))  # rows cover every act
    total = sum(weights)
    if total <= 0:
        name = rng.choice(order)
    else:  # the first act whose running weight passes the draw, else the last
        draw = rng.random() * total
        for name, running in zip(order, accumulate(weights)):
            if draw < running:
                break
    return name, _choose_slots(name, state, cfg, rng, ont)


def _choose_slots(
    name: str, state: SessionState, cfg: PolicyConfig, rng: random.Random, ont: Ontology
) -> dict:
    if name in ("ASK_PREFERENCE", "EXCLUDE_PREFERENCE"):
        return {"attribute": _most_ambiguous_attr(state)}
    if name == "PROMPT_PREFERENCE":
        attr = _most_ambiguous_attr(state)
        cands = state.candidate_values[attr]
        concepts = ont.concepts_of(attr)
        informative = [c for c in concepts if 0 < len(c.values & cands) < len(cands)]
        pool = informative or [c for c in concepts if c.values & cands] or concepts
        return {"attribute": attr, "concept_id": rng.choice(pool).concept_id}
    if name == "GUESS_ATTRIBUTE_VALUE":
        attr = _most_ambiguous_attr(state)
        values = sorted(state.candidate_values[attr])
        return {"attribute": attr, "value": rng.choice(values)}
    if name == "REVISE_ATTRIBUTE_VALUE":
        assert state.last_guess is not None
        attr = state.last_guess
        values = sorted(state.candidate_values[attr])
        return {"attribute": attr, "value": rng.choice(values)}
    if name == "DISPLAY_CANDIDATE_VALUES":
        windowed = [
            a for a, vs in state.candidate_values.items()
            if cfg.display_min <= len(vs) <= cfg.display_max
        ]
        attr = rng.choice(windowed)
        return {"attribute": attr, "values": sorted(state.candidate_values[attr])}
    if name == "REFER_REGION":
        labels = list(_informative_regions(state))
        return {"region_label": rng.choice(labels)}
    if name == "RECOMMEND_ITEM":
        items = sorted(state.candidate_items)
        return {"object_id": rng.choice(items)}
    raise ValueError(f"not a salesperson act: {name}")


def customer_step(
    state: SessionState,
    goal: Item,
    s_act: tuple[str, dict],
    ont: Ontology,
    rng: random.Random,
) -> tuple[str, dict]:
    """Truthful response, never contradicting the hidden target; it carries only the slots it adds."""
    name, slots = s_act
    if name == "ASK_PREFERENCE":
        attr = slots["attribute"]
        options = sorted(_ontology().concepts_for_value(ont, attr, goal.attributes[attr]))
        return "ANSWER_PREFERENCE", {"concept_id": rng.choice(options)}
    if name == "EXCLUDE_PREFERENCE":
        # Answer about the asked attribute if a truthful dislike exists there,
        # otherwise fall back to any other attribute of the domain.
        asked = slots["attribute"]
        attrs = [asked] + [a for a in state.candidate_values if a != asked]
        for attr in attrs:
            target_value = goal.attributes[attr]
            honest = [c for c in ont.concepts_of(attr) if target_value not in c.values]
            informative = [c for c in honest if c.values & state.candidate_values[attr]]
            pool = informative or honest
            if pool:
                return "NEGATE_PREFERENCE", {"attribute": attr, "concept_id": rng.choice(pool).concept_id}
        raise NoTruthfulConcept("every concept of every attribute covers the target")
    if name == "PROMPT_PREFERENCE":
        accept = goal.attributes[slots["attribute"]] in ont.concept(slots["concept_id"]).values
        return "RESPOND_PROMPT", {"accept": accept}
    if name in ("GUESS_ATTRIBUTE_VALUE", "REVISE_ATTRIBUTE_VALUE"):
        return "RESPOND_ATTRIBUTE_VALUE", {"accept": goal.attributes[slots["attribute"]] == slots["value"]}
    if name == "DISPLAY_CANDIDATE_VALUES":
        return "CHOOSE_ATTRIBUTE_VALUE", {"value": goal.attributes[slots["attribute"]]}
    if name == "REFER_REGION":
        return "JUDGE_REGION", {"accept": goal.object_id in state.scene.region_items[slots["region_label"]]}
    if name == "RECOMMEND_ITEM":
        return "RESPOND_RECOMMENDATION", {"accept": slots["object_id"] == goal.object_id}
    raise ValueError(f"not a salesperson act: {name}")


def answer_slots(act: str, slots: dict, said: dict) -> dict:
    """A turn's full slots: `slots`, after those of `said` (the turn it answers) that `act` echoes."""
    full = {}
    for key in ECHOED_SLOTS.get(act, ()):  # a loop: a comprehension costs more here, on every read
        if key in said:
            full[key] = said[key]
    return {**full, **slots} if full else slots


def apply_turn(
    state: SessionState, s_act: tuple[str, dict], c_act: tuple[str, dict], ont: Ontology
) -> SessionState:
    """Narrow candidates per the act pair and advance one round.

    Every answer keeps (accept) or drops (reject) one set: a concept's values
    or the offered value of one attribute, else a region's items or the
    rejected item.  An accepted recommendation narrows nothing and ends the
    dialog.
    """
    (s_name, s_slots), (name, slots) = s_act, c_act
    slots = answer_slots(name, slots, s_slots)
    if ACT_PAIRS.get(s_name) != name:
        raise ValueError(f"invalid act pair {s_name} -> {name}")
    accept = slots.get("accept", name != "NEGATE_PREFERENCE")
    values, items = state.candidate_values, state.candidate_items
    attr = slots.get("attribute")
    if attr is not None:
        if "concept_id" in slots:
            offered = ont.concept(slots["concept_id"]).values
        else:
            offered = {slots["value"]}
        named = values[attr] & offered
        kept = named if accept else values[attr] - named
        if not kept:
            raise ValidationError(f"candidate values of {attr} emptied")
        values = {**values, attr: kept}
        holders = frozenset().union(*map(state.scene.value_items[attr].__getitem__, named))
        items = items & holders if accept else items - holders
    elif "region_label" in slots:
        region = state.scene.region_items[slots["region_label"]]
        items = items & region if accept else items - region
    elif not accept:
        items = items - {s_slots["object_id"]}
    if not items:
        raise ValidationError("candidate item set emptied")
    elicited = state.elicited_attrs
    if s_name in ELICIT_ACTS:
        elicited = elicited | {attr}
    rejected_guess = name == "RESPOND_ATTRIBUTE_VALUE" and not accept
    return SessionState(
        state.scene, state.round + 1, values, items, elicited,
        attr if rejected_guess else None,
        "success" if name == "RESPOND_RECOMMENDATION" and accept else state.outcome,
    )


# The JSON type of each slot whose type `check_turn` tests alone; `values` and `object_id` have their own.
_SLOT_TYPES = {"attribute": str, "concept_id": str, "value": str, "region_label": str, "accept": bool}
# Each turn's act and full slots, as `check_flow` joins them: the one join of a read flow's turns.
JoinedTurns = list[tuple[str, dict]]


def check_turn(act: str, slots: dict, scene: Scene, ont: Ontology) -> None:
    """Check the act and full slots (`check_flow` joins them) of a turn of a flow that `flow_from_dict`
    read against `ACT_SLOTS`; the first fault raises ValidationError. Each slot of the act, in table
    order, is present: a text slot a string, `attribute` one of the scene's attributes and
    `concept_id` a concept of it, `values` a non-empty list of strings, `region_label` one of the
    scene's regions, `object_id` one of its items and `accept` a bool. Other slots are not read,
    and no random number is drawn."""
    for key in ACT_SLOTS[act]:
        if key not in slots:
            raise ValidationError(f"missing slot {key!r}")
        value = slots[key]
        kind = _SLOT_TYPES.get(key)
        if kind is not None and type(value) is not kind:
            raise ValidationError(f"slot {key!r} must be {JSON_TYPES[kind]}, got {value!r}")
        if key == "attribute" and value not in scene.value_universe:
            raise ValidationError(f"scene {scene.scene_id}: no attribute {value!r}")
        elif key == "concept_id" and ont.concept(value).attr != slots["attribute"]:
            raise ValidationError(f"concept {value!r} is not a {slots['attribute']} concept")
        elif key == "values" and not string_list(value, "slot 'values'"):
            raise ValidationError("slot 'values' must not be empty")
        elif key == "region_label" and value not in scene.region_items:
            raise ValidationError(f"scene {scene.scene_id}: no region labeled {value!r}")
        elif key == "object_id" and (type(value) is not int or value not in scene.items_by_id):
            raise ValidationError(f"unknown object_id {value!r}: not in scene {scene.scene_id!r}")


def check_flow(
    where: str, flow: DialogFlow, scenes: dict[str, Scene], ont: Ontology
) -> tuple[Scene, JoinedTurns]:
    """The scene of a flow read from a file and its `JoinedTurns`, once the flow fits the catalog: its
    scene is in `scenes`, every turn passes `check_turn`, its target is one of the scene's items, and
    its first candidate count is the scene's item count. The first fault raises ValidationError, which
    starts with `where` and the dialog's id."""
    at = f"{where}: dialog {flow.dialog_id}"
    scene = scenes.get(flow.scene_id)
    if scene is None:
        raise ValidationError(f"{at}: unknown scene_id {flow.scene_id!r}: not in the scene file")
    turns: JoinedTurns = []
    for k, turn in enumerate(flow.turns):
        if k % 2:  # the answer to the turn before it
            act = ACT_PAIRS[turns[-1][0]]
            slots = answer_slots(act, turn["slots"], turns[-1][1])
        else:
            act, slots = turn["act"], turn["slots"]
        try:
            check_turn(act, slots, scene, ont)
        except ValidationError as exc:
            raise ValidationError(f"{at} round {k // 2 + 1} {act}: {exc}") from None
        turns.append((act, slots))
    if flow.target_object_id not in scene.items_by_id:
        raise ValidationError(f"{at}: unknown target_object_id {flow.target_object_id}: "
                              f"not in scene {scene.scene_id!r}")
    if flow.candidate_counts[0] != len(scene.items_by_id):
        raise ValidationError(f"{at}: candidate_counts[0] must be scene {scene.scene_id}'s "
                              f"{len(scene.items_by_id)} items, got {flow.candidate_counts[0]}")
    return scene, turns


class DialogFlow(NamedTuple):
    """A dialog, its fields in wire order; each turn's round and speaker are its position."""
    dialog_id: str
    scene_id: str
    target_object_id: int
    outcome: str  # "success" | "max_rounds"
    candidate_counts: list[int]  # round 1's candidate items, then those left after each round
    turns: list[dict]  # wire form: a salesperson turn's act, then slots[, utterance]


def run_dialog(
    scene: Scene, ont: Ontology, cfg: PolicyConfig, rng: random.Random, dialog_id: str = "d00000"
) -> DialogFlow:
    """Simulate one dialog to acceptance or the round cap; deterministic given rng's state."""
    goal = generate_goal(scene, rng)
    state = new_session(scene)
    counts, turns = [len(state.candidate_items)], []
    while state.round <= cfg.max_rounds and state.outcome is None:
        banned: frozenset[str] = frozenset()
        while True:
            s_name, s_slots = s_act = salesperson_step(state, cfg, rng, ont, banned)
            try:
                c_act = customer_step(state, goal, s_act, ont, rng)
                break
            except NoTruthfulConcept:
                banned |= {s_name}
        state = apply_turn(state, s_act, c_act, ont)
        turns += ({"act": s_name, "slots": s_slots}, {"slots": c_act[1]})
        counts.append(len(state.candidate_items))
    outcome = state.outcome if state.outcome is not None else "max_rounds"
    return DialogFlow(dialog_id, scene.scene_id, goal.object_id, outcome, counts, turns)


def session_seed(base_seed: int, stream: str, index: int) -> str:
    """Seed of item `index` in `stream`; random.Random hashes it with SHA-512."""
    return f"{stream}:{base_seed}:{index}"


def generate_corpus(
    scenes: list[Scene], ont: Ontology, cfg: PolicyConfig, n: int, base_seed: int
) -> Iterator[DialogFlow]:
    """Yield n dialogs in index order.

    Session i draws from its own RNG, seeded with session_seed(base_seed,
    "simulate", i) (scene pick first, then the dialog), so distinct base seeds
    give independent corpora.
    """
    for index in range(n):
        rng = random.Random(session_seed(base_seed, "simulate", index))
        scene = rng.choice(scenes)
        yield run_dialog(scene, ont, cfg, rng, dialog_id=f"d{index:05d}")


def flow_to_dict(flow: DialogFlow) -> dict:
    return {"dialog_id": flow.dialog_id, "scene_id": flow.scene_id, "target_object_id": flow.target_object_id,
            "outcome": flow.outcome, "candidate_counts": flow.candidate_counts, "turns": flow.turns}


# The JSON type of each flow and turn field; a bool is no integer, and `utterance` may be absent.
_FIELD_TYPES = {"dialog_id": str, "scene_id": str, "target_object_id": int, "outcome": str,
                "act": str, "slots": dict, "utterance": str}


def _field_type_error(fields: dict, where: str) -> TypeError:
    """Name the first ill-typed field of a record that failed its type test."""
    field, value = next((f, v) for f, v in fields.items()
                        if f in _FIELD_TYPES and type(v) is not _FIELD_TYPES[f])
    return TypeError(f"{where}{field} must be {JSON_TYPES[_FIELD_TYPES[field]]}, got {value!r}")


def flow_from_dict(raw: dict) -> DialogFlow:
    """Each turn is rebuilt in wire key order: a salesperson turn's act is one of the salesperson's, and
    a customer turn stores no act, nor a slot it reads from the turn it answers (`ECHOED_SLOTS` of the
    answer `ACT_PAIRS` gives); other turn keys, or a null `utterance`, are dropped. A `turns` that is no
    list, a turn that is no object, or a wrong-typed field raises TypeError naming it, any other fault
    ValueError, and a missing one KeyError. `candidate_counts` holds a count per customer turn plus
    one, none below 1 or above the one before."""
    counts, raw_turns = raw["candidate_counts"], raw["turns"]
    if type(raw_turns) is not list:
        raise TypeError(f"turns must be a list, got {raw_turns!r}")
    turns = []
    for k, t in enumerate(raw_turns, 1):  # turn k is the customer's if k is even
        if type(t) is not dict:
            raise TypeError(f"turn {k} must be an object, got {t!r}")
        if ("act" in t) != k % 2:  # only a salesperson turn stores its act
            raise ValueError(f"turn {k}: a customer turn stores no act, got {t['act']!r}" if "act" in t
                             else f"turn {k}: a salesperson turn stores its act")
        turn = {"act": t["act"], "slots": t["slots"]} if k % 2 else {"slots": t["slots"]}
        utterance = t.get("utterance")
        if utterance is not None:
            turn["utterance"] = utterance
        if not (type(turn.get("act", "")) is str and type(turn["slots"]) is dict
                and (utterance is None or type(utterance) is str)):
            raise _field_type_error(turn, f"turn {k}: ")
        if k % 2:
            answer = ACT_PAIRS.get(turn["act"])  # the act of the customer turn after this one
            if answer is None:
                raise ValueError(f"turn {k}: {turn['act']!r} is not an act of speaker 'salesperson'")
        else:
            for key in ECHOED_SLOTS.get(answer, ()):
                if key in turn["slots"]:
                    raise ValueError(f"turn {k}: {answer!r} stores slot {key!r}, which it reads from "
                                     f"turn {k - 1}")
        turns.append(turn)
    if type(counts) is not list or not {int}.issuperset(map(type, counts)):
        raise TypeError(f"candidate_counts must be a list of integers, got {counts!r}")
    if len(counts) != len(turns) // 2 + 1:
        raise ValueError(f"candidate_counts must hold {len(turns) // 2 + 1} counts, got {len(counts)}")
    if counts[-1] < 1 or counts != sorted(counts, reverse=True):  # then name the first entry at fault
        i, before, count = next((i, b, c) for i, (b, c) in enumerate(zip(counts[:1] + counts, counts))
                                if not 1 <= c <= b)
        bound = f"at most the {before} before it" if count > before else "at least 1"
        raise ValueError(f"candidate_counts[{i}] must be {bound}, got {count}")
    flow = DialogFlow(
        raw["dialog_id"], raw["scene_id"], raw["target_object_id"], raw["outcome"], counts, turns
    )
    if not (type(flow.dialog_id) is str and type(flow.scene_id) is str
            and type(flow.target_object_id) is int and type(flow.outcome) is str):
        raise _field_type_error(flow_to_dict(flow), "")
    if flow.outcome not in ("success", "max_rounds"):
        raise ValueError(f"outcome must be 'success' or 'max_rounds', got {flow.outcome!r}")
    return flow


def write_flows(flows: Iterable[DialogFlow], path) -> int:
    return write_jsonl(path, (flow_to_dict(flow) for flow in flows))


def read_flows(path) -> Iterator[tuple[str, DialogFlow]]:
    """Yield ("<path>:<line>", flow) for each dialog of a flow file; the location is the one
    every fault of the flow is reported at."""
    for line_no, record in read_jsonl(path):
        try:
            flow = flow_from_dict(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFile(f"{path}:{line_no}: bad dialog record ({exc})") from exc
        if not flow.turns:
            raise MalformedFile(f"{path}:{line_no}: dialog {flow.dialog_id!r} has no turns")
        yield f"{path}:{line_no}", flow
