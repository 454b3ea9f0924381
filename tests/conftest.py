import pytest

from pathlib import Path

from shopdialog.catalog import load_catalog
from shopdialog.acts import ACT_PAIRS
from shopdialog.engine import apply_turn, full_turns, load_policy, new_session
from shopdialog.ontology import load_ontology, normalize_phrase
from shopdialog.realizer import load_templates

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
SPEAKERS = ("salesperson", "customer")  # a flow's turns alternate from the salesperson's


class UnknownSurfaceForm(LookupError):
    """Phrase is not a registered surface form of any concept."""


def resolve_surface(ont, phrase: str) -> str:
    """Owning concept of a registered surface form (exact after normalization)."""
    key = normalize_phrase(phrase)
    for concept in ont.concepts:
        if any(normalize_phrase(form) == key for form in concept.surface_forms):
            return concept.concept_id
    raise UnknownSurfaceForm(f"unregistered surface form {phrase!r}")


def positioned(flow):
    """Yield (round, speaker, turn) for each turn of `flow`, the round and speaker read off the
    turn's position: turns 2r - 1 and 2r (from 1) are round r's salesperson and customer turns."""
    for k, turn in enumerate(flow.turns):
        yield k // 2 + 1, SPEAKERS[k % 2], turn


def act_of(turns, k):
    """The act of turn k (from 0) of a flow's wire turns: a salesperson turn stores it, and a
    customer turn's is the answer (`ACT_PAIRS`) to the turn before it."""
    return ACT_PAIRS[turns[k - 1]["act"]] if k % 2 else turns[k]["act"]


def full_flow(flow):
    """`flow` as every flow reader sees it: each turn with its act and full slots
    (`engine.full_turns`), so a customer turn gains the act and the slots it reads from the
    salesperson turn it answers."""
    return flow._replace(turns=[{**t, "act": act, "slots": slots}
                                for t, (act, slots) in zip(flow.turns, full_turns(flow.turns))])


def turn_counts(flow):
    """Each turn's candidate count, read off `flow.candidate_counts`: turn k (from 0) has entry
    (k + 1) // 2, so a salesperson turn has the count before its round and a customer turn the
    count after it."""
    return [flow.candidate_counts[(k + 1) // 2] for k in range(len(flow.turns))]


def replayed(flow, scene, ont):
    """Yield (turn, state) for each turn of `flow`, where `state` is rebuilt by passing the act
    pairs through `apply_turn` from `new_session(scene)`: a salesperson turn's is the state it
    acted on, a customer turn's the state after its round."""
    state = new_session(scene)
    for k, turn in enumerate(flow.turns):
        if k % 2:
            sales = flow.turns[k - 1]
            answer = (ACT_PAIRS[sales["act"]], turn["slots"])
            state = apply_turn(state, (sales["act"], sales["slots"]), answer, ont)
        yield turn, state


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(DATA / "scenes.json", DATA / "metadata.json")


@pytest.fixture(scope="session")
def scenes_by_id(catalog):
    return catalog[0]


@pytest.fixture(scope="session")
def scenes(scenes_by_id):
    return list(scenes_by_id.values())


@pytest.fixture(scope="session")
def metadata(catalog):
    return catalog[1]


@pytest.fixture(scope="session")
def ontology():
    return load_ontology(DATA / "ontology.json")


@pytest.fixture(scope="session")
def policy():
    return load_policy(DATA / "policy.json")


@pytest.fixture(scope="session")
def templates():
    return load_templates(DATA / "templates.json")
