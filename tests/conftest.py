import pytest

from pathlib import Path

from shopdialog.catalog import load_catalog
from shopdialog.engine import load_policy
from shopdialog.ontology import load_ontology, normalize_phrase
from shopdialog.realizer import load_templates

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


class UnknownSurfaceForm(LookupError):
    """Phrase is not a registered surface form of any concept."""


def resolve_surface(ont, phrase: str) -> str:
    """Owning concept of a registered surface form (exact after normalization)."""
    key = normalize_phrase(phrase)
    for concept in ont.concepts:
        if any(normalize_phrase(form) == key for form in concept.surface_forms):
            return concept.concept_id
    raise UnknownSurfaceForm(f"unregistered surface form {phrase!r}")


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
