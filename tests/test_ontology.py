import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopdialog.catalog import Item, Scene
from shopdialog.errors import ValidationError
from shopdialog.ontology import concepts_for_value, ontology_from_blocks, spd_oracle
from tests.conftest import UnknownSurfaceForm, resolve_surface

COLOR_BLOCK = {
    "attribute": "color",
    "value_space": ["red", "blue", "olive"],
    "concepts": [
        {"concept_id": "warmish", "values": ["red"], "surface_forms": ["fiery color"]},
        {"concept_id": "coolish", "values": ["blue"], "surface_forms": ["sea color"]},
    ],
}


def test_totality_violation_rejected():
    # "olive" sits in no concept of its attribute.
    with pytest.raises(ValidationError, match="olive"):
        ontology_from_blocks([COLOR_BLOCK])


def test_duplicate_surface_form_rejected():
    block = copy.deepcopy(COLOR_BLOCK)
    block["concepts"][1]["values"] = ["blue", "olive"]
    block["concepts"][1]["surface_forms"] = ["fiery color"]
    with pytest.raises(ValidationError, match="surface form"):
        ontology_from_blocks([block])


@pytest.mark.parametrize("ids", [(7, "coolish"), (7, 8)], ids=["one", "every"])
def test_non_string_concept_id_rejected(ids):
    """An integer concept id would pass `simulate` and then fail `realize` and `gold`."""
    block = copy.deepcopy(COLOR_BLOCK)
    block["concepts"][1]["values"] = ["blue", "olive"]
    for concept, cid in zip(block["concepts"], ids):
        concept["concept_id"] = cid
    with pytest.raises(ValidationError, match="^concept 7: concept_id must be a string$"):
        ontology_from_blocks([block])


def test_empty_value_set_rejected():
    block = copy.deepcopy(COLOR_BLOCK)
    block["concepts"][0]["values"] = []
    with pytest.raises(ValidationError, match="empty"):
        ontology_from_blocks([block])


def test_table_concepts_load(ontology):
    assert {"red", "brown", "yellow", "light pink"} <= set(ontology.concept("warm_color").values)
    assert {"green", "blue", "light purple", "olive"} <= set(ontology.concept("cold_color").values)


def test_concept_values_exact(ontology):
    assert set(ontology.concept("powerful_color").values) == {"red", "orange", "light red"}
    assert set(ontology.concept("mysterious_color").values) == {"violet", "black", "dark blue"}


def test_unknown_concept(ontology):
    with pytest.raises(ValidationError, match="unknown concept 'nope_color'"):
        ontology.concept("nope_color")


def test_values_within_space(ontology):
    for concept in ontology.concepts:
        assert concept.values <= ontology.value_spaces[concept.attr]


def test_concepts_for_value(ontology):
    assert concepts_for_value(ontology, "color", "red") == {"warm_color", "powerful_color"}
    assert concepts_for_value(ontology, "material", "leather") == {
        "soft_material", "gorgeous_material",
    }


def test_concepts_for_value_unknown(ontology):
    with pytest.raises(ValidationError, match="'chartreuse' is not in the color value space"):
        concepts_for_value(ontology, "color", "chartreuse")


def test_inverse_consistency_exhaustive(ontology):
    # c in concepts_for_value(a, v)  <=>  v in c.values, over everything.
    for attr, space in ontology.value_spaces.items():
        for value in space:
            owners = concepts_for_value(ontology, attr, value)
            assert owners, f"totality broken for {attr}={value}"
            for concept in ontology.concepts_of(attr):
                assert (concept.concept_id in owners) == (value in concept.values)


def test_resolve_surface(ontology):
    assert resolve_surface(ontology, "color of passion") == "warm_color"
    assert resolve_surface(ontology, "durable material") == "reliable_material"


def test_resolve_surface_normalizes(ontology):
    assert resolve_surface(ontology, "  Color   OF Passion ") == "warm_color"


def test_resolve_surface_unregistered(ontology):
    with pytest.raises(UnknownSurfaceForm):
        resolve_surface(ontology, "xylophone color")


def test_every_surface_form_resolves_to_owner(ontology):
    for concept in ontology.concepts:
        for form in concept.surface_forms:
            assert resolve_surface(ontology, form) == concept.concept_id


def test_range_concepts_materialize(ontology):
    affordable = set(ontology.concept("affordable_price").values)
    assert affordable == {"$19", "$29", "$49", "$79", "$99"}
    assert set(ontology.concept("well_reviewed").values) == {"4.0", "4.2", "4.5", "4.8"}


FASHION_ATTRS = {
    "type": "jacket", "color": "red", "pattern": "plain", "material": "wool",
    "price": "$49", "brand": "Yogi Fit", "size": "M", "customer_review": "4.2",
    "sleeve_length": "full",
}


def scene_with_colors(colors):
    items = tuple(
        Item(i, f"p{i}", (20.0 * i, 0.0, 10.0, 10.0), {**FASHION_ATTRS, "color": c})
        for i, c in enumerate(colors)
    )
    return Scene("s", "fashion", items, ())


def test_spd_single_like(ontology):
    scene = scene_with_colors(["yellow", "brown", "red", "blue"])
    got = spd_oracle(ontology, scene, [("like", "warm_color")])
    assert got == {"yellow", "brown", "red"}


def test_spd_two_likes(ontology):
    scene = scene_with_colors(["red", "yellow", "orange"])
    got = spd_oracle(ontology, scene, [("like", "warm_color"), ("like", "powerful_color")])
    assert got == {"red"}


def test_spd_like_and_dislike(ontology):
    scene = scene_with_colors(["red", "yellow"])
    got = spd_oracle(ontology, scene, [("like", "warm_color"), ("dislike", "powerful_color")])
    assert got == {"yellow"}


def test_spd_mixed_attributes_rejected(ontology):
    scene = scene_with_colors(["red"])
    with pytest.raises(ValidationError, match=r"clauses span attributes \['color', 'material'\]"):
        spd_oracle(ontology, scene, [("like", "warm_color"), ("like", "soft_material")])


def test_spd_requires_clauses(ontology):
    with pytest.raises(ValueError):
        spd_oracle(ontology, scene_with_colors(["red"]), [])


def brute_force_spd(ontology, scene, expressed):
    """Independent oracle: keep item values satisfying every polarity clause."""
    attr = ontology.concept(expressed[0][1]).attr
    kept = set()
    for item in scene.items:
        value = item.attributes[attr]
        ok = all(
            (value in ontology.concept(cid).values) == (polarity == "like")
            for polarity, cid in expressed
        )
        if ok:
            kept.add(value)
    return kept


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spd_matches_bruteforce(ontology, scenes, data):
    scene = data.draw(st.sampled_from(scenes))
    attr = data.draw(st.sampled_from(sorted(ontology.value_spaces)))
    if attr == "sleeve_length" and scene.domain == "furniture":
        attr = "color"
    concepts = sorted(c.concept_id for c in ontology.concepts_of(attr))
    clauses = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["like", "dislike"]), st.sampled_from(concepts)),
            min_size=1,
            max_size=4,
        )
    )
    assert spd_oracle(ontology, scene, clauses) == brute_force_spd(ontology, scene, clauses)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_spd_monotone_and_bounded(ontology, scenes, data):
    from shopdialog.catalog import scene_value_universe

    scene = data.draw(st.sampled_from(scenes))
    concepts = sorted(c.concept_id for c in ontology.concepts_of("color"))
    clauses = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["like", "dislike"]), st.sampled_from(concepts)),
            min_size=1,
            max_size=5,
        )
    )
    universe = scene_value_universe(scene, "color")
    previous = universe
    for upto in range(1, len(clauses) + 1):
        result = spd_oracle(ontology, scene, clauses[:upto])
        assert result <= previous <= universe
        previous = result
