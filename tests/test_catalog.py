import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopdialog.catalog import (
    BackgroundItem,
    Item,
    Scene,
    items_in_region,
    load_catalog,
    scene_value_universe,
)
from shopdialog.errors import ValidationError

FASHION_ATTRS = {
    "type": "jacket", "color": "red", "pattern": "plain", "material": "wool",
    "price": "$49", "brand": "Yogi Fit", "size": "M", "customer_review": "4.2",
    "sleeve_length": "full",
}


def write_minimal(tmp_path, scene_obj, metadata):
    scene_path = tmp_path / "scenes.json"
    meta_path = tmp_path / "metadata.json"
    scene_path.write_text(json.dumps(scene_obj))
    meta_path.write_text(json.dumps(metadata))
    return scene_path, meta_path


def minimal_scene(items=None, regions=None):
    if items is None:
        items = [
            {"object_id": i, "prototype_id": "p0", "bbox": [10 + 50 * i, 10, 40, 40]}
            for i in range(3)
        ]
    return {"scene_id": "s0", "domain": "fashion", "items": items, "regions": regions or []}


def test_minimal_scene_loads(tmp_path):
    paths = write_minimal(tmp_path, minimal_scene(), {"p0": FASHION_ATTRS})
    loaded, meta = load_catalog(*paths)
    assert list(loaded) == ["s0"]
    assert len(loaded["s0"].items) == 3
    assert meta["p0"]["color"] == "red"


def test_duplicate_region_label_rejected(tmp_path):
    scene = minimal_scene(regions=[
        {"label": "left rack", "bbox": [0, 0, 100, 100]},
        {"label": "left rack", "bbox": [200, 0, 100, 100]},
    ])
    paths = write_minimal(tmp_path, scene, {"p0": FASHION_ATTRS})
    with pytest.raises(ValidationError):
        load_catalog(*paths)


def test_duplicate_object_id_rejected(tmp_path):
    items = [
        {"object_id": 1, "prototype_id": "p0", "bbox": [0, 0, 10, 10]},
        {"object_id": 1, "prototype_id": "p0", "bbox": [50, 0, 10, 10]},
    ]
    paths = write_minimal(tmp_path, minimal_scene(items=items), {"p0": FASHION_ATTRS})
    with pytest.raises(ValidationError):
        load_catalog(*paths)


@pytest.mark.parametrize("oid", [True, False, -1, 1.0, "1"])
def test_non_integer_object_id_rejected(tmp_path, oid):
    """A bool is no object id: `realize` and `gold` would reject the flows `simulate` writes."""
    items = [{"object_id": oid, "prototype_id": "p0", "bbox": [0, 0, 10, 10]}]
    paths = write_minimal(tmp_path, minimal_scene(items=items), {"p0": FASHION_ATTRS})
    with pytest.raises(ValidationError, match=": scene s0: object_id must be a non-negative integer$"):
        load_catalog(*paths)


def test_duplicate_scene_id_rejected(tmp_path):
    paths = write_minimal(tmp_path, [minimal_scene(), minimal_scene()], {"p0": FASHION_ATTRS})
    with pytest.raises(ValidationError, match="duplicate scene_id 's0'"):
        load_catalog(*paths)


def test_nonpositive_bbox_rejected(tmp_path):
    items = [{"object_id": 0, "prototype_id": "p0", "bbox": [0, 0, 0, 10]}]
    paths = write_minimal(tmp_path, minimal_scene(items=items), {"p0": FASHION_ATTRS})
    with pytest.raises(ValidationError):
        load_catalog(*paths)


def test_unknown_field_rejected(tmp_path):
    scene = minimal_scene()
    scene["mystery"] = 1
    paths = write_minimal(tmp_path, scene, {"p0": FASHION_ATTRS})
    with pytest.raises(ValidationError):
        load_catalog(*paths)


def test_incomplete_attributes_rejected(tmp_path):
    attrs = dict(FASHION_ATTRS)
    del attrs["pattern"]
    paths = write_minimal(tmp_path, minimal_scene(), {"p0": attrs})
    with pytest.raises(ValidationError):
        load_catalog(*paths)


def test_fixture_pack_mean_items(scenes):
    counts = [len(s.items) for s in scenes]
    assert len(scenes) == 10
    assert 20 <= sum(counts) / len(counts) <= 35


def make_item(oid, bbox, attrs=None):
    return Item(oid, bbox, dict(attrs or FASHION_ATTRS))


def test_empty_region():
    scene = Scene(
        "s", "fashion",
        items=(make_item(0, (500.0, 500.0, 40.0, 40.0)),),
        regions=(BackgroundItem("back left rack", (0.0, 0.0, 100.0, 100.0)),),
    )
    assert items_in_region(scene, "back left rack") == set()


def test_unknown_region():
    scene = Scene("s", "fashion", items=(make_item(0, (0.0, 0.0, 10.0, 10.0)),), regions=())
    with pytest.raises(ValidationError, match="scene s: no region labeled 'front shelf'"):
        items_in_region(scene, "front shelf")


def test_referred_shelf_worked_example(scenes):
    # Fixture scene f01 is laid out to reproduce a known region answer.
    f01 = next(s for s in scenes if s.scene_id == "f01")
    assert items_in_region(f01, "far right shelf") == {12, 13, 16, 22, 31}


def brute_force_region(scene, label):
    region = next(r for r in scene.regions if r.label == label)
    rx, ry, rw, rh = region.bbox
    hits = set()
    for item in scene.items:
        x, y, w, h = item.bbox
        cx, cy = x + w / 2, y + h / 2
        if rx <= cx <= rx + rw and ry <= cy <= ry + rh:
            hits.add(item.object_id)
    return hits


def test_center_containment_straddling_edge():
    # Region x in [0, 100]: two items inside, one straddles with center at 110.
    region = BackgroundItem("front rack", (0.0, 0.0, 100.0, 100.0))
    items = (
        make_item(0, (10.0, 10.0, 20.0, 20.0)),    # center (20, 20): inside
        make_item(1, (60.0, 40.0, 30.0, 30.0)),    # center (75, 55): inside
        make_item(2, (90.0, 10.0, 40.0, 20.0)),    # center (110, 20): outside
        make_item(3, (300.0, 300.0, 20.0, 20.0)),  # far away
        make_item(4, (0.0, 200.0, 20.0, 20.0)),    # below
    )
    scene = Scene("s", "fashion", items, (region,))
    assert items_in_region(scene, "front rack") == {0, 1}
    assert items_in_region(scene, "front rack") == brute_force_region(scene, "front rack")


def test_region_matches_bruteforce_on_fixtures(scenes):
    for scene in scenes:
        for region in scene.regions:
            assert items_in_region(scene, region.label) == brute_force_region(scene, region.label)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_region_query_independent_of_item_order(scenes, data):
    scene = data.draw(st.sampled_from([s for s in scenes if s.regions]))
    perm = data.draw(st.permutations(range(len(scene.items))))
    shuffled = Scene(scene.scene_id, scene.domain,
                     tuple(scene.items[i] for i in perm), scene.regions)
    for region in scene.regions:
        assert items_in_region(shuffled, region.label) == items_in_region(scene, region.label)


def test_region_union_is_subset_of_scene(scenes):
    for scene in scenes:
        all_ids = {it.object_id for it in scene.items}
        covered = set()
        for region in scene.regions:
            covered |= items_in_region(scene, region.label)
        assert covered <= all_ids


def test_attribute_lookup():
    """A scene reads each item's values from its attribute map."""
    items = (make_item(0, (0.0, 0.0, 10.0, 10.0)),
             make_item(1, (20.0, 0.0, 10.0, 10.0), {**FASHION_ATTRS, "color": "blue"}))
    scene = Scene("s", "fashion", items, ())
    assert scene.value_items["color"] == {"red": frozenset({0}), "blue": frozenset({1})}
    assert scene.value_items["sleeve_length"] == {"full": frozenset({0, 1})}


def test_attribute_domain_mismatch(tmp_path):
    """A prototype whose attributes are not its scene domain's is rejected at load time, so every
    item holds a value of each attribute its scene declares."""
    sofa_attrs = {
        "type": "sofa", "color": "blue", "pattern": "plain", "material": "leather",
        "price": "$299", "brand": "Home Store", "size": "large", "customer_review": "4.0",
    }
    paths = write_minimal(tmp_path, minimal_scene(), {"p0": sofa_attrs})
    with pytest.raises(ValidationError, match="prototype 'p0' attributes .* do not match the fashion"):
        load_catalog(*paths)


def test_attributes_agree_with_metadata(data_dir, scenes, metadata):
    prototype_of = {(raw["scene_id"], item["object_id"]): item["prototype_id"]
                    for raw in json.loads((data_dir / "scenes.json").read_text(encoding="utf-8"))
                    for item in raw["items"]}
    for scene in scenes:
        for item in scene.items:
            assert item.attributes == metadata[prototype_of[scene.scene_id, item.object_id]]


def test_value_universe_single_item():
    scene = Scene("s", "fashion", (make_item(0, (0.0, 0.0, 10.0, 10.0)),), ())
    assert scene_value_universe(scene, "color") == {"red"}


def test_value_universe_deduplicates():
    colors = ["red", "blue", "blue", "yellow"]
    items = tuple(
        make_item(i, (20.0 * i, 0.0, 10.0, 10.0), {**FASHION_ATTRS, "color": c})
        for i, c in enumerate(colors)
    )
    scene = Scene("s", "fashion", items, ())
    assert scene_value_universe(scene, "color") == {"red", "blue", "yellow"}


def test_value_universe_equals_fold(scenes):
    for scene in scenes:
        for attr in scene.items[0].attributes:
            folded = set()
            for item in scene.items:
                folded.add(item.attributes[attr])
            assert scene_value_universe(scene, attr) == folded


def test_universe_within_metadata_space(scenes, metadata):
    for scene in scenes:
        for attr in scene.items[0].attributes:
            space = {attrs[attr] for attrs in metadata.values() if attr in attrs}
            assert scene_value_universe(scene, attr) <= space


def test_malformed_scene_file(tmp_path):
    from shopdialog.errors import MalformedFile

    bad = tmp_path / "scenes.json"
    bad.write_text("{oops")
    meta = tmp_path / "metadata.json"
    meta.write_text(json.dumps({"p0": FASHION_ATTRS}))
    with pytest.raises(MalformedFile):
        load_catalog(bad, meta)
    with pytest.raises(MalformedFile):
        load_catalog(bad, tmp_path / "missing.json")
