"""Store-scene catalog: loading, validation, and spatial/metadata queries.

Scene files are UTF-8 JSON holding one scene object or a list of them:

    {"scene_id": str, "domain": "fashion"|"furniture",
     "items":   [{"object_id": int, "prototype_id": str, "bbox": [x, y, w, h]}, ...],
     "regions": [{"label": str, "bbox": [x, y, w, h]}, ...]}

Metadata files map prototype ids to complete attribute maps:

    {"proto_0": {"type": "jacket", "color": "red", ...}, ...}

Field names and JSON types are normative: `jsonio.check_fields` rejects a field the schema does not
name or of another type, and a metadata attribute the registry does not name.  A bbox holds four
finite numbers.  A scene item references a prototype and inherits its attributes at load time.
`load_catalog` returns the scenes as a dict from scene_id to Scene, in file order; every stage
looks a flow's scene up in it.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import NamedTuple

from .attributes import ATTRIBUTES, DOMAINS, attribute_names_for_domain, get_attribute, numeric_payload
from .errors import ValidationError
from .jsonio import check_fields, read_json_with

Bbox = tuple[float, float, float, float]


class Item(NamedTuple):
    object_id: int
    bbox: Bbox
    attributes: dict[str, str]

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)


class BackgroundItem(NamedTuple):
    label: str  # "absolute position + name", e.g. "back leftmost closet"
    bbox: Bbox


class Scene:
    """A scene; its index of derived facts is computed once, on first use."""

    def __init__(self, scene_id: str, domain: str, items: tuple[Item, ...],
                 regions: tuple[BackgroundItem, ...]):
        self.scene_id = scene_id
        self.domain = domain
        self.items = items
        self.regions = regions

    @cached_property
    def items_by_id(self) -> dict[int, Item]:
        return {it.object_id: it for it in self.items}

    @cached_property
    def region_items(self) -> dict[str, frozenset[int]]:
        """Region label -> ids of the items whose center it contains, in scene order."""
        return {
            r.label: frozenset(i.object_id for i in self.items if contains_center(r.bbox, i.center))
            for r in self.regions
        }

    @cached_property
    def value_items(self) -> dict[str, dict[str, frozenset[int]]]:
        """Declared attribute -> value -> ids of the items holding it, in registry order."""
        table = {}
        for attr in attribute_names_for_domain(self.domain):
            by_value: dict[str, list[int]] = {}
            for it in self.items:
                by_value.setdefault(it.attributes[attr], []).append(it.object_id)
            table[attr] = {v: frozenset(ids) for v, ids in by_value.items()}
        return table

    @cached_property
    def value_universe(self) -> dict[str, frozenset[str]]:
        """Declared attribute -> its distinct values over the items, in registry order."""
        return {attr: frozenset(by_value) for attr, by_value in self.value_items.items()}


Metadata = dict[str, dict[str, str]]


def _parse_bbox(raw: list, where: str) -> Bbox:
    if len(raw) != 4:
        raise ValidationError(f"{where}: bbox must be [x, y, w, h]")
    # A finite number: no bool, NaN or infinity, nor an integer too large for a float.
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in raw):
        raise ValidationError(f"{where}: bbox values must be finite numbers")
    x, y, w, h = map(float, raw)
    if w <= 0 or h <= 0:
        raise ValidationError(f"{where}: bbox must have positive width/height")
    return (x, y, w, h)


def _parse_scene(raw: dict, metadata: Metadata) -> Scene:
    check_fields(raw, "scene", {"scene_id": str, "domain": str, "items": list, "regions": list})
    scene_id, domain = raw["scene_id"], raw["domain"]
    if domain not in DOMAINS:
        raise ValidationError(f"scene {scene_id}: unknown domain {domain!r}")
    declared = attribute_names_for_domain(domain)
    if not raw["items"]:
        raise ValidationError(f"scene {scene_id}: needs at least one item")
    items = []
    seen_ids: set[int] = set()
    for entry in raw["items"]:
        check_fields(entry, f"scene {scene_id} item", {"object_id": int, "prototype_id": str, "bbox": list})
        oid = entry["object_id"]
        if oid < 0:
            raise ValidationError(f"scene {scene_id}: object_id must be a non-negative integer")
        if oid in seen_ids:
            raise ValidationError(f"scene {scene_id}: duplicate object_id {oid}")
        seen_ids.add(oid)
        proto = entry["prototype_id"]
        if proto not in metadata:
            raise ValidationError(f"scene {scene_id}: prototype {proto!r} not in metadata")
        attrs = metadata[proto]
        if set(attrs) != set(declared):
            raise ValidationError(
                f"scene {scene_id}: prototype {proto!r} attributes {sorted(attrs)} "
                f"do not match the {domain} declaration {sorted(declared)}"
            )
        bbox = _parse_bbox(entry["bbox"], f"scene {scene_id} item {oid}")
        items.append(Item(oid, bbox, dict(attrs)))

    regions = []
    seen_labels: set[str] = set()
    for entry in raw["regions"]:
        check_fields(entry, f"scene {scene_id} region", {"label": str, "bbox": list})
        label = entry["label"]
        if label in seen_labels:
            raise ValidationError(f"scene {scene_id}: duplicate region label {label!r}")
        seen_labels.add(label)
        bbox = _parse_bbox(entry["bbox"], f"scene {scene_id} region {label!r}")
        regions.append(BackgroundItem(label, bbox))

    return Scene(scene_id, domain, tuple(items), tuple(regions))


# Each registry attribute a prototype may give, with the JSON type of its value.
_METADATA_FIELDS = {a.name: str for a in ATTRIBUTES}


def _validate_metadata(raw: object) -> Metadata:
    if not isinstance(raw, dict):
        raise ValidationError("metadata file must map prototype ids to attribute maps")
    for proto, attrs in raw.items():
        check_fields(attrs, f"metadata {proto!r}", _METADATA_FIELDS, ())
        for name, value in attrs.items():
            if get_attribute(name).kind == "numeric":
                try:
                    numeric_payload(value)
                except ValueError:
                    raise ValidationError(
                        f"metadata {proto!r}: {name!r} value {value!r} has no numeric payload"
                    ) from None
    return raw


def _parse_scenes(raw: object, metadata: Metadata) -> dict[str, Scene]:
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise ValidationError("scene file must hold a scene object or a list of them")
    if not raw:
        raise ValidationError("scene file needs at least one scene")
    scenes: dict[str, Scene] = {}
    for entry in raw:
        scene = _parse_scene(entry, metadata)
        if scene.scene_id in scenes:
            raise ValidationError(f"duplicate scene_id {scene.scene_id!r}")
        scenes[scene.scene_id] = scene
    return scenes


def load_catalog(scene_path, metadata_path) -> tuple[dict[str, Scene], Metadata]:
    """Load and validate the scenes, by scene_id in file order, and the item-prototype metadata."""
    metadata = read_json_with(metadata_path, _validate_metadata)
    return read_json_with(scene_path, lambda raw: _parse_scenes(raw, metadata)), metadata


def contains_center(bbox: Bbox, point: tuple[float, float]) -> bool:
    """Center-point containment, bounds inclusive."""
    x, y, w, h = bbox
    px, py = point
    return x <= px <= x + w and y <= py <= y + h


def items_in_region(scene: Scene, region_label: str) -> set[int]:
    """Object ids whose bbox center lies inside the labeled region's bbox."""
    try:
        return set(scene.region_items[region_label])
    except KeyError:
        raise ValidationError(f"scene {scene.scene_id}: no region labeled {region_label!r}") from None


def scene_value_universe(scene: Scene, attr: str) -> set[str]:
    """Distinct values of attr over the scene's items."""
    try:
        return set(scene.value_universe[attr])
    except KeyError:
        raise ValidationError(f"scene {scene.scene_id}: no attribute {attr!r}") from None
