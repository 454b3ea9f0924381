"""Store-scene catalog: loading, validation, and spatial/metadata queries.

Scene files are UTF-8 JSON holding one scene object or a list of them:

    {"scene_id": str, "domain": "fashion"|"furniture",
     "items":   [{"object_id": int, "prototype_id": str, "bbox": [x, y, w, h]}, ...],
     "regions": [{"label": str, "bbox": [x, y, w, h]}, ...]}

Metadata files map prototype ids to complete attribute maps:

    {"proto_0": {"type": "jacket", "color": "red", ...}, ...}

Field names are normative; validators reject unknown fields.  A scene item
references a prototype and inherits its attributes at load time.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .attributes import attribute_names_for_domain, get_attribute, numeric_payload
from .errors import DialogError, ValidationError
from .jsonio import read_json_with

Bbox = tuple[float, float, float, float]


class Item(NamedTuple):
    object_id: int
    prototype_id: str
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
                by_value.setdefault(attribute_of(it, attr), []).append(it.object_id)
            table[attr] = {v: frozenset(ids) for v, ids in by_value.items()}
        return table

    @cached_property
    def value_universe(self) -> dict[str, frozenset[str]]:
        """Declared attribute -> its distinct values over the items, in registry order."""
        return {attr: frozenset(by_value) for attr, by_value in self.value_items.items()}


class SceneIndex(dict):
    """Scenes by scene_id; duplicate ids are rejected."""

    def __init__(self, scenes: Iterable[Scene]):
        super().__init__()
        for scene in scenes:
            if scene.scene_id in self:
                raise ValidationError(f"duplicate scene_id {scene.scene_id!r}")
            self[scene.scene_id] = scene

    def scene_of(self, flow) -> Scene:
        """The scene a flow plays in; a scene_id the index lacks raises DialogError."""
        if flow.scene_id not in self:
            raise DialogError(f"dialog {flow.dialog_id}: unknown scene_id {flow.scene_id!r}: not in the scene file")
        return self[flow.scene_id]


Metadata = dict[str, dict[str, str]]


def _require_fields(obj: dict, fields: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    extra = set(obj) - fields
    if extra:
        raise ValidationError(f"{where}: unknown fields {sorted(extra)}")
    missing = fields - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing fields {sorted(missing)}")


def _parse_bbox(raw, where: str) -> Bbox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ValidationError(f"{where}: bbox must be [x, y, w, h]")
    try:
        x, y, w, h = (float(v) for v in raw)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: bbox values must be numbers") from None
    if w <= 0 or h <= 0:
        raise ValidationError(f"{where}: bbox must have positive width/height")
    return (x, y, w, h)


def _parse_scene(raw: dict, metadata: Metadata) -> Scene:
    _require_fields(raw, {"scene_id", "domain", "items", "regions"}, "scene")
    scene_id = raw["scene_id"]
    if not isinstance(scene_id, str):
        raise ValidationError(f"scene {scene_id!r}: scene_id must be a string")
    domain = raw["domain"]
    if domain not in ("fashion", "furniture"):
        raise ValidationError(f"scene {scene_id}: unknown domain {domain!r}")
    declared = attribute_names_for_domain(domain)
    for key in ("items", "regions"):
        if not isinstance(raw[key], list):
            raise ValidationError(f"scene {scene_id}: {key} must be a list")

    if not raw["items"]:
        raise ValidationError(f"scene {scene_id}: needs at least one item")
    items = []
    seen_ids: set[int] = set()
    for entry in raw["items"]:
        _require_fields(entry, {"object_id", "prototype_id", "bbox"}, f"scene {scene_id} item")
        oid = entry["object_id"]
        if type(oid) is not int or oid < 0:
            raise ValidationError(f"scene {scene_id}: object_id must be a non-negative integer")
        if oid in seen_ids:
            raise ValidationError(f"scene {scene_id}: duplicate object_id {oid}")
        seen_ids.add(oid)
        proto = entry["prototype_id"]
        if not isinstance(proto, str):
            raise ValidationError(f"scene {scene_id} item {oid}: prototype_id must be a string")
        if proto not in metadata:
            raise ValidationError(f"scene {scene_id}: prototype {proto!r} not in metadata")
        attrs = metadata[proto]
        if set(attrs) != set(declared):
            raise ValidationError(
                f"scene {scene_id}: prototype {proto!r} attributes {sorted(attrs)} "
                f"do not match the {domain} declaration {sorted(declared)}"
            )
        bbox = _parse_bbox(entry["bbox"], f"scene {scene_id} item {oid}")
        items.append(Item(oid, proto, bbox, dict(attrs)))

    regions = []
    seen_labels: set[str] = set()
    for entry in raw["regions"]:
        _require_fields(entry, {"label", "bbox"}, f"scene {scene_id} region")
        label = entry["label"]
        if not isinstance(label, str):
            raise ValidationError(f"scene {scene_id} region: label must be a string, got {label!r}")
        if label in seen_labels:
            raise ValidationError(f"scene {scene_id}: duplicate region label {label!r}")
        seen_labels.add(label)
        bbox = _parse_bbox(entry["bbox"], f"scene {scene_id} region {label!r}")
        regions.append(BackgroundItem(label, bbox))

    return Scene(scene_id, domain, tuple(items), tuple(regions))


def _validate_metadata(raw: object) -> Metadata:
    if not isinstance(raw, dict):
        raise ValidationError("metadata file must map prototype ids to attribute maps")
    for proto, attrs in raw.items():
        if not isinstance(attrs, dict):
            raise ValidationError(f"metadata {proto!r}: attribute map expected")
        for name, value in attrs.items():
            try:
                attr = get_attribute(name)
            except ValidationError as exc:
                raise ValidationError(f"metadata {proto!r}: {exc}") from None
            if not isinstance(value, str):
                raise ValidationError(f"metadata {proto!r}: value of {name!r} must be a string")
            if attr.kind == "numeric":
                try:
                    numeric_payload(value)
                except ValueError:
                    raise ValidationError(
                        f"metadata {proto!r}: {name!r} value {value!r} has no numeric payload"
                    ) from None
    return raw


def _parse_scenes(raw: object, metadata: Metadata) -> list[Scene]:
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise ValidationError("scene file must hold a scene object or a list of them")
    scenes = [_parse_scene(entry, metadata) for entry in raw]
    SceneIndex(scenes)  # rejects duplicate scene ids
    return scenes


def load_catalog(scene_path, metadata_path) -> tuple[list[Scene], Metadata]:
    """Load and validate scenes plus the item-prototype metadata index."""
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


def attribute_of(item: Item, attr: str) -> str:
    """The item's stored value for attr; total over valid catalogs."""
    try:
        return item.attributes[attr]
    except KeyError:
        raise ValidationError(
            f"item {item.object_id} ({item.prototype_id}) has no attribute {attr!r}"
        ) from None


def scene_value_universe(scene: Scene, attr: str) -> set[str]:
    """Distinct values of attr over the scene's items."""
    try:
        return set(scene.value_universe[attr])
    except KeyError:
        raise ValidationError(f"scene {scene.scene_id}: no attribute {attr!r}") from None
