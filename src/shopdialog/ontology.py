"""Two-stage preference ontology: surface form -> concept -> attribute-value set.

The ontology file is a UTF-8 JSON list with one block per attribute:

    {"attribute": "color",
     "value_space": ["red", ...],
     "concepts": [{"concept_id": "warm_color", "values": [...],
                   "surface_forms": [...], "provenance": "expert"}, ...]}

Numeric attributes may declare range concepts with {"min": .., "max": ..}
instead of "values"; their value sets are materialized against the declared
value space, so the same set algebra applies everywhere.  `value_space` is
the attribute's global value space and is what the totality invariant is
checked against: every value must be covered by at least one concept, or a
simulated customer could be left without a truthful answer.
"""

from __future__ import annotations

from typing import NamedTuple

from .attributes import get_attribute, numeric_payload
from .catalog import Scene, scene_value_universe
from .errors import ValidationError
from .jsonio import check_fields, read_json_with, string_list

Polarity = str  # "like" | "dislike"


def normalize_phrase(phrase: str) -> str:
    """Case-fold and collapse whitespace; the match key for surface forms."""
    return " ".join(phrase.casefold().split())


class Concept(NamedTuple):
    concept_id: str
    attr: str
    values: frozenset[str]
    surface_forms: tuple[str, ...]


class Ontology:
    def __init__(self, concepts: tuple[Concept, ...], value_spaces: dict[str, frozenset[str]]):
        self.concepts = concepts
        self.value_spaces = value_spaces
        self._by_id = {c.concept_id: c for c in concepts}
        by_attr: dict[str, list[Concept]] = {}
        for c in sorted(concepts, key=lambda c: c.concept_id):
            by_attr.setdefault(c.attr, []).append(c)
        self._by_attr = {a: tuple(cs) for a, cs in by_attr.items()}
        # (attr, value) -> ids of the concepts holding the value, for each value of a value space
        self._owners = {(a, v): frozenset(c.concept_id for c in by_attr.get(a, ()) if v in c.values)
                        for a, space in value_spaces.items() for v in space}

    def concept(self, concept_id: str) -> Concept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise ValidationError(f"unknown concept {concept_id!r}") from None

    def concepts_of(self, attr: str) -> tuple[Concept, ...]:
        """The attribute's concepts, sorted by concept_id."""
        return self._by_attr.get(attr, ())


def _materialize_range(lo: float, hi: float, space: frozenset[str]) -> frozenset[str]:
    return frozenset(v for v in space if lo <= numeric_payload(v) <= hi)


# "provenance" documents where a concept came from; it is accepted and not kept.
_CONCEPT_FIELDS = ("concept_id", "values", "min", "max", "surface_forms", "provenance")


def ontology_from_blocks(blocks: list[dict]) -> Ontology:
    """Build and fully validate an ontology from parsed attribute blocks."""
    if not isinstance(blocks, list):
        raise ValidationError("ontology file must hold a list of attribute blocks")
    concepts: list[Concept] = []
    value_spaces: dict[str, frozenset[str]] = {}
    for block in blocks:
        check_fields(block, "ontology block", ("attribute", "value_space", "concepts"))
        attr_name = block["attribute"]
        attr = get_attribute(attr_name)
        if attr_name in value_spaces:
            raise ValidationError(f"duplicate ontology block for attribute {attr_name!r}")
        raw_space = string_list(block["value_space"], f"{attr_name}: value_space")
        if len(set(raw_space)) != len(raw_space):
            raise ValidationError(f"{attr_name}: value_space has duplicates")
        space = frozenset(raw_space)
        if attr.kind == "numeric":
            for v in space:
                try:
                    numeric_payload(v)
                except ValueError:
                    raise ValidationError(
                        f"{attr_name}: value {v!r} has no numeric payload"
                    ) from None
        value_spaces[attr_name] = space
        if not isinstance(block["concepts"], list):
            raise ValidationError(f"{attr_name}: concepts must be a list")
        for raw in block["concepts"]:
            check_fields(raw, f"{attr_name} concept", _CONCEPT_FIELDS, ("concept_id", "surface_forms"))
            cid = raw["concept_id"]
            if type(cid) is not str:
                raise ValidationError(f"concept {cid!r}: concept_id must be a string")
            if "values" in raw:
                if "min" in raw or "max" in raw:
                    raise ValidationError(f"concept {cid!r}: give either values or min/max")
                values = frozenset(string_list(raw["values"], f"concept {cid!r}: values"))
            else:
                if attr.kind != "numeric":
                    raise ValidationError(f"concept {cid!r}: range bounds need a numeric attribute")
                values = _materialize_range(float(raw["min"]), float(raw["max"]), space)
            if not values:
                raise ValidationError(f"concept {cid!r}: empty value set")
            if not values <= space:
                raise ValidationError(
                    f"concept {cid!r}: values {sorted(values - space)} outside the "
                    f"{attr_name} value space"
                )
            forms = tuple(string_list(raw["surface_forms"], f"concept {cid!r}: surface_forms"))
            if not forms:
                raise ValidationError(f"concept {cid!r}: needs at least one surface form")
            concepts.append(Concept(cid, attr_name, values, forms))

    ids = [c.concept_id for c in concepts]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate concept ids {dupes}")
    seen_forms: dict[str, str] = {}
    for c in concepts:
        for form in c.surface_forms:
            key = normalize_phrase(form)
            if key in seen_forms and seen_forms[key] != c.concept_id:
                raise ValidationError(f"surface form {form!r} registered to two concepts")
            seen_forms[key] = c.concept_id

    ont = Ontology(tuple(concepts), value_spaces)
    for attr_name, space in value_spaces.items():
        covered = set()
        for c in ont.concepts_of(attr_name):
            covered |= c.values
        uncovered = space - covered
        if uncovered:
            raise ValidationError(
                f"totality violation: {attr_name} values {sorted(uncovered)} "
                "belong to no concept"
            )
    return ont


def load_ontology(path) -> Ontology:
    return read_json_with(path, ontology_from_blocks)


def concepts_for_value(ont: Ontology, attr: str, value: str) -> set[str]:
    """All concepts of attr containing value; non-empty by totality."""
    try:
        return set(ont._owners[attr, value])
    except KeyError:
        raise ValidationError(f"{value!r} is not in the {attr} value space") from None


def spd_oracle(
    ont: Ontology, scene: Scene, expressed: list[tuple[Polarity, str]]
) -> set[str]:
    """Ground-truth candidate values after a sequence of preference clauses.

    Result = scene universe of the shared attribute, intersected with every
    liked concept's values and minus every disliked concept's values.
    """
    if not expressed:
        raise ValueError("expressed preferences must be non-empty")
    concepts = [ont.concept(cid) for _, cid in expressed]
    attrs = {c.attr for c in concepts}
    if len(attrs) != 1:
        raise ValidationError(f"clauses span attributes {sorted(attrs)}")
    result = scene_value_universe(scene, attrs.pop())
    for (polarity, cid), concept in zip(expressed, concepts):
        if polarity == "like":
            result &= concept.values
        elif polarity == "dislike":
            result -= concept.values
        else:
            raise ValueError(f"polarity must be like/dislike, got {polarity!r}")
    return result
