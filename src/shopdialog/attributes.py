"""Attribute registry shared by the catalog and the preference ontology."""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError

DOMAINS = ("fashion", "furniture")  # every scene's domain is one of these


class AttributeType(NamedTuple):
    name: str
    domain: str  # "fashion" | "furniture" | "both"
    kind: str    # "categorical" | "numeric"


# Registry order is fixed: attribute-selection ties break by this order.
ATTRIBUTES: tuple[AttributeType, ...] = (
    AttributeType("type", "both", "categorical"),
    AttributeType("color", "both", "categorical"),
    AttributeType("pattern", "both", "categorical"),
    AttributeType("material", "both", "categorical"),
    AttributeType("price", "both", "numeric"),
    AttributeType("brand", "both", "categorical"),
    AttributeType("size", "both", "categorical"),
    AttributeType("customer_review", "both", "numeric"),
    AttributeType("sleeve_length", "fashion", "categorical"),
)

_BY_NAME = {a.name: a for a in ATTRIBUTES}


def get_attribute(name: str) -> AttributeType:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(f"unknown attribute {name!r}") from None


def attribute_names_for_domain(domain: str) -> tuple[str, ...]:
    """Names of the attributes declared for a scene domain, in registry order."""
    return tuple(a.name for a in ATTRIBUTES if a.domain in ("both", domain))


def numeric_payload(value: str) -> float:
    """Numeric payload of a canonical value string, e.g. "$299" -> 299.0."""
    return float(value.strip().lstrip("$").replace(",", ""))
