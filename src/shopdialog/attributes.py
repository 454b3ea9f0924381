"""Attribute registry shared by the catalog and the preference ontology."""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError

FASHION = "fashion"
FURNITURE = "furniture"
DOMAINS = (FASHION, FURNITURE)


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
    AttributeType("sleeve_length", FASHION, "categorical"),
)

_BY_NAME = {a.name: a for a in ATTRIBUTES}


def get_attribute(name: str) -> AttributeType:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(f"unknown attribute {name!r}") from None


def attributes_for_domain(domain: str) -> tuple[AttributeType, ...]:
    """Attributes declared for a scene domain, in registry order."""
    if domain not in DOMAINS:
        raise ValidationError(f"unknown domain {domain!r}")
    return tuple(a for a in ATTRIBUTES if a.domain in ("both", domain))


def attribute_names_for_domain(domain: str) -> tuple[str, ...]:
    return tuple(a.name for a in attributes_for_domain(domain))


def numeric_payload(value: str) -> float:
    """Numeric payload of a canonical value string, e.g. "$299" -> 299.0."""
    return float(value.strip().lstrip("$").replace(",", ""))
