"""Exception types shared across the pipeline."""


class ShopDialogError(Exception):
    """Base class for all pipeline errors."""


class MalformedFile(ShopDialogError):
    """Input file could not be parsed at all."""


class ValidationError(ShopDialogError):
    """Input parsed but violates a schema or model invariant."""


class NoTruthfulConcept(ShopDialogError):
    """Customer cannot name any concept excluding the target's values."""
