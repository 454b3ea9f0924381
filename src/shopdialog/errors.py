"""Exception types shared across the pipeline."""


class ShopDialogError(Exception):
    """Base class for all pipeline errors."""


class MalformedFile(ShopDialogError):
    """Input file could not be parsed at all."""


class ValidationError(ShopDialogError):
    """Input parsed but violates a schema or model invariant."""


class DialogError(ValidationError):
    """A turn of a flow file breaks a rule; the message names the dialog, round and act,
    and the CLI puts the flow file's path in front."""

    @classmethod
    def at(cls, flow, turn, problem) -> "DialogError":
        return cls(f"dialog {flow.dialog_id} round {turn['round']} {turn['act']}: {problem}")


class UnknownRegion(ShopDialogError):
    """Region label not present in the scene."""


class UnknownAttribute(ShopDialogError):
    """Attribute not declared for the item's domain (or not in the registry)."""


class UnknownConcept(ShopDialogError):
    """Concept id not present in the ontology."""


class UnknownValue(ShopDialogError):
    """Value not in the attribute's global value space."""


class MixedAttributeTypes(ShopDialogError):
    """Preference clauses span more than one attribute type."""


class EmptyScene(ShopDialogError):
    """Scene has no items to pick a goal from."""


class NoTruthfulConcept(ShopDialogError):
    """Customer cannot name any concept excluding the target's values."""


class InconsistentState(ShopDialogError):
    """A candidate set emptied; impossible under a truthful customer."""


class MissingTemplate(ShopDialogError):
    """No utterance template registered for an act."""


class TaskMismatch(ShopDialogError):
    """Prediction file task does not match the requested evaluation task."""


class UnknownActName(ShopDialogError):
    """Predicted act name is outside the salesperson act repertoire."""


class EmptyCorpus(ShopDialogError):
    """Operation needs at least one dialog / pair to evaluate."""


class BadRatios(ShopDialogError):
    """Split ratios must be four non-negative numbers summing to one."""
