"""Exception types shared across the pipeline."""


class ShopDialogError(Exception):
    """Base class for all pipeline errors."""


class MalformedFile(ShopDialogError):
    """Input file could not be parsed at all."""


class ValidationError(ShopDialogError):
    """Input parsed but violates a schema or model invariant."""


class DialogError(ValidationError):
    """A flow file breaks a rule, and the CLI puts its path in front. `at` names the dialog,
    round and act of the turn at fault. A stage that reads flows sets `line` to the record's."""

    @classmethod
    def at(cls, flow, turn, problem) -> "DialogError":
        return cls(f"dialog {flow.dialog_id} round {turn['round']} {turn['act']}: {problem}")


class NoTruthfulConcept(ShopDialogError):
    """Customer cannot name any concept excluding the target's values."""
