"""Exception types shared across the pipeline."""


class Error(Exception):
    """Base class for all pipeline errors (CLI maps these to exit code 1)."""


class ConfigError(Error):
    """Invalid configuration or arguments violating an operation's preconditions."""


class ParseError(Error):
    """Malformed dataset or artifact file."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message


class SchemaError(Error):
    """Well-formed input whose contents contradict the declared schema."""


class DivergedError(Error):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss={loss!r})")
        self.epoch = epoch


class InsufficientModelsError(Error):
    """Repository construction ran out of cluster granularities before reaching the target size."""

    def __init__(self, accepted: int, target: int, detail: str):
        super().__init__(
            f"accepted only {accepted} of {target} requested models: {detail}"
        )
        self.accepted = accepted
        self.target = target


class ArtifactMismatchError(Error):
    """An artifact's content hash or cross-artifact reference does not match."""
