"""Exception types shared across the package."""


class PwluError(Exception):
    """Base class for all package errors."""


class DegenerateParameterError(PwluError):
    """Activation parameters are non-finite or the boundary interval collapsed."""


class ShapeMismatchError(PwluError):
    """Tensor shapes are incompatible for the requested operation."""


class SharedLayerError(PwluError):
    """A layer with trained arrays is listed twice in one model, or is already bound
    to another model's buffers."""


class EmptyBatchError(PwluError):
    """A statistics update was attempted with an empty batch."""


class InsufficientSamplesError(PwluError):
    """Too few retained samples to estimate the requested percentiles."""


class IdxFormatError(PwluError):
    """Base class for IDX file parsing failures."""


class BadMagicError(IdxFormatError):
    """IDX file magic number does not match the expected constant."""


class TruncatedPayloadError(IdxFormatError):
    """IDX file ends before the payload promised by its header."""


class CountMismatchError(IdxFormatError):
    """Image and label files disagree on the number of samples."""


class CheckpointError(PwluError):
    """Checkpoint file is missing, corrupt, or from an unsupported version."""


class ShapeFileError(PwluError):
    """Shape sidecar file is missing, not JSON, or lacks a unit's fields."""


class ConfigError(PwluError):
    """Invalid run configuration. `field` names the offending option."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class NonFiniteLossError(PwluError):
    """Training produced a non-finite loss. `layer_name` is the first offender."""

    def __init__(self, layer_name: str, iteration: int):
        super().__init__(
            f"non-finite values first appeared at layer '{layer_name}' "
            f"(iteration {iteration})"
        )
        self.layer_name = layer_name
        self.iteration = iteration
