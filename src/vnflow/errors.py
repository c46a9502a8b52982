"""Exception hierarchy for the block-model operator toolkit."""

from types import MappingProxyType
from typing import Any, Mapping

__all__ = [
    "VnFlowError",
    "ModelError",
    "SchemaError",
    "PreconditionError",
    "NotInIdealError",
    "SpectralGapError",
    "PathError",
    "PartitionError",
    "NumericsError",
]


class VnFlowError(Exception):
    """Base class for every error raised by this package.

    Keyword arguments are the structured facts of the failure (a failed
    residual check gives ``what``, ``value``, ``bound`` and, where known,
    ``block`` or ``t``); ``fields`` exposes them read-only.
    """

    def __init__(self, *args: Any, **fields: Any) -> None:
        super().__init__(*args)
        self.fields: Mapping[str, Any] = MappingProxyType(fields)


class ModelError(VnFlowError):
    """Structural mismatch between operands and the block model."""


class SchemaError(VnFlowError):
    """Malformed input document in the serialization layer."""


class PreconditionError(VnFlowError):
    """A mathematical precondition of an operation is violated."""


class NotInIdealError(PreconditionError):
    """A would-be K-class representative has support outside the ideal blocks."""


class SpectralGapError(PreconditionError):
    """No usable spectral gap around the snapping threshold."""


class PathError(PreconditionError):
    """An operator path fails Fredholm certification."""


class PartitionError(PathError):
    """No partition certifying the quotient projection bound was found."""


class NumericsError(VnFlowError):
    """A numerical procedure did not reach its certified tolerance."""

