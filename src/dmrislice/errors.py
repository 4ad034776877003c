"""Exception types shared across the package."""


class DmrisliceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DmrisliceError):
    """Malformed file content. Carries the byte offset when known; a text
    parser names the line in the message instead."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFormat(DmrisliceError):
    """Well-formed file using a feature outside the supported subset."""


class IoError(DmrisliceError):
    """Filesystem failure while reading or writing."""


class ShapeError(DmrisliceError):
    """Array or table dimensions inconsistent with the operation."""


class EmptyShell(DmrisliceError):
    """Shell selection matched no volumes."""


class EmptyMask(DmrisliceError):
    """A mask or region selection contains no voxels."""


class InvalidOrder(DmrisliceError):
    """Spherical-harmonics order outside the supported even set."""


class InvalidDirection(DmrisliceError):
    """Gradient direction is not unit length."""


class Underdetermined(DmrisliceError):
    """Too few measurements for the requested fit."""


class BoundaryGap(DmrisliceError):
    """Slice gap touches the volume boundary; no neighbors on both sides."""


class InsufficientData(DmrisliceError):
    """Training dataset smaller than a single batch."""


class ModelMissing(DmrisliceError):
    """An evaluation method requires a model that was not supplied."""


class DegenerateSample(DmrisliceError):
    """Statistical test input holds a non-finite pair or too few usable
    (nonzero) paired differences."""
