"""Exception taxonomy shared by every onnkit module.

Each error names the contract it enforces; all of them derive from
OnnkitError so callers can catch the whole family at once.
"""


class OnnkitError(Exception):
    """Base class for every error raised by onnkit."""


# --- tensor layer ---

class ShapeMismatch(OnnkitError):
    """Operand shapes cannot be aligned for the requested operation."""


class SizeMismatch(OnnkitError):
    """Total element count differs between source and destination."""


class EmptyAxis(OnnkitError):
    """A reduction was requested along an axis with extent zero."""


# --- autodiff layer ---

class NonScalarRoot(OnnkitError):
    """backward() was called on a value with more than one element."""


class DetachedRoot(OnnkitError):
    """The value is on no tape, or on one that a backward released."""


class NonFiniteValue(OnnkitError):
    """A forward evaluation produced NaN or infinity."""


# --- patch extraction / resampling ---

class IndivisibleExtent(OnnkitError):
    """A spatial extent is not divisible by the downsampling factor."""


class ZeroFactor(OnnkitError):
    """A resampling factor of zero was requested."""


# --- operator library ---

class DuplicateName(OnnkitError):
    """An operator with this name is already registered."""


class ShapeContractViolation(OnnkitError):
    """A custom operator does not honour its output-shape contract."""


# --- optimizers ---

class NonFiniteGradient(OnnkitError):
    """An optimizer step received a NaN or infinite gradient."""


class UnknownOptimizer(OnnkitError):
    """The requested optimizer name is not registered."""


class CorruptState(OnnkitError):
    """A serialized state blob failed structural validation."""


class VersionMismatch(OnnkitError):
    """A serialized state blob was written by an incompatible version."""


# --- training ---

class NonFiniteLoss(OnnkitError):
    """The training loss became NaN or infinite."""


class ConstantTarget(OnnkitError):
    """A signal-to-noise ratio was requested against a constant target."""


# --- data handling ---

class MissingPair(OnnkitError):
    """An input image has no matching target image (or vice versa)."""


class UnsupportedFormat(OnnkitError):
    """An image file is not in the supported binary greyscale format."""


class TooFewSamples(OnnkitError):
    """The dataset is too small for the requested partitioning."""


# --- configuration / CLI ---

class ParseError(OnnkitError):
    """Configuration text could not be parsed."""


class ValidationError(OnnkitError):
    """Parsed configuration violates a documented constraint."""


class IoError(OnnkitError):
    """A file could not be read or written."""
