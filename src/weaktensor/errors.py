"""Exception types raised at module boundaries.

Every domain error derives from :class:`WeakTensorError`, so callers (and the
CLI) can distinguish domain failures from programming errors.
"""


class WeakTensorError(Exception):
    """Base class for all domain errors in this package."""


class LengthMismatchError(WeakTensorError, ValueError):
    """An amplitude or letter sequence has the wrong length."""


class NonFiniteAmplitudeError(WeakTensorError):
    """An amplitude contains NaN or infinity."""


class NonNumericAmplitudeError(WeakTensorError, ValueError):
    """An amplitude, tensor component or operator entry is not a number (a string,
    ``Decimal``, a nested sequence or another object)."""


class NonFiniteEnergyError(WeakTensorError, ValueError):
    """A coupling, energy, evolution time, family parameter or gamma is not a finite real
    number (imaginary part exactly 0)."""


class DimensionOverflowError(WeakTensorError):
    """The total Hilbert-space dimension exceeds the supported ceiling."""


class ShapeMismatchError(WeakTensorError):
    """Two objects that must share a subsystem shape do not."""


class ZeroVectorError(WeakTensorError):
    """A (near-)zero vector was given where a nonzero state is required."""


class SubsystemOutOfRangeError(WeakTensorError):
    """A subsystem index does not exist for the given shape."""


class DuplicateSubsystemError(WeakTensorError):
    """A projector product names the same subsystem more than once."""


class OutOfRangeError(WeakTensorError):
    """A cell index or digit is outside its valid range."""


class LevelOutOfRangeError(OutOfRangeError):
    """A basis level is not valid for its subsystem dimension."""


class NonQubitShapeError(WeakTensorError):
    """A qubit-only operation was applied to a non-qubit shape."""


class OrthogonalSelectionError(WeakTensorError):
    """Pre- and post-selected states are (numerically) orthogonal, so weak
    values are undefined."""


class InvalidCountError(WeakTensorError, ValueError):
    """A party, level or pair count is below the supported minimum."""


class WrongScenarioError(WeakTensorError):
    """A scenario transformation was applied to a scenario it does not fit."""


class LabelMismatchError(WeakTensorError):
    """Axis label lists do not match the subsystem shape."""


class UnknownFamilyError(WeakTensorError):
    """Unknown product-form family name."""


class UnknownNameError(WeakTensorError, ValueError):
    """Unknown Bell kind, scenario name, output format or Pauli letter."""


class MissingParamError(WeakTensorError):
    """A required named parameter was not supplied."""


class NonUniformShapeError(WeakTensorError):
    """An operation requiring equal local dimensions got a mixed shape."""


class NotTwoAxesError(WeakTensorError):
    """Grid rendering requires exactly two axes."""


class NotThreeAxesError(WeakTensorError):
    """Cube rendering requires exactly three axes."""


class UnsupportedRankError(WeakTensorError):
    """SVG rendering supports only rank-2 and rank-3 tensors."""


class ParseError(WeakTensorError):
    """A scenario or state file is not valid UTF-8 JSON."""

    def __init__(self, message: str, lineno: int | None = None, colno: int | None = None):
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


class SchemaViolationError(WeakTensorError):
    """A scenario file is valid JSON but violates the scenario schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
