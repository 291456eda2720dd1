"""Exception types raised at module boundaries.

Every domain error derives from :class:`WeakTensorError`, so callers (and the
CLI) can distinguish domain failures from programming errors.
"""


class WeakTensorError(Exception):
    """Base class for all domain errors in this package."""


class LengthMismatchError(WeakTensorError, ValueError):
    """An amplitude, letter or label sequence has the wrong length: a Pauli string
    or a basis label for its shape, or axis label lists for a tensor's shape."""


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
    """A shape a call cannot take: invalid local dimensions, two objects that must
    share a subsystem shape but do not, a qubit-only operation (a Pauli string or a
    stabilizer check) on a non-qubit shape, or a diagonal of unequal dimensions."""


class ZeroVectorError(WeakTensorError):
    """A (near-)zero vector was given where a nonzero state is required."""


class DuplicateSubsystemError(WeakTensorError):
    """A projector product names the same subsystem more than once."""


class OutOfRangeError(WeakTensorError):
    """A cell index, digit or grid count is outside its valid range; the two
    subclasses below are a subsystem index and a basis level."""


class SubsystemOutOfRangeError(OutOfRangeError):
    """A subsystem index does not exist for the given shape."""


class LevelOutOfRangeError(OutOfRangeError):
    """A basis level is not valid for its subsystem dimension."""


class OrthogonalSelectionError(WeakTensorError):
    """Pre- and post-selected states are (numerically) orthogonal, so weak
    values are undefined."""


class InvalidCountError(WeakTensorError, ValueError):
    """A party or level count is below the supported minimum."""


class UnknownNameError(WeakTensorError, ValueError):
    """Unknown Bell kind, scenario name, output format, Pauli letter, product-form
    family or family parameter, or a scenario transformation given a scenario it
    does not fit (the hardy relabeling on another scenario)."""


class MissingParamError(WeakTensorError):
    """A required named parameter was not supplied."""


class UnsupportedRankError(WeakTensorError):
    """A renderer (the grid, the cube or SVG) cannot draw a tensor of this rank."""


class ParseError(WeakTensorError):
    """A scenario or state file is not valid UTF-8 JSON."""

    def __init__(self, message: str, lineno: int | None = None, colno: int | None = None):
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


class SchemaViolationError(WeakTensorError):
    """A scenario file is valid JSON but violates the scenario schema: ``field``
    names the offending field, ``message`` says what is wrong with it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):  # unpickling calls the class with (field, message), not with self.args
        return type(self), (self.field, self.message), self.__dict__
