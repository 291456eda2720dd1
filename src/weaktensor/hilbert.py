"""Dense state vectors over ordered multi-qudit shapes.

Conventions used throughout the package:

* Subsystem 0 is the leftmost tensor factor.
* Amplitudes are stored flat in big-endian order: the basis label
  ``(i_1, ..., i_N)`` maps to the flat index ``sum_j i_j * prod_{k>j} d_k``
  (the C-order raveling of the shape).
* Kets need not be normalized. The norm is queryable and normalization is
  opt-in; weak values are invariant under rescaling of either state.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionOverflowError,
    DuplicateSubsystemError,
    LengthMismatchError,
    LevelOutOfRangeError,
    NonFiniteAmplitudeError,
    NonFiniteEnergyError,
    NonNumericAmplitudeError,
    OutOfRangeError,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
    UnknownNameError,
    ZeroVectorError,
)

#: Hard ceiling on the total Hilbert-space dimension (prevents accidental
#: exponential blow-up; every built-in system is far below it).
MAX_DIMENSION = 2**20

#: Norm below which a vector is treated as zero.
ZERO_NORM_TOL = 1e-12

#: Below this norm (about 3e-145) squares of amplitudes within 2**-53 of the
#: largest one can be subnormal, so :func:`norm` rescales before squaring.
_SMALL_NORM = 2.0**-480

#: Entries per block of :func:`inner` and :func:`norm`. OpenBLAS sums a
#: vector of at most 10,000 entries on the calling thread, so blocks of this
#: size are summed in one order whatever its thread count, and no helper
#: thread is woken.
_BLOCK = 2**13

PAULI_LETTERS = "IXYZ"


def _integers(values: Iterable, error: type[Exception], what: str) -> tuple[int, ...]:
    """The one integer rule: ``values`` through :func:`operator.index`, so ints, bools
    and numpy integers pass and a float, a string or ``None`` raises ``error``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"expected integer {what}, got {values!r}") from None


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate subsystem dimensions and return them as a tuple."""
    out = _integers(dims, ShapeMismatchError, "local dimensions")
    if len(out) < 1:
        raise ShapeMismatchError("at least one subsystem is required")
    if any(d < 2 for d in out):
        raise ShapeMismatchError(f"local dimensions must be >= 2, got {out}")
    total = 1
    for k, d in enumerate(out, 1):  # stop early: a long shape's product is huge
        total *= d
        if total > MAX_DIMENSION:
            bound = "" if k == len(out) else "at least "
            raise DimensionOverflowError(
                f"total dimension {bound}{total} exceeds the ceiling {MAX_DIMENSION}"
            )
    return out


def check_labels(
    labels: Sequence[Sequence[object]] | None, dims: Sequence[int]
) -> tuple[tuple[str, ...], ...]:
    """Per-axis level names as strings, one tuple per axis of ``dims``;
    ``None`` gives the digit labels ``("0", "1", ...)``."""
    if labels is None:
        return tuple(tuple(map(str, range(d))) for d in dims)
    out = tuple(tuple(str(l) for l in axis) for axis in labels)
    if len(out) != len(dims) or any(len(axis) != d for axis, d in zip(out, dims)):
        raise LengthMismatchError(f"labels {out} do not match shape {tuple(dims)}")
    return out


def flat_index(label: Sequence[int], dims: Sequence[int]) -> int:
    """Big-endian flat index of a basis label: the one reader of a full label."""
    label = _integers(label, LevelOutOfRangeError, "levels")
    if len(label) != len(dims):
        raise LengthMismatchError(f"label {label} does not match shape {tuple(dims)}")
    idx = 0
    for lvl, d in zip(label, dims):
        if not 0 <= lvl < d:
            raise LevelOutOfRangeError(f"level {lvl} is not valid for dimension {d}")
        idx = idx * d + lvl
    return idx


def basis_label(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`."""
    (index,) = _integers((index,), OutOfRangeError, "flat index")
    d_total = math.prod(dims)
    if not 0 <= index < d_total:
        raise OutOfRangeError(f"flat index {index} is outside [0, {d_total})")
    digits = []
    for d in reversed(dims):
        digits.append(index % d)
        index //= d
    return tuple(reversed(digits))


def basis_labels(dims: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every basis label in flat-index order: ``basis_label(k, dims)`` for
    ``k = 0, 1, ...`` (big-endian, i.e. C order).

    Pair it with a flat amplitude array (``zip``) or a boolean mask over one
    (``itertools.compress``) instead of calling :func:`basis_label` per index.
    """
    return itertools.product(*map(range, dims))


def _frozen(array: np.ndarray) -> bool:
    """True when no writeable array can change ``array``'s memory: it and
    every array it is a view of are read-only, down to the owning array."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


def freeze(array: np.ndarray) -> np.ndarray:
    """Mark an array that nothing else holds read-only and return it, so
    :class:`Ket` and ``WeakValueTensor`` keep it instead of copying it."""
    array.setflags(write=False)
    return array


def _numbers(values, what: str, real: bool = False) -> np.ndarray:
    """The one number rule: ``values`` as a new ``complex128`` array, or
    ``float64`` when ``real``, copied once. Numbers are values of a bool,
    integer, float or complex dtype and ``numbers.Complex`` or ``np.bool_``
    objects, converted as ``complex(x)`` does; a real one has an imaginary
    part of exactly 0. Anything else (``Decimal``, strings, bytes, ``None``,
    other objects, ragged sequences) raises ``{what} must be numbers`` (or
    ``real``), an int beyond the float range ``{what} must be finite``: a
    :class:`NonFiniteEnergyError` when ``real``, an amplitude error if not."""
    try:
        values = np.asarray(values)
        owned = values.dtype == object
        if owned:  # objects of number types only (np.bool_ is no Number), in one pass
            types = set(map(type, values.flat))
            if not all(issubclass(t, (numbers.Complex, np.bool_)) for t in types):
                raise TypeError("an object that is not a number")
            values = values.astype(np.complex128)
        elif values.dtype.kind not in "biufc":
            raise TypeError(f"a {values.dtype} array")
        if real and values.dtype.kind == "c":
            if values.imag.any():
                raise TypeError("a nonzero imaginary part")
            values = values.real
        return np.array(values, np.float64 if real else np.complex128, copy=not owned)
    except OverflowError:  # an int beyond the float range
        error = NonFiniteEnergyError if real else NonFiniteAmplitudeError
        raise error(f"{what} must be finite") from None
    except (TypeError, ValueError) as err:
        error = NonFiniteEnergyError if real else NonNumericAmplitudeError
        raise error(f"{what} must be {'real' if real else 'numbers'}") from err


def _reals(values, what: str, one: bool = False):
    """``values`` by the number rule as a new ``float64`` array, or as one
    ``float`` when ``one``: the reader of couplings, energies, times, family
    parameters and gamma. NaN or infinity raises ``{what} must be finite``."""
    values = _numbers(values, what, real=True)
    if one and values.ndim:
        raise NonFiniteEnergyError(f"{what} must be one number, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise NonFiniteEnergyError(f"{what} must be finite")
    return float(values) if one else values


def read_only_complex(
    values, dims: tuple | None = None, flat: bool = False, *, what: str
) -> np.ndarray:
    """``values`` by the number rule as a read-only ``complex128`` array
    shaped ``dims`` (as given when ``None``), or flat: the reader of
    amplitudes, tensor components and operator entries, named ``what`` in
    its errors. A count other than ``prod(dims)`` raises
    :class:`LengthMismatchError`. A ``complex128`` array that is read-only
    down to its owning array is kept as a view; anything else is copied
    once and frozen, as is a reshape that copies.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.complex128 and _frozen(values)):
        values = freeze(_numbers(values, what))
    if dims is None:
        return values
    n = math.prod(dims)
    if values.size != n:
        raise LengthMismatchError(f"expected {n} {what} for shape {dims}, got {values.size}")
    return freeze(values.reshape(-1 if flat else dims))  # a copying reshape owns new memory


@dataclass(frozen=True, eq=False)
class Ket:
    """Dense complex amplitude vector over an ordered multi-qudit shape.

    Instances are immutable: ``amps`` is read-only and flat, converted by
    :func:`read_only_complex`, which keeps a frozen ``complex128`` array as
    a view. Such an array must stay read-only: :func:`norm` is computed once
    per ket. Compare amplitudes explicitly (e.g. with ``np.array_equal``);
    ``==`` is identity.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        amps = read_only_complex(self.amps, dims, flat=True, what="amplitudes")
        if not np.isfinite(amps).all():
            raise NonFiniteAmplitudeError("amplitudes must be finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.amps.size

    def amplitude(self, label: Sequence[int]) -> complex:
        """Amplitude at a basis label."""
        return complex(self.amps[flat_index(label, self.dims)])

    def __repr__(self) -> str:
        return f"Ket(dims={self.dims}, amps={np.array2string(self.amps, separator=', ')})"


def make_ket(dims: Sequence[int], amps: Iterable[complex]) -> Ket:
    """Build a ket from explicit amplitudes (no implicit normalization).

    An ``np.ndarray`` goes to :class:`Ket` as it is (one bulk conversion,
    flattened in C order). Any other iterable must hold one number per item
    (see :func:`read_only_complex`), so a nested item raises as ``None`` does.
    """
    if not isinstance(amps, np.ndarray):
        items = list(amps)
        amps = np.empty(len(items), dtype=object)
        amps[:] = items  # one object per item, even where an item is a sequence
    return Ket(tuple(dims), amps)


def basis_state(dims: Sequence[int], label: Sequence[int]) -> Ket:
    """Computational-basis state |label>."""
    dims = check_dims(dims)
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[flat_index(label, dims)] = 1.0
    return Ket(dims, freeze(amps))


def tensor_product(a: Ket, b: Ket) -> Ket:
    """Tensor product; the shape is the concatenation of the two shapes."""
    dims = check_dims(a.dims + b.dims)  # before kron allocates the product
    return Ket(dims, freeze(np.kron(a.amps, b.amps)))


def _blocks(size: int) -> Iterator[slice]:
    """Consecutive slices of :data:`_BLOCK` entries covering ``range(size)``."""
    return (slice(start, start + _BLOCK) for start in range(0, size, _BLOCK))


def _block_sum(kernel, *arrays: np.ndarray):
    """``kernel`` of the :func:`_blocks` of the flat ``arrays``, added in
    order: one ``kernel`` call on arrays of at most :data:`_BLOCK` entries."""
    parts = (kernel(*(a[s] for a in arrays)) for s in _blocks(arrays[0].size))
    return functools.reduce(operator.iadd, parts)


def _scaled(amps: np.ndarray, n: float, out: np.ndarray | None = None) -> np.ndarray:
    """``amps / n`` for a real ``n`` as the float64 parts (any stride, through a length-1
    last axis) times ``1.0 / n``, into the head of ``out`` when given: numpy's complex
    division by ``n`` differs only in the sign of a zero part, so use it under ``abs()``."""
    out = np.empty_like(amps) if out is None else out[: amps.size]
    np.multiply(amps[:, None].view(np.float64), 1.0 / n, out=out[:, None].view(np.float64))
    return out


def _sum_of_squares(amps: np.ndarray):
    # np.linalg.norm's own sum for a complex vector
    re, im = amps.real, amps.imag
    return re.dot(re) + im.dot(im)


def inner(bra: Ket, ket: Ket) -> complex:
    """Inner product <bra|ket>, conjugate-linear in the first argument.

    ``np.vdot`` of blocks of :data:`_BLOCK` entries, added in order on the
    calling thread, so the bits do not depend on the BLAS thread count; up
    to :data:`_BLOCK` entries it is ``np.vdot`` bit for bit.
    """
    if bra.dims != ket.dims:
        raise ShapeMismatchError(f"shapes differ: {bra.dims} vs {ket.dims}")
    return complex(_block_sum(np.vdot, bra.amps, ket.amps))


def norm(k: Ket) -> float:
    """Euclidean norm, finite whenever the true norm is and nonzero whenever
    an amplitude is.

    The sum of squares is ``np.linalg.norm``'s, ``re·re + im·im``, taken
    over blocks of :data:`_BLOCK` entries and added in order, as by
    :func:`inner`; up to :data:`_BLOCK` entries the norm is
    ``np.linalg.norm`` bit for bit. When the sum overflows (amplitudes above
    about 1e154) or the norm is below :data:`_SMALL_NORM` (where squares that
    matter can underflow and lose digits), the norm is taken again over
    amplitudes scaled by an exact power of two that brings the largest
    magnitude into [0.5, 1), then scaled back; binary scaling is exact, so
    only that path changes. A ket's amplitudes never change, so each ket
    computes its norm once and keeps it.
    """
    n = k.__dict__.get("_norm")
    if n is None:
        with np.errstate(over="ignore", under="ignore"):
            n = math.sqrt(_block_sum(_sum_of_squares, k.amps))
            if not _SMALL_NORM <= n < math.inf:
                parts = k.amps[:, None].view(np.float64)  # any stride, as in _scaled
                _, exponent = np.frexp(np.abs(parts).max())
                scaled = np.ldexp(parts, -exponent).view(np.complex128)[:, 0]
                n = float(np.ldexp(math.sqrt(_block_sum(_sum_of_squares, scaled)), exponent))
        object.__setattr__(k, "_norm", n)
    return n


def _nonzero_norm(k: Ket) -> float:
    """:func:`norm`, raising :class:`ZeroVectorError` at or below :data:`ZERO_NORM_TOL`."""
    n = norm(k)
    if n <= ZERO_NORM_TOL:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n}")
    return n


def normalize(k: Ket) -> Ket:
    """Scale to unit norm; raises on (near-)zero input."""
    # the division, not _scaled: numpy's (-0.0+1j) / n has real part +0.0, which writers print
    return Ket(k.dims, freeze(k.amps / _nonzero_norm(k)))


@dataclass(frozen=True)
class ProjectorProduct:
    """A choice of one basis level on each of a set of distinct subsystems.

    The operator is the product of |level><level| projectors, one per listed
    subsystem; the empty product is the identity. Factors are kept sorted by
    subsystem index (canonical form).
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        canon = tuple(sorted(_integers(f, LevelOutOfRangeError, "factor") for f in self.factors))
        subsystems = [s for s, _ in canon]
        if len(set(subsystems)) != len(subsystems):
            raise DuplicateSubsystemError(f"duplicate subsystem in {canon}")
        object.__setattr__(self, "factors", canon)

    @property
    def subsystems(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)

    def index(self, dims: Sequence[int]) -> tuple[int | slice, ...]:
        """Numpy index of the product's support in an array of shape ``dims``:
        the chosen level on every factor axis, ``slice(None)`` elsewhere.

        Validates every factor against the shape first.
        """
        index: list[int | slice] = [slice(None)] * len(dims)
        for s, lvl in self.factors:
            if not 0 <= s < len(dims):
                raise SubsystemOutOfRangeError(f"subsystem {s} not in shape {tuple(dims)}")
            if not 0 <= lvl < dims[s]:
                raise LevelOutOfRangeError(
                    f"level {lvl} not valid for subsystem {s} of dimension {dims[s]}"
                )
            index[s] = lvl
        return tuple(index)


def apply_pauli_string(letters: str, k: Ket) -> Ket:
    """Apply a product of single-qubit Pauli operators, one letter per qubit.

    ``X`` swaps the levels, ``Y`` swaps with factors -i/+i, ``Z`` flips the
    sign of level 1, and ``I`` leaves the factor untouched.
    """
    if any(d != 2 for d in k.dims):
        raise ShapeMismatchError(f"Pauli strings require qubits, got shape {k.dims}")
    if len(letters) != len(k.dims):
        raise LengthMismatchError(
            f"string of length {len(letters)} does not match {len(k.dims)} qubits"
        )
    bad = set(letters) - set(PAULI_LETTERS)
    if bad:
        raise UnknownNameError(f"unknown Pauli letters: {sorted(bad)}")
    out = k.amps.reshape(k.dims).copy()
    for axis, letter in enumerate(letters):
        lo, hi = (ProjectorProduct(((axis, level),)).index(k.dims) for level in (0, 1))
        if letter in "XY":
            out = np.flip(out, axis=axis).copy()
        if letter == "Y":
            out[lo] *= -1j
            out[hi] *= 1j
        elif letter == "Z":
            out[hi] *= -1.0
    return Ket(k.dims, freeze(out))
