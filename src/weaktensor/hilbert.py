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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionOverflowError,
    DuplicateSubsystemError,
    LengthMismatchError,
    LevelOutOfRangeError,
    NonFiniteAmplitudeError,
    NonQubitShapeError,
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

PAULI_LETTERS = "IXYZ"


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate subsystem dimensions and return them as a tuple."""
    out = tuple(int(d) for d in dims)
    if len(out) < 1:
        raise ShapeMismatchError("at least one subsystem is required")
    if any(d < 2 for d in out):
        raise ShapeMismatchError(f"local dimensions must be >= 2, got {out}")
    if math.prod(out) > MAX_DIMENSION:
        raise DimensionOverflowError(
            f"total dimension {math.prod(out)} exceeds the ceiling {MAX_DIMENSION}"
        )
    return out


def total_dim(dims: Sequence[int]) -> int:
    return math.prod(dims)


def flat_index(label: Sequence[int], dims: Sequence[int]) -> int:
    """Big-endian flat index of a basis label."""
    if len(label) != len(dims):
        raise LengthMismatchError(f"label {tuple(label)} does not match shape {tuple(dims)}")
    idx = 0
    for lvl, d in zip(label, dims):
        if not 0 <= lvl < d:
            raise LevelOutOfRangeError(f"level {lvl} is not valid for dimension {d}")
        idx = idx * d + lvl
    return idx


def basis_label(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`."""
    d_total = total_dim(dims)
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


@dataclass(frozen=True, eq=False)
class Ket:
    """Dense complex amplitude vector over an ordered multi-qudit shape.

    Instances are immutable: the amplitude array is copied on construction
    and marked read-only. Compare amplitudes explicitly (e.g. with
    ``np.array_equal``); ``==`` is identity.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != total_dim(dims):
            raise LengthMismatchError(
                f"expected {total_dim(dims)} amplitudes for shape {dims}, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise NonFiniteAmplitudeError("amplitudes must be finite")
        amps.setflags(write=False)
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
    """Build a ket from explicit amplitudes (no implicit normalization)."""
    return Ket(tuple(dims), np.fromiter(amps, dtype=np.complex128))


def basis_state(dims: Sequence[int], label: Sequence[int]) -> Ket:
    """Computational-basis state |label>."""
    dims = check_dims(dims)
    amps = np.zeros(total_dim(dims), dtype=np.complex128)
    amps[flat_index(label, dims)] = 1.0
    return Ket(dims, amps)


def tensor_product(a: Ket, b: Ket) -> Ket:
    """Tensor product; the shape is the concatenation of the two shapes."""
    dims = a.dims + b.dims
    if math.prod(dims) > MAX_DIMENSION:
        raise DimensionOverflowError(
            f"combined dimension {math.prod(dims)} exceeds the ceiling {MAX_DIMENSION}"
        )
    return Ket(dims, np.kron(a.amps, b.amps))


def inner(bra: Ket, ket: Ket) -> complex:
    """Inner product <bra|ket>, conjugate-linear in the first argument."""
    if bra.dims != ket.dims:
        raise ShapeMismatchError(f"shapes differ: {bra.dims} vs {ket.dims}")
    return complex(np.vdot(bra.amps, ket.amps))


def norm(k: Ket) -> float:
    return float(np.linalg.norm(k.amps))


def normalize(k: Ket) -> Ket:
    """Scale to unit norm; raises on (near-)zero input."""
    n = norm(k)
    if n <= ZERO_NORM_TOL:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n}")
    return Ket(k.dims, k.amps / n)


@dataclass(frozen=True)
class ProjectorProduct:
    """A choice of one basis level on each of a set of distinct subsystems.

    The operator is the product of |level><level| projectors, one per listed
    subsystem; the empty product is the identity. Factors are kept sorted by
    subsystem index (canonical form).
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        canon = tuple(sorted((int(s), int(lvl)) for s, lvl in self.factors))
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


def apply_projector_product(p: ProjectorProduct, k: Ket) -> Ket:
    """Zero every amplitude whose basis label disagrees with the product.

    Pure masking: surviving amplitudes are returned bit-identical, so the
    operation is exactly idempotent.
    """
    index = p.index(k.dims)
    shaped = k.amps.reshape(k.dims)
    out = np.zeros_like(shaped)
    out[index] = shaped[index]
    return Ket(k.dims, out.reshape(-1))


def apply_pauli_string(letters: str, k: Ket) -> Ket:
    """Apply a product of single-qubit Pauli operators, one letter per qubit.

    ``X`` swaps the levels, ``Y`` swaps with factors -i/+i, ``Z`` flips the
    sign of level 1, and ``I`` leaves the factor untouched.
    """
    if any(d != 2 for d in k.dims):
        raise NonQubitShapeError(f"Pauli strings require qubits, got shape {k.dims}")
    if len(letters) != len(k.dims):
        raise LengthMismatchError(
            f"string of length {len(letters)} does not match {len(k.dims)} qubits"
        )
    bad = set(letters) - set(PAULI_LETTERS)
    if bad:
        raise UnknownNameError(f"unknown Pauli letters: {sorted(bad)}")
    out = k.amps.reshape(k.dims).copy()
    lo = [slice(None)] * len(k.dims)
    hi = [slice(None)] * len(k.dims)
    for axis, letter in enumerate(letters):
        if letter == "I":
            continue
        lo[axis], hi[axis] = 0, 1
        if letter in "XY":
            out = np.flip(out, axis=axis).copy()
        if letter == "Y":
            out[tuple(lo)] *= -1j
            out[tuple(hi)] *= 1j
        elif letter == "Z":
            out[tuple(hi)] *= -1.0
        lo[axis] = hi[axis] = slice(None)
    return Ket(k.dims, out.reshape(-1))
