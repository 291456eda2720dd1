"""Hypercube-cell realizations of multi-qudit bases, diagonal extraction,
and stabilizer eigenvalue checks.

One physical particle occupying one of ``levels**axes`` grid cells realizes
``axes`` qudits of ``levels`` levels each: the cell index and the basis
label are related by the big-endian base-``levels`` digit map.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NonQubitShapeError, NonUniformShapeError, OutOfRangeError
from .hilbert import (
    Ket, _integers, apply_pauli_string, basis_label, flat_index, freeze, inner, norm, normalize
)

#: Component-wise tolerance for declaring an eigenstate.
EIGENSTATE_TOL = 1e-10


def _check_grid(levels: int, axes: int) -> None:
    levels, axes = _integers((levels, axes), OutOfRangeError, "levels and axes")
    if levels < 2:
        raise OutOfRangeError(f"levels must be >= 2, got {levels}")
    if axes < 1:
        raise OutOfRangeError(f"axes must be >= 1, got {axes}")


def cell_to_basis(cell: int, levels: int, axes: int) -> tuple[int, ...]:
    """Basis label realized by a grid cell (big-endian base-``levels`` digits)."""
    _check_grid(levels, axes)
    return basis_label(cell, (levels,) * axes)  # raises OutOfRangeError off the grid


def basis_to_cell(label: Sequence[int], levels: int, axes: int) -> int:
    """Inverse of :func:`cell_to_basis`."""
    _check_grid(levels, axes)
    if len(label) != axes:
        raise OutOfRangeError(f"label {tuple(label)} does not have {axes} digits")
    return flat_index(label, (levels,) * axes)  # a LevelOutOfRangeError is an OutOfRangeError


def diagonal_cells(dims: Sequence[int]) -> list[tuple[int, ...]]:
    """Labels ``(i, i, ..., i)`` of a uniform shape."""
    dims = tuple(dims)
    if len(set(dims)) != 1:
        raise NonUniformShapeError(f"diagonal requires equal dimensions, got {dims}")
    n = len(dims)
    return [(i,) * n for i in range(dims[0])]


def is_diagonal_supported(state: Ket, tol: float = 1e-12) -> bool:
    """True when the mass (squared norm) outside the diagonal cells is at most
    the fraction ``tol`` of the state's, whatever its scale; the zero ket passes.
    Off-diagonal states do not necessarily couple their subsystems (they may
    factorize), which is what this predicate screens for."""
    off = state.amps.reshape(state.dims).copy()
    off[tuple(zip(*diagonal_cells(state.dims)))] = 0
    return norm(Ket(state.dims, freeze(off))) <= np.sqrt(tol) * norm(state)


def stabilizer_eigenvalue(state: Ket, letters: str) -> float | None:
    """Eigenvalue of a Pauli string on a state, or None if not an eigenstate.

    Returns ``lam`` when ``apply_pauli_string(letters, state) = lam * state``
    within :data:`EIGENSTATE_TOL` per component of the normalized state.
    Pauli strings are Hermitian, so any returned eigenvalue is real (+1 or
    -1 on real-amplitude states).
    """
    if any(d != 2 for d in state.dims):
        raise NonQubitShapeError(f"stabilizer check requires qubits, got shape {state.dims}")
    unit = normalize(state)
    applied = apply_pauli_string(letters, unit)
    lam = inner(unit, applied)
    residual = float(np.max(np.abs(applied.amps - lam * unit.amps)))
    if residual > EIGENSTATE_TOL:
        return None
    return float(lam.real)
