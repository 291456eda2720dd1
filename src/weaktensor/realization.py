"""Hypercube-cell realizations of multi-qudit bases, diagonal extraction,
and stabilizer eigenvalue checks.

One physical particle occupying one of ``levels**axes`` grid cells realizes
``axes`` qudits of ``levels`` levels each: cell ``k`` realizes the basis
label ``hilbert.basis_label(k, (levels,) * axes)``, its big-endian digits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError
from .hilbert import Ket, apply_pauli_string, freeze, inner, norm, normalize

#: Component-wise tolerance for declaring an eigenstate.
EIGENSTATE_TOL = 1e-10


def diagonal_cells(dims: Sequence[int]) -> list[tuple[int, ...]]:
    """Labels ``(i, i, ..., i)`` of a uniform shape."""
    dims = tuple(dims)
    if len(set(dims)) != 1:
        raise ShapeMismatchError(f"diagonal requires equal dimensions, got {dims}")
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
        raise ShapeMismatchError(f"stabilizer check requires qubits, got shape {state.dims}")
    unit = normalize(state)
    applied = apply_pauli_string(letters, unit)
    lam = inner(unit, applied)
    residual = float(np.max(np.abs(applied.amps - lam * unit.amps)))
    if residual > EIGENSTATE_TOL:
        return None
    return float(lam.real)
