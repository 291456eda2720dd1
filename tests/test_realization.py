import itertools
import math

import numpy as np
import pytest

from weaktensor import (
    Ket,
    LengthMismatchError,
    LevelOutOfRangeError,
    OutOfRangeError,
    ShapeMismatchError,
    basis_label,
    basis_state,
    diagonal_cells,
    flat_index,
    ghz_ket,
    is_diagonal_supported,
    make_ket,
    normalize,
    stabilizer_eigenvalue,
)
from oracles import dense_pauli_string

S2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------- cell maps


def test_cell_five_of_the_cube():
    assert basis_label(5, (2, 2, 2)) == (1, 0, 1)


def test_eight_cells_of_the_cube():
    labels = [basis_label(c, (2, 2, 2)) for c in range(8)]
    assert labels == list(itertools.product((0, 1), repeat=3))


@pytest.mark.parametrize("levels,axes", [(d, n) for d in (2, 3, 4) for n in (1, 2, 3, 4, 5)])
def test_cell_basis_bijection_exhaustive(levels, axes):
    grid = (levels,) * axes
    seen = set()
    for cell in range(levels**axes):
        label = basis_label(cell, grid)
        assert flat_index(label, grid) == cell
        seen.add(label)
    assert len(seen) == levels**axes


def test_cell_map_errors():
    with pytest.raises(OutOfRangeError):
        basis_label(8, (2, 2, 2))
    with pytest.raises(OutOfRangeError):
        basis_label(-1, (2, 2, 2))
    with pytest.raises(LevelOutOfRangeError):
        flat_index((0, 2), (2, 2))
    with pytest.raises(LengthMismatchError):
        flat_index((0, 0, 0), (2, 2))


# ---------------------------------------------------------------- diagonals


def test_diagonal_cells_qutrit_cube():
    assert diagonal_cells((3, 3, 3)) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]


def test_diagonal_cells_square():
    assert diagonal_cells((2, 2)) == [(0, 0), (1, 1)]


def test_diagonal_cells_non_uniform():
    with pytest.raises(ShapeMismatchError):
        diagonal_cells((2, 3))


@pytest.mark.parametrize(
    "parties,levels", [(2, 2), (3, 2), (3, 3), (4, 2), (2, 4), (20, 2), (2, 1024)]
)
def test_ghz_states_are_diagonal_supported(parties, levels):
    # tol is a fraction of the state's mass; at 2**600 the squares overflow
    for state in (ghz_ket(parties, levels), ghz_ket(parties, levels, all_diagonal=True)):
        for scale in (2.0**-600, 1.0, 2.0**500, 2.0**600):
            assert is_diagonal_supported(Ket(state.dims, state.amps * scale), tol=1e-12)


def test_factorizable_state_is_not_diagonal_supported():
    # |000> + |001> leaves the diagonal and factorizes as |00>(|0> + |1>)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = S2
    assert not is_diagonal_supported(Ket((2, 2, 2), amps))
    # a quarter of the mass off the diagonal, however small the amplitudes
    amps = np.zeros(27, dtype=complex)
    amps[0], amps[1] = math.sqrt(3.0) * 1e-7, 1e-7
    assert not is_diagonal_supported(Ket((3, 3, 3), amps))


def test_single_diagonal_cell_state():
    assert is_diagonal_supported(basis_state((2, 2, 2), (0, 0, 0)))


def test_is_diagonal_supported_non_uniform():
    with pytest.raises(ShapeMismatchError):
        is_diagonal_supported(make_ket((2, 3), [1, 0, 0, 0, 0, 0]))


# ---------------------------------------------------------------- stabilizers


def test_ghz_stabilizer_eigenvalues():
    ghz = ghz_ket(3, 2)
    assert stabilizer_eigenvalue(ghz, "XXX") == pytest.approx(1.0)
    for letters in ("YYX", "YXY", "XYY"):
        assert stabilizer_eigenvalue(ghz, letters) == pytest.approx(-1.0)


def test_ghz_stabilizer_matches_dense_oracle():
    ghz = normalize(ghz_ket(3, 2))
    for letters in ("XXX", "YYX", "YXY", "XYY"):
        applied = dense_pauli_string(letters) @ ghz.amps
        lam = np.vdot(ghz.amps, applied)
        assert np.max(np.abs(applied - lam * ghz.amps)) < 1e-12
        assert stabilizer_eigenvalue(ghz, letters) == pytest.approx(lam.real, abs=1e-12)


@pytest.mark.parametrize("letters", ["YXX", "XYX", "XXY", "YYY"])
def test_odd_y_strings_are_not_stabilizers_of_ghz(letters):
    assert stabilizer_eigenvalue(ghz_ket(3, 2), letters) is None


def test_product_state_not_an_xx_eigenstate():
    assert stabilizer_eigenvalue(basis_state((2, 2), (0, 0)), "XX") is None


def test_zz_eigenvalue_of_basis_state():
    assert stabilizer_eigenvalue(basis_state((2, 2), (0, 1)), "ZZ") == pytest.approx(-1.0)


def test_stabilizer_rejects_non_qubits():
    with pytest.raises(ShapeMismatchError):
        stabilizer_eigenvalue(make_ket((3,), [1, 0, 0]), "X")
