#!/usr/bin/env python3
"""One particle, many qubits: the cells of a d**n grid realize n qudits,
and the diagonal cells carry the entangled structure.

Run: python3 demos/hypercube_realization.py
"""

from weaktensor import (
    basis_label,
    diagonal_cells,
    ghz3_selected,
    ghz_ket,
    is_diagonal_supported,
    make_ket,
    render_cube,
    stabilizer_eigenvalue,
)

# Eight sub-cubes of a cube realize three qubits.
print("cube cells to 3-qubit labels:")
for cell in range(8):
    print(f"  cell {cell} -> {basis_label(cell, (2, 2, 2))}")
print("diagonal cells:", diagonal_cells((2, 2, 2)))
print()

# The two-term diagonal superposition lives on those diagonal cells and is
# stabilized by the X/Y parity checks.
ghz = ghz_ket(3, 2)
print("GHZ on the diagonal:", is_diagonal_supported(ghz))
for letters in ("XXX", "YYX", "YXY", "XYY", "YXX"):
    print(f"  eigenvalue of {letters}: {stabilizer_eigenvalue(ghz, letters)}")
print()

# Leaving the diagonal does not by itself create coupling: this state
# factorizes as |00>(|0> + |1>).
s = 2.0 ** -0.5
product = make_ket((2, 2, 2), [s, s, 0, 0, 0, 0, 0, 0])
print("(|000> + |001>)/sqrt(2) on the diagonal:", is_diagonal_supported(product))
print()

# Three qutrits with pre/post selection: the cube rendering marks the
# diagonal, which carries (1, 1, -1).
scenario = ghz3_selected()
print(render_cube(scenario.tensor(), scenario.axis_labels))
