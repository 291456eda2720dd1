"""Every entry of the multiwise family table against an independent
transcription of the documented families.

The product form is checked against a kron of phased factors; the exact
counterpart against ``exp(-i * E * t)`` applied to the product of the
unphased factors, with the energies ``E`` found from each label's digits.
"""

import math

import numpy as np
import pytest

from weaktensor import exact_counterpart, joint_hamiltonian, product_form
from weaktensor.dynamics import FAMILIES
from oracles import digit_energies, kron_phased_factors

S2 = 1.0 / math.sqrt(2.0)
EPR = [0.0, -S2, S2, 0.0]  # (|10> - |01>) / sqrt(2): index 1 is |01>, 2 is |10>
GHZ = [S2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, S2]  # index 0 is |000>, 7 is |111>

#: name -> (factor, product-form (index, rate) per copy, energy of a label)
SPEC = {
    "psit1": (
        EPR,
        lambda eps: [(2, eps)] * 2,
        lambda d, eps: eps * (d == (1, 0, 1, 0)),
    ),
    "E111": (
        EPR,
        lambda eps: [(2, eps)] * 3,
        lambda d, eps: eps * (d == (1, 0, 1, 0, 1, 0)),
    ),
    "Hamm2": (
        EPR,
        lambda eps, eps2: [(2, eps), (2, eps - eps2), (1, eps2)],
        lambda d, eps, eps2: eps * (d[:4] == (1, 0, 1, 0)) + eps2 * (d[:4] == (0, 1, 0, 1)),
    ),
    "GHZ2": (
        GHZ,
        lambda phi: [(0, phi)] * 2,
        lambda d, phi: phi * (d == (0,) * 6),
    ),
    "PsiGHZ11": (
        GHZ,
        lambda phi, eps: [(0, phi), (0, -eps), (7, phi + eps)],
        lambda d, phi, eps: phi * (d[:6] == (0,) * 6) + (phi + eps) * (d[3:] == (1,) * 6),
    ),
}

TIMES = (1.3, -0.7, 4.25)


def draw_params(name, t):
    rng = np.random.default_rng([list(FAMILIES).index(name), TIMES.index(t)])
    return {
        p: float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])) for p in FAMILIES[name].params
    }


def test_spec_covers_the_family_table():
    assert set(SPEC) == set(FAMILIES)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", FAMILIES)
def test_product_form_is_the_kron_of_phased_factors(name, t):
    factor, phased, _ = SPEC[name]
    params = draw_params(name, t)
    expected = kron_phased_factors(factor, phased(**params), t)
    np.testing.assert_allclose(product_form(name, t, **params).amps, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", FAMILIES)
def test_exact_counterpart_phases_by_digit_energies(name, t):
    factor, phased, energy = SPEC[name]
    params = draw_params(name, t)
    copies = len(phased(**params))
    initial = kron_phased_factors(factor, [(0, 0.0)] * copies, t)
    dims = (2,) * (copies * int(math.log2(len(factor))))
    energies = digit_energies(dims, lambda d: energy(d, **params))
    assert np.count_nonzero(energies) > 0
    np.testing.assert_array_equal(joint_hamiltonian(name, **params).energies, energies)
    expected = initial * np.exp(-1j * energies * t)
    got = exact_counterpart(name, t, **params)
    assert got.dims == dims
    np.testing.assert_allclose(got.amps, expected, rtol=0, atol=1e-15)
