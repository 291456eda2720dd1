"""Every library failure is a WeakTensorError; the name lookups and count
checks that used to raise a bare ValueError still are ValueErrors."""

import math

import numpy as np
import pytest

import weaktensor
from weaktensor import (
    InvalidCountError,
    NonFiniteAmplitudeError,
    UnknownNameError,
    WeakTensorError,
    apply_pauli_string,
    bell,
    build_named,
    epr_pair,
    evolve,
    hardy,
    hardy_gamma,
    make_ket,
    multiwise_epr_hamiltonian,
    paired_epr_hamiltonian,
    product_form,
    render_document,
    scheme_document,
    tensor_product,
)


def test_new_error_types_are_domain_and_value_errors():
    assert "UnknownNameError" in weaktensor.__all__
    for error in (UnknownNameError, InvalidCountError):
        assert issubclass(error, WeakTensorError)
        assert issubclass(error, ValueError)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bell("omega+"), "unknown Bell kind 'omega+'; expected one of "
         "['phi+', 'phi-', 'psi+', 'psi-']"),
        (lambda: build_named("nonsense"), "unknown scenario 'nonsense'; expected one of "
         f"{weaktensor.SCENARIO_NAMES}"),
        (lambda: render_document(scheme_document(hardy()), "png"),
         "unknown format 'png'; expected json, text, or svg"),
        (lambda: apply_pauli_string("XA", make_ket((2, 2), [1, 0, 0, 0])),
         "unknown Pauli letters: ['A']"),
    ],
)
def test_unknown_names_keep_their_messages(call, message):
    with pytest.raises(UnknownNameError) as info:
        call()
    assert str(info.value) == message


def test_paired_hamiltonian_needs_two_pairs():
    with pytest.raises(InvalidCountError) as info:
        paired_epr_hamiltonian(1.0, 0.5, n_pairs=1)
    assert str(info.value) == "need at least the two coupled pairs"


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_phase_angles_raise_before_exp(t):
    # the suite turns RuntimeWarning into an error, so a numpy warning
    # before the domain error would fail here
    with pytest.raises(NonFiniteAmplitudeError):
        product_form("GHZ2", t, phi=1e10)
    state = tensor_product(epr_pair(), epr_pair())
    with pytest.raises(NonFiniteAmplitudeError):
        evolve(state, multiwise_epr_hamiltonian(1e10), t)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
def test_non_finite_gamma_raises_before_exp(gamma):
    with pytest.raises(NonFiniteAmplitudeError):
        hardy_gamma(gamma)


def test_finite_angles_still_evolve():
    state = tensor_product(epr_pair(), epr_pair())
    evolved = evolve(state, multiwise_epr_hamiltonian(1e10), 1e290)
    assert np.all(np.isfinite(evolved.amps))
