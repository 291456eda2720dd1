"""Every library failure is a WeakTensorError; the name lookups and count
checks that used to raise a bare ValueError still are ValueErrors."""

import math

import numpy as np
import pytest

import weaktensor
from weaktensor import (
    DiagonalHamiltonian,
    InvalidCountError,
    Ket,
    NonFiniteAmplitudeError,
    NonFiniteEnergyError,
    NonNumericAmplitudeError,
    OutOfRangeError,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
    UnknownNameError,
    WeakTensorError,
    WeakValueTensor,
    apply_pauli_string,
    basis_state,
    bell,
    build_named,
    cell_to_basis,
    cheshire,
    epr_pair,
    evolve,
    ghz_ket,
    hardy,
    hardy_gamma,
    make_ket,
    marginalize,
    multiwise_epr_hamiltonian,
    multiwise_ghz_hamiltonian,
    paired_epr_hamiltonian,
    phase_report,
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiwise_epr_hamiltonian(1.0, 0), "need at least one pair, got 0"),
        (lambda: multiwise_ghz_hamiltonian(1.0, -1), "need at least one cube, got -1"),
    ],
)
def test_multiwise_hamiltonians_need_one_copy(call, message):
    # an empty shape used to surface as ShapeMismatchError from check_dims
    with pytest.raises(InvalidCountError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DiagonalHamiltonian((2, 2), [0.0] * 3), ShapeMismatchError,
         "expected 4 energies for shape (2, 2), got 3"),
        (lambda: phase_report(epr_pair(), basis_state((2, 2, 2), (0, 0, 0))), ShapeMismatchError,
         "shapes differ: (2, 2) vs (2, 2, 2)"),
        (lambda: cell_to_basis(0, 2, 0), OutOfRangeError, "axes must be >= 1, got 0"),
    ],
    ids=["energies", "phase-report", "no-axes"],
)
def test_a_size_refusal_states_what_it_expected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_phase_angles_raise_before_exp(t):
    # the suite turns RuntimeWarning into an error, so a numpy warning
    # before the domain error would fail here
    with pytest.raises(NonFiniteEnergyError, match="^time must be finite$"):
        product_form("GHZ2", t, phi=1e10)
    state = tensor_product(epr_pair(), epr_pair())
    with pytest.raises(NonFiniteEnergyError, match="^time must be finite$"):
        evolve(state, multiwise_epr_hamiltonian(1e10), t)


def test_an_overflowing_phase_angle_is_a_non_finite_amplitude():
    # a finite time whose angle E * t overflows: the NaN amplitude is
    # refused by Ket, with no numpy warning on the way
    with pytest.raises(NonFiniteAmplitudeError, match="^amplitudes must be finite$"):
        product_form("GHZ2", 1e308, phi=1e10)
    state = tensor_product(epr_pair(), epr_pair())
    with pytest.raises(NonFiniteAmplitudeError, match="^amplitudes must be finite$"):
        evolve(state, multiwise_epr_hamiltonian(1e10), 1e308)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 10**400])
def test_non_finite_gamma_raises_before_exp(gamma):
    with pytest.raises(NonFiniteEnergyError, match="^gamma must be finite$"):
        hardy_gamma(gamma)


def test_finite_angles_still_evolve():
    state = tensor_product(epr_pair(), epr_pair())
    evolved = evolve(state, multiwise_epr_hamiltonian(1e10), 1e290)
    assert np.all(np.isfinite(evolved.amps))


def test_non_numeric_amplitude_error_is_a_domain_and_value_error():
    assert "NonNumericAmplitudeError" in weaktensor.__all__
    assert issubclass(NonNumericAmplitudeError, WeakTensorError)
    assert issubclass(NonNumericAmplitudeError, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_ket((2,), ["a", "b"]),
        lambda: make_ket((2, 2), [[1, 2], [3, 4]]),
        lambda: make_ket((2,), np.array(["a", "b"])),
        lambda: make_ket((2,), np.array([object(), 1], dtype=object)),
        lambda: Ket((2,), ["a", "b"]),
        lambda: Ket((2, 2), [[1, 2], [3]]),
        lambda: WeakValueTensor((2,), ["a", "b"], "weak", 1 + 0j),
    ],
)
def test_non_numeric_amplitudes_are_domain_errors(call):
    with pytest.raises(NonNumericAmplitudeError) as info:
        call()
    # the number rule names the input: a tensor's components are not amplitudes
    what = "components" if "WeakValueTensor" in call.__code__.co_names else "amplitudes"
    assert str(info.value) == f"{what} must be numbers"


@pytest.mark.parametrize("amps", [[None, 1], (1, None), iter([None, None])])
def test_make_ket_reads_none_as_a_non_number_not_a_nan(amps):
    # numpy converts None to NaN, which used to surface as a non-finite amplitude
    with pytest.raises(NonNumericAmplitudeError) as info:
        make_ket((2,), amps)
    assert str(info.value) == "amplitudes must be numbers"


def test_make_ket_still_reports_a_nan_as_non_finite():
    with pytest.raises(NonFiniteAmplitudeError):
        make_ket((2,), [math.nan, 1])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ghz_ket(2.5, 2), InvalidCountError),
        (lambda: build_named("ghz", parties=2.5), InvalidCountError),
        (lambda: ghz_ket(2, 2.5), InvalidCountError),
        (lambda: multiwise_epr_hamiltonian(1, 2.5), InvalidCountError),
        (lambda: paired_epr_hamiltonian(1, 1, 2.5), InvalidCountError),
        (lambda: multiwise_ghz_hamiltonian(1, 2.5), InvalidCountError),
        (lambda: cell_to_basis(1, 2.5, 2), OutOfRangeError),
        (lambda: cell_to_basis(1, 2, 1.5), OutOfRangeError),
        (lambda: marginalize(cheshire().tensor(), 1.5), SubsystemOutOfRangeError),
    ],
)
def test_a_count_that_is_not_an_integer_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_a_bool_or_numpy_count_is_an_integer():
    t = cheshire().tensor()
    assert marginalize(t, True) == marginalize(t, 1)
    assert cell_to_basis(np.int64(5), np.int64(2), 3) == (1, 0, 1)
    assert ghz_ket(np.int64(3), 2).dims == (2, 2, 2)
