"""Every library failure is a WeakTensorError; the name lookups and count
checks that used to raise a bare ValueError still are ValueErrors."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

import weaktensor
from weaktensor import errors
from weaktensor import (
    DiagonalHamiltonian,
    InvalidCountError,
    Ket,
    LengthMismatchError,
    NonFiniteAmplitudeError,
    NonFiniteEnergyError,
    NonNumericAmplitudeError,
    OutOfRangeError,
    ProjectorProduct,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
    UnknownNameError,
    WeakTensorError,
    WeakValueTensor,
    apply_pauli_string,
    basis_label,
    basis_state,
    bell,
    build_named,
    cheshire,
    diagonal_cells,
    epr_pair,
    evolve,
    ghz_ket,
    hardy,
    hardy_gamma,
    hardy_overlap_labels,
    joint_hamiltonian,
    make_ket,
    marginalize,
    phase_report,
    product_form,
    render_document,
    render_grid,
    scheme_document,
    stabilizer_eigenvalue,
    tensor_product,
)


def test_new_error_types_are_domain_and_value_errors():
    assert "UnknownNameError" in weaktensor.__all__
    for error in (UnknownNameError, InvalidCountError):
        assert issubclass(error, WeakTensorError)
        assert issubclass(error, ValueError)


@pytest.mark.parametrize(
    "name",
    ["LabelMismatchError", "NonQubitShapeError", "NonUniformShapeError", "UnknownFamilyError",
     "WrongScenarioError"],
)
def test_a_folded_error_class_has_no_alias(name):
    # each was folded into the class its sibling checks raise
    assert not hasattr(weaktensor, name) and not hasattr(errors, name)


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DiagonalHamiltonian((2, 2), [0.0] * 3), ShapeMismatchError,
         "expected 4 energies for shape (2, 2), got 3"),
        (lambda: phase_report(epr_pair(), basis_state((2, 2, 2), (0, 0, 0))), ShapeMismatchError,
         "shapes differ: (2, 2) vs (2, 2, 2)"),
        # each rule below has one class, shared with its sibling checks
        (lambda: product_form("warp", 1.0, eps=1.0), UnknownNameError,
         "unknown family 'warp'; expected one of ('psit1', 'E111', 'Hamm2', 'GHZ2', 'PsiGHZ11')"),
        (lambda: hardy_overlap_labels(cheshire()), UnknownNameError,
         "expected the hardy scenario, got 'cheshire'"),
        (lambda: apply_pauli_string("X", make_ket((3,), [1, 0, 0])), ShapeMismatchError,
         "Pauli strings require qubits, got shape (3,)"),
        (lambda: stabilizer_eigenvalue(make_ket((3,), [1, 0, 0]), "X"), ShapeMismatchError,
         "stabilizer check requires qubits, got shape (3,)"),
        (lambda: diagonal_cells((2, 3)), ShapeMismatchError,
         "diagonal requires equal dimensions, got (2, 3)"),
        (lambda: render_grid(cheshire().tensor(), [["a", "b"]]), LengthMismatchError,
         "labels (('a', 'b'),) do not match shape (2, 2)"),
        (lambda: marginalize(cheshire().tensor(), 5), OutOfRangeError,
         "axis 5 not in a rank-2 tensor"),
        (lambda: ProjectorProduct(((3, 0),)).index((2, 2)), OutOfRangeError,
         "subsystem 3 not in shape (2, 2)"),
        # a tensor's shape is read by the shape rule of Ket
        (lambda: WeakValueTensor((2.0, 2), [1, 0, 0, 0], "weak", 1), ShapeMismatchError,
         "expected integer local dimensions, got (2.0, 2)"),
        (lambda: WeakValueTensor("ab", [1, 0, 0, 0], "weak", 1), ShapeMismatchError,
         "expected integer local dimensions, got 'ab'"),
        (lambda: WeakValueTensor((1, 4), [1, 0, 0, 0], "weak", 1), ShapeMismatchError,
         "local dimensions must be >= 2, got (1, 4)"),
        (lambda: WeakValueTensor((), [1], "weak", 1), ShapeMismatchError,
         "at least one subsystem is required"),
        # a document holds one marginal per axis
        (lambda: dataclasses.replace(scheme_document(cheshire()), marginals=()).to_tensor(),
         LengthMismatchError, "expected 2 marginals for shape (2, 2), got 0"),
    ],
    ids=["energies", "phase-report", "family", "hardy-overlap", "pauli-qutrit", "stabilizer-qutrit",
         "diagonal", "grid-labels", "marginal-axis", "projector-subsystem", "tensor-float-dims",
         "tensor-string-dims", "tensor-unit-dim", "tensor-no-dims", "document-marginal-count"],
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
        evolve(state, joint_hamiltonian("psit1", eps=1e10), t)


def test_an_overflowing_phase_angle_is_a_non_finite_amplitude():
    # a finite time whose angle E * t overflows: the NaN amplitude is
    # refused by Ket, with no numpy warning on the way
    with pytest.raises(NonFiniteAmplitudeError, match="^amplitudes must be finite$"):
        product_form("GHZ2", 1e308, phi=1e10)
    state = tensor_product(epr_pair(), epr_pair())
    with pytest.raises(NonFiniteAmplitudeError, match="^amplitudes must be finite$"):
        evolve(state, joint_hamiltonian("psit1", eps=1e10), 1e308)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 10**400])
def test_non_finite_gamma_raises_before_exp(gamma):
    with pytest.raises(NonFiniteEnergyError, match="^gamma must be finite$"):
        hardy_gamma(gamma)


def test_finite_angles_still_evolve():
    state = tensor_product(epr_pair(), epr_pair())
    evolved = evolve(state, joint_hamiltonian("psit1", eps=1e10), 1e290)
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
        (lambda: marginalize(cheshire().tensor(), 1.5), SubsystemOutOfRangeError),
    ],
)
def test_a_count_that_is_not_an_integer_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_a_bool_or_numpy_count_is_an_integer():
    t = cheshire().tensor()
    assert marginalize(t, True) == marginalize(t, 1)
    assert basis_label(np.int64(5), (np.int64(2),) * 3) == (1, 0, 1)
    assert ghz_ket(np.int64(3), 2).dims == (2, 2, 2)


#: every domain error class, with the arguments its constructor takes
DOMAIN_ERRORS = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, WeakTensorError)
]
ARGUMENTS = {
    errors.ParseError: ("invalid JSON: Expecting value", 3, 7),
    errors.SchemaViolationError: ("amps[2]", "amplitude must be finite"),
}


@pytest.mark.parametrize("error", DOMAIN_ERRORS, ids=lambda cls: cls.__name__)
def test_every_domain_error_survives_pickling(error):
    # a process pool pickles a worker's exception to raise it in the caller
    original = error(*ARGUMENTS.get(error, ("shape (2, 2) is not (2, 3)",)))
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is error and str(copy) == str(original)
    for attribute in ("field", "message", "lineno", "colno"):
        assert getattr(copy, attribute, None) == getattr(original, attribute, None)
