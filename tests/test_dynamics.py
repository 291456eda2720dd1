import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from weaktensor import (
    DiagonalHamiltonian,
    HamiltonianTerm,
    Ket,
    MissingParamError,
    NonFiniteAmplitudeError,
    ProjectorProduct,
    ShapeMismatchError,
    UnknownNameError,
    ZeroVectorError,
    build_hamiltonian,
    compare_states,
    epr_pair,
    evolve,
    exact_counterpart,
    expectation_tensor,
    flat_index,
    ghz_ket,
    joint_hamiltonian,
    make_ket,
    norm,
    phase_report,
    product_form,
    tensor_product,
)
from oracles import random_state

S2 = 1.0 / math.sqrt(2.0)

#: selector of the joint |10>|10> label of two EPR pairs
JOINT_10_10 = ProjectorProduct(((0, 1), (1, 0), (2, 1), (3, 0)))


def epr_epr():
    return tensor_product(epr_pair(), epr_pair())


# ---------------------------------------------------------------- hamiltonians


def test_joint_epr_coupling_has_single_energy():
    h = build_hamiltonian((2, 2, 2, 2), [HamiltonianTerm(0.8, JOINT_10_10)])
    expected = np.zeros(16)
    expected[flat_index((1, 0, 1, 0), (2, 2, 2, 2))] = 0.8
    np.testing.assert_array_equal(h.energies, expected)
    np.testing.assert_array_equal(joint_hamiltonian("psit1", eps=0.8).energies, expected)


def test_three_pair_joint_coupling_has_single_energy():
    h = joint_hamiltonian("E111", eps=0.6)
    expected = np.zeros(64)
    expected[flat_index((1, 0, 1, 0, 1, 0), (2,) * 6)] = 0.6
    np.testing.assert_array_equal(h.energies, expected)


def test_two_term_epr_coupling():
    h = joint_hamiltonian("Hamm2", eps=0.3, eps2=0.9)
    expected = np.zeros((16, 4))  # rows: pairs 1 and 2; columns: the uncoupled pair 3
    expected[flat_index((1, 0, 1, 0), (2, 2, 2, 2))] = 0.3
    expected[flat_index((0, 1, 0, 1), (2, 2, 2, 2))] = 0.9
    np.testing.assert_array_equal(h.energies, expected.reshape(-1))


def test_empty_term_list_gives_zero_hamiltonian():
    h = build_hamiltonian((2, 3), [])
    np.testing.assert_array_equal(h.energies, np.zeros(6))


def test_overlapping_terms_add():
    t1 = HamiltonianTerm(0.25, ProjectorProduct(((0, 1),)))
    t2 = HamiltonianTerm(0.5, ProjectorProduct(((0, 1), (1, 0))))
    h = build_hamiltonian((2, 2), [t1, t2])
    np.testing.assert_array_equal(h.energies, [0.0, 0.0, 0.75, 0.25])


def test_hamiltonian_term_validation():
    with pytest.raises(ValueError):
        HamiltonianTerm(float("inf"), ProjectorProduct())
    from weaktensor import SubsystemOutOfRangeError

    with pytest.raises(SubsystemOutOfRangeError):
        build_hamiltonian((2, 2), [HamiltonianTerm(1.0, ProjectorProduct(((5, 0),)))])


def test_ghz_coupling_energy_on_all_zeros():
    h = joint_hamiltonian("GHZ2", phi=1.7)
    expected = np.zeros(64)
    expected[0] = 1.7
    np.testing.assert_array_equal(h.energies, expected)


# ---------------------------------------------------------------- evolution


def test_evolve_at_time_zero_is_identity():
    h = joint_hamiltonian("psit1", eps=0.9)
    state = epr_epr()
    np.testing.assert_array_equal(evolve(state, h, 0.0).amps, state.amps)


def test_evolve_phases_only_the_joint_epr_label():
    eps, t = 0.9, 1.3
    h = joint_hamiltonian("psit1", eps=eps)
    state = epr_epr()
    out = evolve(state, h, t)
    joint = flat_index((1, 0, 1, 0), (2, 2, 2, 2))
    assert out.amps[joint] == pytest.approx(state.amps[joint] * np.exp(-1j * eps * t))
    untouched = np.arange(16) != joint
    np.testing.assert_array_equal(out.amps[untouched], state.amps[untouched])


def test_evolve_phases_only_the_joint_ghz_label():
    phi, t = 0.4, 2.1
    state = tensor_product(ghz_ket(3, 2), ghz_ket(3, 2))
    out = evolve(state, joint_hamiltonian("GHZ2", phi=phi), t)
    assert out.amps[0] == pytest.approx(state.amps[0] * np.exp(-1j * phi * t))
    np.testing.assert_array_equal(out.amps[1:], state.amps[1:])


def test_evolve_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        evolve(epr_pair(), joint_hamiltonian("psit1", eps=1.0), 0.5)


def test_evolve_matches_dense_expm_oracle():
    rng = np.random.default_rng(41)
    cases = [
        (joint_hamiltonian("psit1", eps=0.7), (2, 2, 2, 2)),
        (joint_hamiltonian("GHZ2", phi=0.3), (2,) * 6),
        (joint_hamiltonian("Hamm2", eps=0.7, eps2=1.9), (2,) * 6),
        (
            build_hamiltonian((2, 3), [HamiltonianTerm(0.5, ProjectorProduct(((1, 2),)))]),
            (2, 3),
        ),
    ]
    for h, dims in cases:
        state = Ket(dims, random_state(rng, dims))
        t = 1.234
        fast = evolve(state, h, t)
        u = expm(-1j * np.diag(h.energies) * t)
        np.testing.assert_allclose(fast.amps, u @ state.amps, atol=1e-10)


def test_evolve_composition_additive_in_time():
    h = joint_hamiltonian("Hamm2", eps=0.31, eps2=0.77)
    rng = np.random.default_rng(42)
    state = Ket((2,) * 6, random_state(rng, (2,) * 6))
    a = evolve(evolve(state, h, 0.6), h, 1.1)
    b = evolve(state, h, 1.7)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)


def test_evolve_preserves_amplitude_magnitudes():
    h = joint_hamiltonian("psit1", eps=1.1)
    state = epr_epr()
    out = evolve(state, h, 17.3)
    np.testing.assert_allclose(np.abs(out.amps), np.abs(state.amps), rtol=1e-14, atol=1e-15)


def test_norm_drift_over_accumulated_steps():
    # long evolutions are single closed-form calls: accumulate 1e6 steps of
    # time and evolve once
    h = joint_hamiltonian("psit1", eps=0.7)
    state = epr_epr()
    dt, steps = 1e-3, 10**6
    out = evolve(state, h, steps * dt)
    assert abs(norm(out) - norm(state)) < 1e-12
    # a chain of 1000 repeated applications also stays within the budget
    chained = state
    for _ in range(1000):
        chained = evolve(chained, h, dt)
    assert abs(norm(chained) - norm(state)) < 1e-12


def test_evolve_periodicity_of_single_coupling():
    eps = 0.9
    h = joint_hamiltonian("psit1", eps=eps)
    state = epr_epr()
    period = 2.0 * math.pi / eps
    for t in (0.0, 0.4, 3.3):
        a = evolve(state, h, t)
        b = evolve(state, h, t + period)
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)


def random_energies(rng, d: int, distinct: bool) -> np.ndarray:
    """``d`` distinct energies, or seven levels shared by many states, with
    -0.0 beside 0.0."""
    if distinct:
        return rng.standard_normal(d)
    energies = rng.integers(-3, 4, d) * 0.37
    energies[rng.random(d) < 0.2] = -0.0
    return energies


def per_state_evolution(state, h, t):
    """The exponential of every basis state's own energy; ``None`` where an
    amplitude is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        amps = state.amps * np.exp(-1j * h.energies * t)
    return amps if np.isfinite(amps).all() else None


@settings(max_examples=80)
@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=5).map(tuple),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.3, -2.7, -1e5, 1e308]) | st.floats(-1e3, 1e3),
)
def test_evolve_takes_the_per_state_exponential_bit_for_bit(dims, seed, distinct, t):
    rng = np.random.default_rng(seed)
    state = make_ket(dims, random_state(rng, dims))
    h = DiagonalHamiltonian(dims, random_energies(rng, state.dim, distinct))
    expected = per_state_evolution(state, h, t)
    if expected is None:  # E * t overflowed
        with pytest.raises(NonFiniteAmplitudeError, match="^amplitudes must be finite$"):
            evolve(state, h, t)
    else:
        assert evolve(state, h, t).amps.tobytes() == expected.tobytes()


@pytest.mark.parametrize("distinct", [False, True])
def test_evolve_is_bit_for_bit_beyond_one_block(distinct):
    # 2**16 amplitudes: numpy may now reuse a temporary array for the product
    rng = np.random.default_rng(16)
    dims = (2,) * 16
    state = make_ket(dims, random_state(rng, dims))
    h = DiagonalHamiltonian(dims, random_energies(rng, state.dim, distinct))
    for t in (1.3, -0.7):
        assert evolve(state, h, t).amps.tobytes() == per_state_evolution(state, h, t).tobytes()


def test_a_hamiltonian_computes_its_spectrum_once(monkeypatch):
    h = joint_hamiltonian("Hamm2", eps=0.9, eps2=0.4)
    state = product_form("Hamm2", 0.0, eps=0.9, eps2=0.4)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    evolve(state, h, 1.0)
    evolve(state, h, 2.0)
    assert len(calls) == 1
    levels, index = h.spectrum
    assert levels.size == 3 and levels[index].tobytes() == h.energies.tobytes()
    evolve(state, DiagonalHamiltonian(h.dims, h.energies), 1.0)  # a new one computes its own
    assert len(calls) == 2
    signed = DiagonalHamiltonian((2, 2), [0.0, -0.0, 0.37, 0.0])
    levels, index = signed.spectrum  # levels are told apart by their bits
    assert levels.size == 3 and levels[index].tobytes() == signed.energies.tobytes()


# ---------------------------------------------------------------- epr pair


def test_epr_pair_amplitudes():
    np.testing.assert_array_equal(epr_pair().amps, np.array([0.0, -S2, S2, 0.0], dtype=complex))


def test_epr_pair_expectation_tensor():
    t = expectation_tensor(epr_pair())
    np.testing.assert_allclose(t.components, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


# ---------------------------------------------------------------- product forms


def test_product_forms_at_time_zero_are_exact_products():
    np.testing.assert_array_equal(product_form("psit1", 0.0, eps=0.9).amps, epr_epr().amps)
    three_epr = tensor_product(epr_epr(), epr_pair())
    np.testing.assert_array_equal(product_form("E111", 0.0, eps=0.9).amps, three_epr.amps)
    np.testing.assert_array_equal(
        product_form("Hamm2", 0.0, eps=0.9, eps2=0.3).amps, three_epr.amps
    )
    ghz_ghz = tensor_product(ghz_ket(3, 2), ghz_ket(3, 2))
    np.testing.assert_array_equal(product_form("GHZ2", 0.0, phi=0.4).amps, ghz_ghz.amps)
    ghz_cubed = tensor_product(ghz_ghz, ghz_ket(3, 2))
    np.testing.assert_array_equal(
        product_form("PsiGHZ11", 0.0, phi=0.4, eps=0.1).amps, ghz_cubed.amps
    )


def test_psit1_joint_amplitude_at_quarter_period():
    # both factors carry e^{-i*eps*t} on |10>, so the joint |10>|10>
    # amplitude is e^{-i*pi}/2 = -1/2 at eps*t = pi/2
    state = product_form("psit1", math.pi / 2.0, eps=1.0)
    joint = flat_index((1, 0, 1, 0), (2, 2, 2, 2))
    assert state.amps[joint] == pytest.approx(-0.5)


def test_hamm2_factor_phases():
    eps, eps2, t = 0.9, 0.4, 1.7
    state = product_form("Hamm2", t, eps=eps, eps2=eps2)
    dims = (2,) * 6
    label_value = {
        # (pair1, pair2, pair3) components of the factored form
        (1, 0, 1, 0, 1, 0): np.exp(-1j * eps * t)
        * np.exp(-1j * (eps - eps2) * t)
        * (S2**3),
        (1, 0, 1, 0, 0, 1): np.exp(-1j * eps * t)
        * np.exp(-1j * (eps - eps2) * t)
        * np.exp(-1j * eps2 * t)
        * -(S2**3),
        (0, 1, 0, 1, 1, 0): S2**3,
    }
    for label, value in label_value.items():
        assert state.amps[flat_index(label, dims)] == pytest.approx(value)


def test_ghz2_phases():
    phi, t = 0.8, 0.9
    state = product_form("GHZ2", t, phi=phi)
    dims = (2,) * 6
    assert state.amps[flat_index((0,) * 6, dims)] == pytest.approx(
        0.5 * np.exp(-2j * phi * t)
    )
    assert state.amps[flat_index((0, 0, 0, 1, 1, 1), dims)] == pytest.approx(
        0.5 * np.exp(-1j * phi * t)
    )
    assert state.amps[flat_index((1,) * 6, dims)] == pytest.approx(0.5)


def test_psighz11_with_zero_eps_leaves_cube2_unphased():
    phi, t = 0.6, 2.0
    state = product_form("PsiGHZ11", t, phi=phi, eps=0.0)
    reference = product_form("PsiGHZ11", 0.0, phi=phi, eps=0.0)
    phases = phase_report(state, reference)
    # the phase depends only on cubes 1 and 3: flipping cube 2 changes nothing
    for c1 in ((0, 0, 0), (1, 1, 1)):
        for c3 in ((0, 0, 0), (1, 1, 1)):
            low = phases[c1 + (0, 0, 0) + c3]
            high = phases[c1 + (1, 1, 1) + c3]
            assert low == pytest.approx(high, abs=1e-12)


def test_product_form_errors():
    for route in (lambda name, **params: product_form(name, 1.0, **params), joint_hamiltonian):
        with pytest.raises(UnknownNameError):
            route("psit9", eps=1.0)
        with pytest.raises(MissingParamError):
            route("psit1")
        with pytest.raises(MissingParamError):
            route("Hamm2", eps=1.0)
        with pytest.raises(MissingParamError):
            route("PsiGHZ11", phi=1.0)


# -------------------------------------------------- exact vs product forms


def test_exact_counterpart_at_time_zero():
    np.testing.assert_array_equal(exact_counterpart("psit1", 0.0, eps=1.0).amps, epr_epr().amps)


def test_exact_and_product_form_disagree_at_quarter_period():
    t = math.pi / 2.0
    report = compare_states(
        exact_counterpart("psit1", t, eps=1.0), product_form("psit1", t, eps=1.0)
    )
    assert report.fidelity < 1.0
    assert report.fidelity == pytest.approx(0.625, abs=1e-12)


def test_exact_counterpart_families_run():
    for family, params in [
        ("psit1", dict(eps=0.5)),
        ("E111", dict(eps=0.5)),
        ("Hamm2", dict(eps=0.5, eps2=0.2)),
        ("GHZ2", dict(phi=0.5)),
        ("PsiGHZ11", dict(phi=0.5, eps=0.2)),
    ]:
        exact = exact_counterpart(family, 0.7, **params)
        form = product_form(family, 0.7, **params)
        assert exact.dims == form.dims
        assert norm(exact) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- comparison


def test_compare_states_identical():
    state = epr_epr()
    report = compare_states(state, state)
    assert report.fidelity == pytest.approx(1.0)
    assert report.max_component_diff == 0.0


def test_compare_states_global_phase_invisible():
    state = epr_epr()
    rotated = Ket(state.dims, np.exp(0.7j) * state.amps)
    report = compare_states(state, rotated)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.max_component_diff < 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="the fidelity squares the norms, and (1.4e200) ** 2 overflows a Python float",
)
def test_compare_states_fidelity_does_not_depend_on_scale():
    # <a|b> = 0.7e400, |a|^2 = 2e400, |b|^2 = 1.09e400: the true fidelity is 0.49 / 2.18
    report = compare_states(make_ket((2,), [1e200, 1e200]), make_ket((2,), [1e200, -3e199]))
    assert report.fidelity == pytest.approx(0.49 / 2.18, abs=1e-12)


def test_compare_states_errors():
    with pytest.raises(ShapeMismatchError):
        compare_states(epr_pair(), epr_epr())
    with pytest.raises(ZeroVectorError):
        compare_states(epr_pair(), Ket((2, 2), np.zeros(4)))


# ---------------------------------------------------------------- phase report


def test_phase_report_of_joint_epr_evolution():
    eps, t = 0.9, 0.8
    state = epr_epr()
    evolved = evolve(state, joint_hamiltonian("psit1", eps=eps), t)
    report = phase_report(evolved, state)
    assert set(report) == {(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)}
    assert report[(1, 0, 1, 0)] == pytest.approx(-eps * t)
    for label in ((0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)):
        assert report[label] == 0.0


def test_phase_report_against_itself_is_zero():
    state = product_form("GHZ2", 1.3, phi=0.7)
    report = phase_report(state, state)
    assert report
    assert all(p == 0.0 for p in report.values())


def test_phase_report_skips_vanishing_amplitudes():
    a = Ket((2,), np.array([1.0, 0.0]))
    b = Ket((2,), np.array([1.0, 1.0]))
    assert set(phase_report(a, b)) == {(0,)}


def test_phase_report_range():
    # a phase just past pi wraps into (-pi, pi]
    a = Ket((2,), np.array([np.exp(1j * (math.pi + 0.1)), 1.0]))
    b = Ket((2,), np.array([1.0, 1.0]))
    phase = phase_report(a, b)[(0,)]
    assert -math.pi < phase <= math.pi
    assert phase == pytest.approx(-math.pi + 0.1)


def test_time_must_be_one_real_number():
    from weaktensor import NonFiniteEnergyError

    h = build_hamiltonian((2, 2), [HamiltonianTerm(1.0, ProjectorProduct(((0, 1), (1, 0))))])
    # not one real number: a complex value, a string, None, an array
    for bad in (2j, "1", None, np.array([1.0, 2.0])):
        with pytest.raises(NonFiniteEnergyError):
            evolve(epr_pair(), h, bad)
    for route in (product_form, exact_counterpart):
        with pytest.raises(NonFiniteEnergyError):
            route("psit1", 3j, eps=1.0)
    # a real but non-finite time is refused before any angle is formed
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteEnergyError, match="^time must be finite$"):
            evolve(epr_pair(), h, bad)
    want = evolve(epr_pair(), h, 2.0).amps.tobytes()
    for good in (2, np.int64(2), np.float32(2.0), Fraction(2), 2 + 0j, np.array(2.0)):
        assert evolve(epr_pair(), h, good).amps.tobytes() == want


def test_non_finite_energies_are_domain_errors():
    from weaktensor import DiagonalHamiltonian, NonFiniteEnergyError, WeakTensorError

    # not one real number: a nonzero imaginary part (also NaN), strings, None, a list;
    # beyond the float range: 10**400
    for bad in (float("nan"), float("inf"), 1 + 1j, 1j, complex(0, float("nan")), "x", "1.5",
                None, [1.0, 2.0], 10**400):
        with pytest.raises(NonFiniteEnergyError) as info:
            HamiltonianTerm(bad, ProjectorProduct())
        assert isinstance(info.value, WeakTensorError) and isinstance(info.value, ValueError)
        with pytest.raises(NonFiniteEnergyError):
            DiagonalHamiltonian((2,), [0.0, bad])
    for bad in (np.array([1 + 1j, 0]), ["a", 0], [Fraction(1, 2), Decimal("1.5")]):
        with pytest.raises(NonFiniteEnergyError):
            DiagonalHamiltonian((2,), bad)
    # real: bool, integer and float values, numbers.Real objects, complex with imag exactly 0
    for good in ([True, 1], [np.int8(1), 1.0], [Fraction(1), np.float32(1)], np.array([1 + 0j, 1])):
        assert np.array_equal(DiagonalHamiltonian((2,), good).energies, [1.0, 1.0])
    assert HamiltonianTerm(1 + 0j, ProjectorProduct()).coupling == 1.0
