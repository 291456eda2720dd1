import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weaktensor import (
    InvalidCountError,
    Ket,
    LengthMismatchError,
    MissingParamError,
    OrthogonalSelectionError,
    ShapeMismatchError,
    UnknownNameError,
    bell,
    build_named,
    cheshire,
    custom,
    ghz,
    ghz3_selected,
    ghz_ket,
    hardy,
    hardy_gamma,
    hardy_overlap_labels,
    make_ket,
    marginalize,
    total_sum,
    weak_tensor,
)
from oracles import hardy_family, random_selected_pair

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


# ---------------------------------------------------------------- bell / ghz


def test_bell_psi_plus_amplitudes():
    s = bell("psi+")
    np.testing.assert_array_equal(s.pre.amps, np.array([0.0, S2, S2, 0.0], dtype=complex))
    assert s.post is None


def test_bell_phi_minus_amplitudes():
    s = bell("phi-")
    np.testing.assert_array_equal(s.pre.amps, np.array([S2, 0.0, 0.0, -S2], dtype=complex))


def test_bell_psi_minus_expectation_components():
    t = bell("psi-").tensor()
    np.testing.assert_allclose(t.components, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


def test_bell_unknown_kind():
    with pytest.raises(ValueError):
        bell("omega+")


def test_ghz_3_qubits():
    s = ghz(3, 2)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = S2
    np.testing.assert_array_equal(s.pre.amps, expected)


def test_ghz_two_term_qutrits():
    k = ghz_ket(3, 3)
    expected = np.zeros(27, dtype=complex)
    expected[0] = expected[26] = S2
    np.testing.assert_array_equal(k.amps, expected)


def test_ghz_all_diagonal_qutrits():
    k = ghz_ket(3, 3, all_diagonal=True)
    expected = np.zeros(27, dtype=complex)
    expected[[0, 13, 26]] = S3
    np.testing.assert_array_equal(k.amps, expected)


def test_ghz_of_two_parties_is_bell_phi_plus():
    np.testing.assert_array_equal(ghz(2, 2).pre.amps, bell("phi+").pre.amps)


def test_ghz_invalid_counts():
    with pytest.raises(InvalidCountError):
        ghz(1, 2)
    with pytest.raises(InvalidCountError):
        ghz(3, 1)


# ---------------------------------------------------------------- cheshire


def test_cheshire_states_and_labels():
    s = cheshire()
    np.testing.assert_array_equal(s.pre.amps, np.array([S3, S3, 0.0, S3], dtype=complex))
    np.testing.assert_array_equal(s.post.amps, np.array([S3, -S3, 0.0, S3], dtype=complex))
    assert s.axis_labels == (("↑", "↓"), ("L", "R"))


def test_cheshire_tensor_and_marginals():
    t = cheshire().tensor()
    np.testing.assert_allclose(t.components, [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(marginalize(t, 1), [1.0, 0.0], atol=1e-12)  # position
    np.testing.assert_allclose(marginalize(t, 0), [0.0, 1.0], atol=1e-12)  # spin


def test_cheshire_overlap():
    assert cheshire().overlap() == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------- hardy


def test_hardy_states_unnormalized():
    s = hardy()
    np.testing.assert_array_equal(s.pre.amps, np.array([1.0, 0.0, 1.0, 1.0], dtype=complex))
    np.testing.assert_array_equal(s.post.amps, np.array([1.0, -1.0, -1.0, 1.0], dtype=complex))
    assert s.overlap() == pytest.approx(1.0)


def test_hardy_tensor_and_singles():
    t = hardy().tensor()
    np.testing.assert_allclose(t.components, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(marginalize(t, 0), [1.0, 0.0], atol=1e-12)  # positron
    np.testing.assert_allclose(marginalize(t, 1), [0.0, 1.0], atol=1e-12)  # electron


def test_hardy_overlap_relabeling():
    s = hardy_overlap_labels(hardy())
    assert s.axis_labels == (("O", "NO"), ("NO", "O"))
    np.testing.assert_array_equal(s.pre.amps, hardy().pre.amps)


def test_hardy_overlap_tensor_reads_by_label():
    s = hardy_overlap_labels(hardy())
    t = s.tensor()
    positron, electron = s.axis_labels
    value = {
        (p, e): t.component((positron.index(p), electron.index(e)))
        for p in ("O", "NO")
        for e in ("O", "NO")
    }
    assert value[("NO", "O")] == pytest.approx(1.0)
    assert value[("NO", "NO")] == pytest.approx(-1.0)
    assert value[("O", "O")] == pytest.approx(0.0)
    assert value[("O", "NO")] == pytest.approx(1.0)


def test_hardy_overlap_idempotent():
    once = hardy_overlap_labels(hardy())
    twice = hardy_overlap_labels(once)
    assert twice.axis_labels == once.axis_labels
    np.testing.assert_array_equal(twice.pre.amps, once.pre.amps)
    np.testing.assert_array_equal(twice.post.amps, once.post.amps)


def test_hardy_overlap_components_unchanged():
    np.testing.assert_array_equal(
        hardy_overlap_labels(hardy()).tensor().components, hardy().tensor().components
    )


def test_hardy_overlap_wrong_scenario():
    with pytest.raises(UnknownNameError):
        hardy_overlap_labels(cheshire())


# ---------------------------------------------------------------- hardy gamma


def test_hardy_gamma_pi():
    s = hardy_gamma(math.pi)
    np.testing.assert_allclose(s.pre.amps, [1.0, -1.0, 1.0, 1.0], atol=1e-15)
    assert s.overlap() == pytest.approx(2.0)
    t = s.tensor()
    np.testing.assert_allclose(t.components, [[0.5, 0.5], [-0.5, 0.5]], atol=1e-12)


@pytest.mark.parametrize("gamma", [0.1, 0.5, math.pi / 2, math.pi, 3.0, 6.0])
def test_hardy_gamma_total_sum_is_one(gamma):
    assert total_sum(hardy_gamma(gamma).tensor()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6])
def test_hardy_gamma_components_follow_closed_form(gamma):
    t = hardy_gamma(gamma).tensor()
    # a(L_p, L_e) = 1 / (1 - e^{i*gamma}), magnitude ~ 1/gamma
    closed = 1.0 / (1.0 - np.exp(1j * gamma))
    assert t.component((0, 0)) == pytest.approx(closed, rel=1e-9)
    assert abs(t.component((0, 0))) > 0.5 / gamma


def test_hardy_gamma_diverges_from_hardy_near_zero():
    # the family is a deformation, not a limit recovery
    gap = np.abs(hardy_gamma(1e-3).tensor().components - hardy().tensor().components)
    assert gap.max() > 100.0


def test_hardy_gamma_zero_is_orthogonal():
    with pytest.raises(OrthogonalSelectionError):
        hardy_gamma(0.0)
    with pytest.raises(OrthogonalSelectionError):
        hardy_gamma(2.0 * math.pi)


# ------------------------------------------- the class that holds both experiments

EPS = np.finfo(float).eps


def family_tensor(alpha):
    return weak_tensor(*hardy_family(alpha)).components.reshape(-1)


@given(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False).filter(
        lambda alpha: abs(1 - alpha) > 1e-6
    )
)
def test_hardy_family_follows_its_closed_form(alpha):
    closed = np.array([1, -alpha, -1, 1]) / (1 - alpha)
    assert np.abs(family_tensor(alpha) - closed).max() <= 4 * EPS * np.abs(closed).sum()


def test_hardy_family_at_zero_is_hardy_bit_for_bit():
    family, plain = family_tensor(0.0), hardy().tensor().components.reshape(-1)
    np.testing.assert_array_equal(family.view(np.uint64), plain.view(np.uint64))


@given(st.floats(1e-3, 2 * math.pi - 1e-3))
@example(0.3)
@example(1.0)
@example(math.pi)
def test_hardy_gamma_is_the_family_s_unit_circle(gamma):
    expected = hardy_gamma(gamma).tensor().components.reshape(-1)
    gap = np.abs(family_tensor(np.exp(1j * gamma)) - expected).max()
    assert gap <= 4 * EPS * np.abs(expected).sum()


@pytest.mark.parametrize("angle", [0.0, 1.0, math.pi / 2, math.pi, 4.0])
def test_hardy_family_is_continuous_at_hardy(angle):
    # each component moves by |alpha| / |1 - alpha| or less, so by at most
    # 2 |alpha| once |alpha| <= 1/2
    hardy_components = hardy().tensor().components.reshape(-1)
    for size in (0.5, 1e-2, 1e-5, 1e-9, 1e-13, 1e-300):
        alpha = size * np.exp(1j * angle)
        gap = np.abs(family_tensor(alpha) - hardy_components).max()
        assert gap <= 2 * size + 4 * EPS


@given(st.floats(-1e6, 1 - 1e-6))
def test_the_negative_weak_value_holds_for_every_real_alpha_below_one(alpha):
    # the (R_p, L_e) component, flat index 2, is -1 / (1 - alpha)
    value = family_tensor(alpha)[2]
    assert value.real < 0 and value.imag == 0
    assert family_tensor(2 - alpha)[2].real > 0  # mirrored past the singular point alpha = 1


# ---------------------------------------------------------------- ghz3 / custom


def test_ghz3_selected_tensor():
    s = ghz3_selected()
    assert s.overlap() == pytest.approx(1.0 / 3.0)
    t = s.tensor()
    assert t.component((0, 0, 0)) == pytest.approx(1.0)
    assert t.component((1, 1, 1)) == pytest.approx(1.0)
    assert t.component((2, 2, 2)) == pytest.approx(-1.0)
    off = t.components.copy()
    off[0, 0, 0] = off[1, 1, 1] = off[2, 2, 2] = 0.0
    assert np.max(np.abs(off)) < 1e-12
    assert np.count_nonzero(np.abs(off) < 1e-12) == 27


def test_custom_trivial():
    s = custom(make_ket((2,), [1, 0]), make_ket((2,), [1, 0]))
    np.testing.assert_allclose(s.tensor().components, [1.0, 0.0], atol=1e-12)


def test_custom_label_mismatch():
    with pytest.raises(LengthMismatchError):
        custom(make_ket((2,), [1, 0]), labels=[["a", "b", "c"]])
    with pytest.raises(LengthMismatchError):
        custom(make_ket((2, 2), [1, 0, 0, 0]), labels=[["a", "b"]])


def test_custom_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        custom(make_ket((2,), [1, 0]), make_ket((3,), [1, 0, 0]))


def test_custom_random_qutrit_pair_sums_to_one():
    rng = np.random.default_rng(31)
    pre_amps, post_amps = random_selected_pair(rng, (3, 3))
    s = custom(Ket((3, 3), pre_amps), Ket((3, 3), post_amps))
    assert total_sum(s.tensor()) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- equivalence


def test_cheshire_equals_hardy_after_axis_swap():
    # documented relabeling: hardy axes swapped to (electron, positron),
    # identifying L_e -> up, R_e -> down, L_p -> L, R_p -> R
    c = cheshire().tensor().components
    h = hardy().tensor().components
    np.testing.assert_allclose(c, h.T, atol=1e-10)


def test_cheshire_and_hardy_value_multisets_match():
    c = sorted(np.round(cheshire().tensor().components.real.reshape(-1), 9).tolist())
    h = sorted(np.round(hardy().tensor().components.real.reshape(-1), 9).tolist())
    assert c == h == [-1.0, 0.0, 1.0, 1.0]


# ---------------------------------------------------------------- registry


def test_builders_are_deterministic():
    for build in (cheshire, hardy, ghz3_selected, lambda: bell("psi+"), lambda: ghz(3, 3)):
        a, b = build(), build()
        np.testing.assert_array_equal(a.pre.amps, b.pre.amps)
        if a.post is not None:
            np.testing.assert_array_equal(a.post.amps, b.post.amps)


def test_all_post_selected_builtins_are_non_orthogonal():
    for name in ("cheshire", "hardy", "hardy-overlap", "ghz3-selected"):
        s = build_named(name)
        assert s.post is None or abs(s.overlap()) > 0


def test_build_named_covers_all_names():
    from weaktensor import SCENARIO_NAMES

    for name in SCENARIO_NAMES:
        gamma = 0.7 if name == "hardy-gamma" else None
        s = build_named(name, gamma=gamma)
        assert s.pre.dim >= 2


def test_build_named_gamma_required():
    with pytest.raises(MissingParamError):
        build_named("hardy-gamma")


def test_build_named_unknown():
    with pytest.raises(ValueError):
        build_named("nonsense")
