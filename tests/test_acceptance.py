"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` for the explicit
PASS lines).
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from weaktensor import (
    Ket,
    ProjectorProduct,
    bell,
    build_named,
    cheshire,
    evolve,
    exact_counterpart,
    expectation_tensor,
    flat_index,
    ghz3_selected,
    ghz_ket,
    compare_states,
    hardy,
    hardy_overlap_labels,
    joint_hamiltonian,
    marginalize,
    norm,
    phase_report,
    product_form,
    epr_pair,
    render_cube,
    render_grid,
    render_svg,
    scheme_document,
    document_to_json,
    stabilizer_eigenvalue,
    tensor_product,
    total_sum,
    weak_tensor,
    weak_value,
)
from oracles import (
    all_projector_products,
    dense_pauli_string,
    dense_projector_product,
    random_selected_pair,
    weak_value_observable,
)

TOL = 1e-10


def done(n: int, text: str) -> None:
    print(f"PASS criterion {n:02d}: {text}")


def test_criterion_01_cheshire_tensor_and_marginals():
    t = cheshire().tensor()
    # components in (spin, position) order: a(up,L), a(up,R), a(down,L), a(down,R)
    np.testing.assert_allclose(t.components, [[1.0, -1.0], [0.0, 1.0]], atol=TOL)
    np.testing.assert_allclose(marginalize(t, 1), [1.0, 0.0], atol=TOL)  # position L, R
    np.testing.assert_allclose(marginalize(t, 0), [0.0, 1.0], atol=TOL)  # spin up, down
    done(1, "cheshire tensor ((1,-1),(0,1)) with marginals (1,0)/(0,1)")


def test_criterion_02_hardy_tensor_singles_and_forbidden_joint():
    s = hardy()
    t = s.tensor()
    np.testing.assert_allclose(t.components, [[1.0, 0.0], [-1.0, 1.0]], atol=TOL)
    electron = marginalize(t, 1)
    positron = marginalize(t, 0)
    # singles (L_e, R_e, L_p, R_p) = (0, 1, 1, 0)
    np.testing.assert_allclose(
        [electron[0], electron[1], positron[0], positron[1]], [0.0, 1.0, 1.0, 0.0], atol=TOL
    )
    forbidden = weak_value(s.pre, s.post, ProjectorProduct(((0, 0), (1, 1))))
    assert abs(forbidden) < TOL
    done(2, "hardy tensor (1,0,-1,1), singles (0,1,1,0), forbidden joint 0")


def test_criterion_03_cheshire_hardy_equivalence():
    c = cheshire().tensor().components
    h = hardy().tensor().components
    # documented relabeling: swap hardy axes to (electron, positron) and
    # identify L_e->up, R_e->down, L_p->L, R_p->R
    np.testing.assert_allclose(c, np.transpose(h), atol=TOL)
    relabeled = hardy_overlap_labels(hardy())
    np.testing.assert_allclose(relabeled.tensor().components, h, atol=TOL)
    done(3, "cheshire tensor equals relabeled hardy tensor component-wise")


def test_cheshire_hardy_have_exactly_two_relabelings():
    c = cheshire().tensor().components
    h = hardy().tensor().components
    # all 8 relabelings of a 2x2 tensor: axis order x a level order per axis
    found = {
        (axes, flips)
        for axes in ((0, 1), (1, 0))
        for flips in itertools.product((False, True), repeat=2)
        if np.abs(np.flip(np.transpose(h, axes), [k for k in (0, 1) if flips[k]]) - c).max()
        <= 1e-12 * np.abs(c).sum()
    }
    # the documented axis swap, and both axes kept with both level orders reversed
    assert found == {((1, 0), (False, False)), ((0, 1), (True, True))}


def test_criterion_04_three_level_ghz_selection():
    t = ghz3_selected().tensor()
    assert abs(t.component((0, 0, 0)) - 1.0) < TOL
    assert abs(t.component((1, 1, 1)) - 1.0) < TOL
    assert abs(t.component((2, 2, 2)) + 1.0) < TOL
    off = t.components.copy()
    off[0, 0, 0] = off[1, 1, 1] = off[2, 2, 2] = 0.0
    assert np.count_nonzero(np.abs(off) > TOL) == 0 and off.size - 3 == 24
    assert abs(total_sum(t) - 1.0) < TOL
    done(4, "ghz3-selected diagonal (1,1,-1), 24 zeros, total 1")


def test_criterion_05_expectation_schemes():
    for kind in ("psi+", "psi-"):
        t = bell(kind).tensor()
        np.testing.assert_allclose(t.components, [[0.0, 0.5], [0.5, 0.0]], atol=TOL)
    for kind in ("phi+", "phi-"):
        t = bell(kind).tensor()
        np.testing.assert_allclose(t.components, [[0.5, 0.0], [0.0, 0.5]], atol=TOL)
    t32 = expectation_tensor(ghz_ket(3, 2))
    assert abs(t32.component((0, 0, 0)) - 0.5) < TOL
    assert abs(t32.component((1, 1, 1)) - 0.5) < TOL
    t33 = expectation_tensor(ghz_ket(3, 3))
    assert abs(t33.component((0, 0, 0)) - 0.5) < TOL
    assert abs(t33.component((2, 2, 2)) - 0.5) < TOL
    done(5, "Bell off-diagonal 1/2 and GHZ(3,2)/GHZ(3,3) diagonal 1/2")


def test_criterion_06_completeness_and_marginal_consistency():
    rng = np.random.default_rng(2026)
    shapes = [(2, 2), (2, 3), (3, 3, 3)]
    for i in range(200):
        dims = shapes[i % len(shapes)]
        pre_amps, post_amps = random_selected_pair(rng, dims)
        pre, post = Ket(dims, pre_amps), Ket(dims, post_amps)
        t = weak_tensor(pre, post)
        assert abs(total_sum(t) - 1.0) < TOL
        for axis in range(len(dims)):
            for level, value in enumerate(marginalize(t, axis)):
                direct = weak_value(pre, post, ProjectorProduct(((axis, level),)))
                assert abs(value - direct) < TOL
    done(6, "200 random pairs: total sum 1 and marginals match direct singles")


def test_criterion_07_oracle_equivalence_exhaustive_products():
    rng = np.random.default_rng(2027)
    shapes = [
        (2,), (3,), (4,), (8,), (2, 2), (2, 3), (3, 3), (4, 4),
        (2, 5), (2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2), (2,) * 6,
    ]
    assert all(math.prod(dims) <= 64 for dims in shapes)
    pairs_checked = 0
    while pairs_checked < 50:
        dims = shapes[pairs_checked % len(shapes)]
        pre_amps, post_amps = random_selected_pair(rng, dims)
        pre, post = Ket(dims, pre_amps), Ket(dims, post_amps)
        for factors in all_projector_products(dims):
            fast = weak_value(pre, post, ProjectorProduct(factors))
            oracle = weak_value_observable(pre, post, dense_projector_product(factors, dims))
            assert abs(fast - oracle) < TOL
        pairs_checked += 1
    done(7, "masking equals dense-matrix oracle on every product, 50 pairs, D <= 64")


def test_criterion_08_dynamics_exactness():
    eps, phi, t = 0.9, 0.4, 1.3

    state = tensor_product(epr_pair(), epr_pair())
    h4 = joint_hamiltonian("psit1", eps=eps)
    out = evolve(state, h4, t)
    joint = flat_index((1, 0, 1, 0), state.dims)
    assert abs(out.amps[joint] - state.amps[joint] * np.exp(-1j * eps * t)) < TOL
    others = np.arange(state.dim) != joint
    np.testing.assert_array_equal(out.amps[others], state.amps[others])

    ghz2 = tensor_product(ghz_ket(3, 2), ghz_ket(3, 2))
    h6 = joint_hamiltonian("GHZ2", phi=phi)
    out6 = evolve(ghz2, h6, t)
    assert abs(out6.amps[0] - ghz2.amps[0] * np.exp(-1j * phi * t)) < TOL
    np.testing.assert_array_equal(out6.amps[1:], ghz2.amps[1:])

    for h, s in ((h4, state), (h6, ghz2)):
        u = expm(-1j * np.diag(h.energies) * t)
        np.testing.assert_allclose(evolve(s, h, t).amps, u @ s.amps, atol=TOL)

    # unitarity and t-additivity
    assert abs(norm(evolve(state, h4, 1e-3 * 10**6)) - 1.0) < 1e-12
    a = evolve(evolve(state, h4, 0.7), h4, 0.6)
    b = evolve(state, h4, 1.3)
    np.testing.assert_allclose(a.amps, b.amps, atol=TOL)
    done(8, "joint-projector evolution phases one amplitude and matches expm")


def test_criterion_09_product_form_transcriptions():
    epr = epr_pair()
    epr2 = tensor_product(epr, epr)
    epr3 = tensor_product(epr2, epr)
    ghz = ghz_ket(3, 2)
    ghz2 = tensor_product(ghz, ghz)
    ghz3 = tensor_product(ghz2, ghz)
    np.testing.assert_array_equal(product_form("psit1", 0.0, eps=1.0).amps, epr2.amps)
    np.testing.assert_array_equal(product_form("E111", 0.0, eps=1.0).amps, epr3.amps)
    np.testing.assert_array_equal(product_form("Hamm2", 0.0, eps=1.0, eps2=0.5).amps, epr3.amps)
    np.testing.assert_array_equal(product_form("GHZ2", 0.0, phi=1.0).amps, ghz2.amps)
    np.testing.assert_array_equal(
        product_form("PsiGHZ11", 0.0, phi=1.0, eps=0.5).amps, ghz3.amps
    )

    # eps = 0 leaves cube 2 with zero relative phase (the plain GHZ state)
    phases = phase_report(
        product_form("PsiGHZ11", 2.0, phi=0.6, eps=0.0),
        product_form("PsiGHZ11", 0.0, phi=0.6, eps=0.0),
    )
    for c1 in ((0, 0, 0), (1, 1, 1)):
        for c3 in ((0, 0, 0), (1, 1, 1)):
            assert abs(phases[c1 + (0, 0, 0) + c3] - phases[c1 + (1, 1, 1) + c3]) < TOL

    # the documented discrepancy: exact vs product form at eps*t = pi/2
    t = math.pi / 2.0
    report = compare_states(
        exact_counterpart("psit1", t, eps=1.0), product_form("psit1", t, eps=1.0)
    )
    assert report.fidelity < 1.0
    done(9, "product forms exact at t=0; cube-2 unphased at eps=0; fidelity gap reported")


def test_criterion_10_ghz_stabilizers():
    ghz = ghz_ket(3, 2)
    expected = {"XXX": 1.0, "YYX": -1.0, "YXY": -1.0, "XYY": -1.0}
    for letters, value in expected.items():
        assert stabilizer_eigenvalue(ghz, letters) == pytest.approx(value, abs=TOL)
        # dense oracle: lam from the matrix route, checked as an eigenvalue
        applied = dense_pauli_string(letters) @ ghz.amps
        lam = complex(np.vdot(ghz.amps, applied))
        assert np.max(np.abs(applied - lam * ghz.amps)) < TOL
        assert lam.real == pytest.approx(value, abs=TOL)
    done(10, "GHZ stabilizer eigenvalues +1 (XXX) and -1 (YYX, YXY, XYY)")


def test_criterion_11_rendering_goldens_and_json_round_trip(tmp_path):
    import json
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    for name in ("cheshire", "hardy-overlap", "ghz3-selected"):
        s = build_named(name)
        t = s.tensor()
        text = render_grid(t, s.axis_labels) if t.rank == 2 else render_cube(t, s.axis_labels)
        svg = render_svg(t, s.axis_labels)
        assert text.encode("utf-8") == (golden / f"{name}.txt").read_bytes()
        assert svg == (golden / f"{name}.svg").read_bytes()
        # byte stability across repeated renders
        assert svg == render_svg(t, s.axis_labels)

        payload = json.loads(document_to_json(scheme_document(s)))
        for written, original in zip(payload["components"], t.components.reshape(-1)):
            assert written[0] == float(original.real)
            assert written[1] == float(original.imag)
    done(11, "text and SVG goldens byte-stable; JSON round trip bit-exact")


def test_criterion_12_no_noise_reproduction_attempted():
    # no statistical or experimental datasets exist to reproduce; acceptance
    # rests on the exact-value and property suites above
    import weaktensor

    assert not any("noise" in name or "sample" in name for name in weaktensor.__all__)
    done(12, "exact-value and property suites only; no measurement-noise modeling")
