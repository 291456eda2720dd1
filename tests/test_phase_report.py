"""The masked phase report and the flat-order label stream against their
per-index forms: identical keys in identical order, bit-identical phases."""

import math

import numpy as np
import pytest

from weaktensor import Ket, basis_label, basis_labels, phase_report
from weaktensor.dynamics import PHASE_AMP_TOL
from oracles import phase_report_loop, random_state

SHAPES = [(2,), (3,), (2, 3, 5), (3, 3, 4, 2), (5, 2, 2, 3), (2,) * 8]


def assert_same_report(state, reference):
    got = phase_report(state, reference)
    want = phase_report_loop(state, reference, PHASE_AMP_TOL)
    assert list(got) == list(want)
    assert all(type(v) is float for v in got.values())
    # bit patterns, so a -0.0 against +0.0 difference would show
    assert [np.float64(v).tobytes() for v in got.values()] == [
        np.float64(v).tobytes() for v in want.values()
    ]
    return got


@pytest.mark.parametrize("dims", SHAPES)
def test_basis_labels_are_flat_index_order(dims):
    d = math.prod(dims)
    assert list(basis_labels(dims)) == [basis_label(k, dims) for k in range(d)]


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_states_match_the_loop(dims, seed):
    rng = np.random.default_rng(seed)
    state = Ket(dims, random_state(rng, dims))
    reference = Ket(dims, random_state(rng, dims))
    assert len(assert_same_report(state, reference)) == math.prod(dims)


@pytest.mark.parametrize("dims", SHAPES[2:])
def test_vanishing_amplitudes_on_either_side(dims):
    rng = np.random.default_rng(7)
    d = math.prod(dims)
    s, r = random_state(rng, dims), random_state(rng, dims)
    s[rng.random(d) < 0.3] = 0.0
    r[rng.random(d) < 0.3] = 0.0
    s[0] = r[-1] = 0.0
    got = assert_same_report(Ket(dims, s), Ket(dims, r))
    assert len(got) < d
    assert (0,) * len(dims) not in got


def test_everything_vanishes():
    zero = Ket((2, 3), np.zeros(6))
    one = Ket((2, 3), np.ones(6))
    assert phase_report(zero, one) == {}
    assert phase_report(one, zero) == {}


def test_minus_pi_reports_plus_pi():
    # arg(-1 - 0j) is -pi, which the report folds to +pi
    state = Ket((2, 2), np.array([complex(-1, -0.0), complex(-1, 0.0), 1, 1j]))
    reference = Ket((2, 2), np.ones(4))
    got = assert_same_report(state, reference)
    assert got[(0, 0)] == math.pi
    assert got[(0, 1)] == math.pi
    assert got[(1, 1)] == math.pi / 2


def test_negative_zero_phases_come_out_positive():
    # s / r has imaginary part -0.0, so arg is -0.0 before the fold
    state = Ket((3,), np.array([complex(2, -0.0), complex(1, -0.0), complex(0.5, 0.0)]))
    reference = Ket((3,), np.array([1.0, 2.0, complex(1, -0.0)]))
    got = assert_same_report(state, reference)
    assert [math.copysign(1.0, v) for v in got.values()] == [1.0, 1.0, 1.0]


def test_magnitudes_at_and_just_above_the_tolerance():
    above = np.nextafter(PHASE_AMP_TOL, 1.0)
    tol_phase = PHASE_AMP_TOL * np.exp(0.3j)
    state = Ket((2, 3), np.array([PHASE_AMP_TOL, above, tol_phase, 1j * above, 1.0, 1.0]))
    reference = Ket((2, 3), np.array([1.0, 1.0, 1.0, 1.0, PHASE_AMP_TOL, -above]))
    got = assert_same_report(state, reference)
    assert (0, 0) not in got and (1, 1) not in got
    assert (0, 1) in got and (1, 0) in got and (1, 2) in got
