"""The masked phase report and the flat-order label stream against their
per-index forms: identical keys in identical order, bit-identical phases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    Ket, PhaseReport, basis_label, basis_labels, basis_state, make_ket, phase_report
)
from weaktensor.dynamics import PHASE_AMP_TOL
from oracles import phase_report_loop, random_state

SHAPES = [(2,), (3,), (2, 3, 5), (3, 3, 4, 2), (5, 2, 2, 3), (2,) * 8]


def bits(values):
    # bit patterns, so a -0.0 against +0.0 difference would show
    return [np.float64(v).tobytes() for v in values]


def assert_same_report(state, reference):
    got = phase_report(state, reference)
    want = phase_report_loop(state, reference, PHASE_AMP_TOL)
    assert isinstance(got, PhaseReport)
    assert got == want and want == got
    assert dict(got) == want
    assert len(got) == len(want)
    assert list(got) == list(want)
    assert all(type(v) is float for v in got.values())
    assert bits(got.values()) == bits(want.values())
    items = list(got.items())
    assert [label for label, _ in items] == list(want)
    assert bits(phase for _, phase in items) == bits(want.values())
    assert bits(got[label] for label in want) == bits(want.values())
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


def test_lookups_that_miss_are_key_errors():
    state = Ket((2, 3), np.array([0.0, 1, 1, 1, 1, 1]))
    report = phase_report(state, Ket((2, 3), np.ones(6)))
    # filtered, wrong length, out of range, negative, not integers, not a label
    misses = [(0, 0), (0,), (0, 1, 0), (2, 0), (0, 3), (-1, 0), (0.5, 0), (1.0, 0),
              [0, 1], 1, "01", None]
    for key in misses:
        with pytest.raises(KeyError):
            report[key]
        assert key not in report
        assert report.get(key) is None
    with pytest.raises(TypeError):
        report[(0, 1)] = 0.0
    with pytest.raises(ValueError):
        report.phases[0] = 1.0
    # integer levels of other types are found, as they are in a dict
    for key in [(np.int64(1), True), (True, np.int64(2))]:
        assert key in report and report[key] == dict(report)[key] == 0.0


@settings(max_examples=80)
@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=6).filter(lambda d: math.prod(d) <= 4096),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
)
def test_random_shapes_with_zeros_on_either_side_match_the_loop(dims, seed, drop_s, drop_r):
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    s, r = random_state(rng, dims), random_state(rng, dims)
    s[rng.random(d) < drop_s] = 0.0
    r[rng.random(d) < drop_r] = 0.0
    assert_same_report(Ket(dims, s), Ket(dims, r))


def test_repr_shows_dims_length_and_the_first_four_items():
    state = make_ket((2, 3), [1, 1j, -1, 0, 1, 1])
    report = phase_report(state, make_ket((2, 3), [1] * 6))
    assert repr(report) == (
        "PhaseReport(dims=(2, 3), 5 phases, {(0, 0): 0.0, (0, 1): 1.5707963267948966, "
        "(0, 2): 3.141592653589793, (1, 1): 0.0, ...})"
    )
    empty = phase_report(make_ket((2,), [0, 1]), make_ket((2,), [1, 0]))
    assert repr(empty) == "PhaseReport(dims=(2,), 0 phases, {})"


def test_repr_of_a_2_to_the_16_report_is_bounded():
    dims = (2,) * 16
    full = phase_report(make_ket(dims, np.full(2**16, 1j)), make_ket(dims, np.ones(2**16)))
    text = repr(full)
    assert len(full) == 2**16 and text.count(": ") == 4 and text.endswith(", ...})")
    assert len(text) < 400  # five labels of 16 levels, not 65536
    last = phase_report(basis_state(dims, (1,) * 16), make_ket(dims, np.ones(2**16)))
    assert repr(last) == f"PhaseReport(dims={dims}, 1 phases, {{{(1,) * 16}: 0.0}})"
