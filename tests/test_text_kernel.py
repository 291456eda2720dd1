"""The numpy byte kernels of the text writers against their one-value
definitions: ``fmt_reals`` against ``fmt_real`` and ``label_strs`` against
``label_str``, on generated arrays and shapes, string for string."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weaktensor import basis_labels
from weaktensor.render import fmt_real, fmt_reals, label_str, label_strs

#: |x * 1e4| reaches 2**50 here, where the kernel hands values to fmt_real
EXACT_LIMIT = 2.0**50 / 1e4

EDGES = [0.0, -0.0, 0.03125, -0.03125, 5e-324, -5e-324, 2.2250738585072014e-308, 4e-5, -4e-5,
         5e-5, -5e-5, 2.5e-5, 0.00015, 0.99995, 1.00005, 9.99995, 1e20, -1e20, 1e300, -1e300,
         math.nan, math.inf, -math.inf, EXACT_LIMIT, -EXACT_LIMIT, np.nextafter(EXACT_LIMIT, 0),
         np.nextafter(EXACT_LIMIT, math.inf), 3 * 2**53 / 1e4, -123456789012345.67, 1e16,
         np.nextafter(1e16, 0)]

REALS = st.one_of(
    st.floats(),  # NaN, infinities, signed zeros and subnormals included
    st.integers(-10**9, 10**9).map(lambda k: (2 * k + 1) / 20000),  # near-ties at 4 decimals
    st.integers(-10**6, 10**6).map(lambda k: (2 * k + 1) / 32),  # exact binary ties
    st.floats(EXACT_LIMIT / 16, EXACT_LIMIT * 2**16).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(EDGES),
)


@st.composite
def cell_arrays(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    values = draw(hnp.arrays(np.float64, shape, elements=REALS))
    if draw(st.booleans()):  # complex: the imaginary part is never printed
        values = values.astype(np.complex128)
        values.imag = draw(hnp.arrays(np.float64, shape, elements=REALS))
    return values


@st.composite
def shapes(draw):
    # dims 2-13 (past 10, labels join digits with commas), rank 1-6, D <= 4096
    dims, room = [], 4096
    for left in reversed(range(draw(st.integers(1, 6)))):
        dims.append(draw(st.integers(2, min(13, room // 2**left))))
        room //= dims[-1]
    return tuple(draw(st.permutations(dims)))


def test_fmt_reals_of_edge_values_and_of_nothing():
    assert fmt_reals(np.array(EDGES)) == list(map(fmt_real, EDGES))
    imaginary = np.zeros(len(EDGES), np.complex128)
    imaginary.imag = EDGES
    assert fmt_reals(imaginary) == ["+0.0000"] * len(EDGES)
    assert fmt_reals([0.03125, -0.03125, 0.00015, -4e-5]) == ["+0.0312", "-0.0312", "+0.0001",
                                                             "-0.0000"]
    assert fmt_reals(np.array([])) == fmt_reals(np.zeros((2, 0))) == []


def test_fmt_reals_of_every_near_tie_at_four_decimals():
    values = (2 * np.arange(-30000, 30000) + 1) / 20000
    assert fmt_reals(values) == list(map(fmt_real, values))


def test_fmt_reals_on_both_sides_of_the_exact_limit():
    values = np.geomspace(EXACT_LIMIT / 16, EXACT_LIMIT * 64, 4001)
    values = np.concatenate([values, -values, values + 0.00005])
    assert fmt_reals(values) == list(map(fmt_real, values))


@settings(max_examples=200)
@given(cell_arrays())
def test_fmt_reals_is_fmt_real_of_every_element(values):
    assert fmt_reals(values) == [fmt_real(x) for x in values.reshape(-1)]


@settings(max_examples=150)
@given(shapes())
def test_label_strs_is_label_str_of_every_basis_label(dims):
    assert list(label_strs(dims)) == [label_str(l, dims) for l in basis_labels(dims)]


@pytest.mark.parametrize("dims", [(2,) * 13, (13, 2, 2, 1100), (70000,), (5000, 2)])
def test_label_strs_past_one_block_of_labels(dims):
    # past 2**12 labels the leading axes' digits (13: two of them) are
    # written once per block
    assert list(label_strs(dims)) == [label_str(l, dims) for l in basis_labels(dims)]

