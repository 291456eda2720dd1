"""The dynamics-step kernels that walk ``_BLOCK``-entry slices give the bytes
of the whole-array formulas they replaced, kept in ``tests/oracles.py``:
``compare_states`` (two block buffers, the reciprocal under ``abs()``),
``expectation_tensor`` (no normalized copy) and ``DiagonalHamiltonian.spectrum``
(``np.unique`` and ``searchsorted``). The sizes sit on both sides of the block
boundary; a ket has at least two entries, so size 1 is not among them."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktensor import (
    DiagonalHamiltonian, compare_states, expectation_tensor, make_ket, norm, total_sum
)
from weaktensor.hilbert import _BLOCK
from oracles import (
    gauge_fixed_comparison,
    normalized_expectation_components,
    random_state,
    unique_spectrum,
)

SIZES = st.sampled_from([2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
SEEDS = st.integers(0, 2**32 - 1)
#: decimal exponents of the planted norms
EXPONENTS = st.integers(-10, 150)


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def planted(amps, norm, zeros=False, tie=False, strided=False, rng=None):
    """A ket of ``amps`` (changed in place) scaled to about ``norm``.

    ``zeros`` sets about half of the parts, all but the first, to +0.0 or
    -0.0. ``tie`` makes the amplitudes on both sides of the first block
    boundary (the first and last within one block) the largest, of equal
    magnitude and different phase, so only the first-index rule picks the
    anchor. The norm is set last, on the ``float64`` parts, which keeps the
    zeros' signs. ``strided`` holds the amplitudes as a read-only view with
    a stride of two entries."""
    parts = amps.view(np.float64)
    if zeros:
        zero = rng.random(parts.size) < 0.5
        zero[0] = False
        parts[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
    if tie:
        first, second = (_BLOCK - 1, _BLOCK) if amps.size > _BLOCK else (0, amps.size - 1)
        top = 2.0 * np.abs(amps).max()
        amps[first], amps[second] = top, 1j * top
    parts *= norm / np.linalg.norm(amps)
    if strided:
        base = np.zeros(2 * amps.size, np.complex128)
        base[::2] = amps
        base.setflags(write=False)
        amps = base[::2]
    return make_ket((amps.size,), amps)


@settings(max_examples=60, deadline=None)
@given(
    SIZES, SEEDS, EXPONENTS, st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.booleans(),
)
@example(_BLOCK + 1, 0, 0, True, False, True, False, False)
@example(3 * _BLOCK + 5, 1, 150, False, True, True, True, True)
def test_compare_states_is_the_two_array_formula_by_bits(
    n, seed, exponent, big_first, zeros, tie, strided, close
):
    # one ket at a norm of 1e-10 to 1e150, the other at 1 (the fidelity's
    # squared norms overflow beyond about 1e154 together); the other is an
    # independent state or a near copy, whose gauge-fixed difference is small
    rng = np.random.default_rng(seed)
    amps = random_state(rng, (n,))
    other = amps / np.linalg.norm(amps) + 1e-3 * random_state(rng, (n,)) if close else None
    big = planted(amps, 10.0**exponent, zeros, tie, strided, rng)
    if other is None:
        other = random_state(rng, (n,))
    small = planted(other, 1.0, zeros, False, strided, rng)
    assert big.amps.flags.c_contiguous != strided
    a, b = (big, small) if big_first else (small, big)
    report = compare_states(a, b)
    fidelity, diff = gauge_fixed_comparison(a, b)
    assert bits(report.fidelity) == bits(fidelity)
    assert bits(report.max_component_diff) == bits(diff)


@settings(max_examples=60, deadline=None)
@given(SIZES, SEEDS, EXPONENTS, st.booleans(), st.booleans())
@example(2, 0, 150, True, True)
def test_expectation_tensor_is_the_normalized_formula_by_bits(n, seed, exponent, zeros, strided):
    rng = np.random.default_rng(seed)
    state = planted(random_state(rng, (n,)), 10.0**exponent, zeros, strided=strided, rng=rng)
    tensor = expectation_tensor(state)
    expected = normalized_expectation_components(state)
    assert bits(tensor.components) == bits(expected)
    assert bits(total_sum(tensor)) == bits(complex(expected.sum()))


#: levels with both zeros, a subnormal and values near the float limits
POOL = np.array([0.0, -0.0, 0.37, -1.25, 1e-300, -5e-324, 2.5e300, -2.5e300])


@settings(max_examples=60, deadline=None)
@given(SIZES, SEEDS, st.sampled_from(["pool", "runs", "distinct"]))
@example(_BLOCK + 1, 0, "runs")
def test_spectrum_is_np_unique_with_its_inverse_by_bits(n, seed, layout):
    # pool: few levels in random order; runs: the same levels in long runs,
    # as a projector Hamiltonian lays them out; distinct: nearly all distinct
    rng = np.random.default_rng(seed)
    if layout == "distinct":
        energies = rng.standard_normal(n)
        zero = rng.random(n) < 0.1
        energies[zero] = POOL[rng.integers(2, size=int(zero.sum()))]
    else:
        energies = POOL[rng.integers(POOL.size, size=n)]
        if layout == "runs":
            energies = np.repeat(energies, rng.integers(1, 257, size=n))[:n]
    levels, index = DiagonalHamiltonian((n,), energies).spectrum
    want_levels, want_index = unique_spectrum(energies)
    assert bits(levels) == bits(want_levels)
    assert index.dtype == want_index.dtype and bits(index) == bits(want_index)


def test_the_anchor_is_chosen_by_the_scaled_magnitudes():
    # |-y| exceeds |x| by one ulp, but numpy divides a complex by the norm n
    # as a multiply by 1.0 / n, where the two round to the same value: the
    # first anchors the phase, in the formula as in the blocks
    x = 1.8132702392002724
    y = float(np.nextafter(x, 2.0))
    a = make_ket((4,), [x, 0.3 + 0.2j, -y, 0.1j])
    b = make_ket((4,), [1.0, 0.0, -1.0, 0.0])
    assert x * (1.0 / norm(a)) == y * (1.0 / norm(a))
    report = compare_states(a, b)
    fidelity, diff = gauge_fixed_comparison(a, b)
    assert bits(report.fidelity) == bits(fidelity)
    assert bits(report.max_component_diff) == bits(diff)
    assert diff < 0.5  # with -y as the anchor, a's phase flips and the gap is about 1.4


def test_compare_states_allocates_its_two_block_buffers_and_nothing_per_block():
    # numpy reports its data buffers to tracemalloc: the whole call may hold
    # the two 2^13-entry complex buffers (256 KiB) and small objects, where
    # the whole-array formula held several arrays of the state's size
    rng = np.random.default_rng(8)
    a, b = (make_ket((8 * _BLOCK,), random_state(rng, (8 * _BLOCK,))) for _ in range(2))
    norm(a), norm(b)  # computed once per ket, before the count
    tracemalloc.start()
    try:
        compare_states(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _BLOCK * 16 + 32 * 1024
