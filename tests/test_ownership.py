"""One ownership rule for Ket amplitudes and WeakValueTensor components.

A ``complex128`` array that is read-only down to its owning array is kept as
a view; anything else is copied and frozen. Producers hand over arrays they
just built, so their results are read-only and share no memory with their
inputs.
"""

import math

import numpy as np
import pytest

from weaktensor import (
    HamiltonianTerm,
    Ket,
    ProjectorProduct,
    apply_pauli_string,
    apply_projector_product,
    basis_state,
    build_hamiltonian,
    evolve,
    expectation_tensor,
    make_ket,
    norm,
    normalize,
    product_form,
    tensor_product,
    weak_tensor,
)
from weaktensor.dynamics import FAMILIES
from oracles import random_state


def frozen(values):
    array = np.array(values, dtype=np.complex128)
    array.setflags(write=False)
    return array


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


# ---------------------------------------------------------------- Ket


def test_ket_keeps_a_frozen_owner_as_a_view():
    source = frozen([1, 2j, -3, 0.5])
    k = Ket((2, 2), source)
    assert np.shares_memory(k.amps, source)
    assert not k.amps.flags.writeable


def test_ket_keeps_a_frozen_multi_axis_owner_as_a_flat_view():
    source = frozen([[1, 2j], [-3, 0.5]])
    k = Ket((2, 2), source)
    assert np.shares_memory(k.amps, source)
    assert k.amps.shape == (4,)


def test_ket_copies_a_writeable_array():
    source = np.array([1, 2j, -3, 0.5])
    k = Ket((2, 2), source)
    source[:] = 7.0
    np.testing.assert_array_equal(k.amps, [1, 2j, -3, 0.5])
    assert not k.amps.flags.writeable
    assert source.flags.writeable  # the caller's array is left as it was


def test_ket_copies_a_read_only_view_of_writeable_memory():
    source = np.array([1 + 0j, 0j, 0j, 1 + 0j])
    view = source.view()
    view.setflags(write=False)
    k = Ket((2, 2), view)
    source[0] = 7.0
    assert k.amps[0] == 1.0
    assert not np.shares_memory(k.amps, source)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex64])
def test_ket_copies_a_frozen_array_of_another_dtype(dtype):
    source = np.array([3, 0, -4, 1], dtype=dtype)
    source.setflags(write=False)
    k = Ket((2, 2), source)
    assert k.amps.dtype == np.complex128
    np.testing.assert_array_equal(k.amps, [3, 0, -4, 1])
    assert not k.amps.flags.writeable
    assert not np.shares_memory(k.amps, source)


def test_ket_copies_a_frozen_transpose():
    source = frozen(np.arange(4)).reshape(2, 2).T  # no flat view of this order exists
    k = Ket((2, 2), source)
    np.testing.assert_array_equal(k.amps, [0, 2, 1, 3])
    assert not k.amps.flags.writeable
    assert not np.shares_memory(k.amps, source)


def test_ket_copies_a_list():
    k = Ket((2,), [1, 1j])
    assert k.amps.dtype == np.complex128
    assert not k.amps.flags.writeable


# ---------------------------------------------------------------- producers


def _states(seed, dims):
    rng = np.random.default_rng(seed)
    return Ket(dims, random_state(rng, dims)), Ket(dims, random_state(rng, dims))


def _assert_fresh(result, *inputs):
    assert not result.flags.writeable
    for source in inputs:
        assert not np.shares_memory(result, source)


def test_evolve_output_is_fresh_and_frozen():
    state, _ = _states(1, (2, 3))
    h = build_hamiltonian((2, 3), [HamiltonianTerm(0.7, ProjectorProduct(((1, 2),)))])
    _assert_fresh(evolve(state, h, 0.3).amps, state.amps, h.energies)
    _assert_fresh(evolve(state, h, 0.0).amps, state.amps, h.energies)


def test_normalize_output_is_fresh_and_frozen():
    state, _ = _states(2, (2, 2))
    _assert_fresh(normalize(state).amps, state.amps)


def test_tensor_product_output_is_fresh_and_frozen():
    a, b = _states(3, (2,))
    _assert_fresh(tensor_product(a, b).amps, a.amps, b.amps)


@pytest.mark.parametrize("factors", [(), ((0, 1),), ((0, 0), (1, 2))])
def test_apply_projector_product_output_is_fresh_and_frozen(factors):
    state, _ = _states(4, (2, 3))
    out = apply_projector_product(ProjectorProduct(factors), state)
    _assert_fresh(out.amps, state.amps)


@pytest.mark.parametrize("letters", ["II", "XI", "IY", "ZZ"])
def test_apply_pauli_string_output_is_fresh_and_frozen(letters):
    state, _ = _states(5, (2, 2))
    _assert_fresh(apply_pauli_string(letters, state).amps, state.amps)


def test_weak_tensor_output_is_fresh_and_frozen():
    pre, post = _states(6, (2, 3))
    _assert_fresh(weak_tensor(pre, post).components, pre.amps, post.amps)


def test_expectation_tensor_output_is_fresh_and_frozen():
    state, _ = _states(7, (3, 2))
    _assert_fresh(expectation_tensor(state).components, state.amps)
    unit = normalize(state)
    _assert_fresh(expectation_tensor(unit).components, unit.amps)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_product_form_leaves_the_family_factor_unchanged(name):
    family = FAMILIES[name]
    before = family.factor.amps.copy()
    params = {param: 0.9 for param in family.params}
    out = product_form(name, 1.3, **params)
    _assert_fresh(out.amps, family.factor.amps)
    np.testing.assert_array_equal(family.factor.amps, before)
    assert not family.factor.amps.flags.writeable


def test_basis_state_and_make_ket_outputs_are_frozen():
    assert not basis_state((2, 3), (1, 2)).amps.flags.writeable
    assert not make_ket((2,), iter([1, 0])).amps.flags.writeable


# ---------------------------------------------------------------- make_ket


@pytest.mark.parametrize(
    "values",
    [
        [0.25, -1.5, 1e-300, 3.0],
        [1, -2, 0, 2**53 + 1],
        [1 + 2j, -0.0 - 0.5j, complex(0.0, -0.0), complex(-0.0, 0.0)],
        [0.0, -0.0, 0.0, -0.0],
    ],
    ids=["real", "int", "complex", "signed-zeros"],
)
def test_make_ket_of_an_array_is_bit_equal_to_make_ket_of_a_list(values):
    from_list = make_ket((2, 2), values)
    from_array = make_ket((2, 2), np.array(values))
    assert from_array.amps.dtype == np.complex128
    np.testing.assert_array_equal(bits(from_array.amps), bits(from_list.amps))


def test_make_ket_keeps_a_frozen_complex_array_as_a_view():
    source = frozen([1, 0, 0, math.sqrt(0.5)])
    assert np.shares_memory(make_ket((2, 2), source).amps, source)


# ---------------------------------------------------------------- norm


def test_norm_is_computed_once_per_ket(monkeypatch):
    state, _ = _states(8, (2, 2))
    expected = float(np.linalg.norm(state.amps))
    calls = []
    numpy_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x: calls.append(1) or numpy_norm(x))
    assert norm(state) == expected
    assert norm(state) == expected
    normalize(state)
    assert len(calls) == 1
    assert norm(Ket(state.dims, state.amps)) == expected  # a new ket computes its own
    assert len(calls) == 2
