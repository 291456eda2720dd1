"""Every marginal of a tensor from one cached halving reduction.

``WeakValueTensor.marginals`` splits the axes in halves and takes the row and
column sums of the (left, right) matrix, recursively. The results are checked
against a ``math.fsum`` oracle on random mixed shapes, and ranks 1 and 2
against the plain numpy sums they are made of.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    Ket,
    SchemeDocument,
    SubsystemOutOfRangeError,
    WeakValueTensor,
    cheshire,
    expectation_tensor,
    marginalize,
    render_document,
    render_grid,
    scheme_document,
    weak_tensor,
)
from weaktensor import weakvalues
from oracles import marginals_fsum, random_selected_pair, random_state

EPS = np.finfo(np.float64).eps


def random_weak_tensor(seed, dims):
    pre, post = random_selected_pair(np.random.default_rng(seed), dims)
    return weak_tensor(Ket(dims, pre), Ket(dims, post))


@settings(max_examples=80)
@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_marginals_within_four_eps_of_the_magnitude_sum(dims, seed, weak):
    dims = tuple(dims)
    if weak:
        t = random_weak_tensor(seed, dims)
    else:
        t = expectation_tensor(Ket(dims, random_state(np.random.default_rng(seed), dims)))
    for axis, levels in enumerate(marginals_fsum(t.components, dims)):
        got = marginalize(t, axis)
        assert len(got) == dims[axis]
        for value, (exact, magnitude) in zip(got, levels):
            assert abs(value - exact) <= 4 * EPS * magnitude, (dims, axis)


def test_rank_two_marginals_are_the_numpy_axis_sums_bit_for_bit():
    t = random_weak_tensor(31, (3, 5))
    rows, cols = t.marginals
    assert rows.tobytes() == t.components.sum(axis=1).tobytes()
    assert cols.tobytes() == t.components.sum(axis=0).tobytes()


def test_rank_one_marginal_is_the_components():
    t = random_weak_tensor(32, (4,))
    (only,) = t.marginals
    assert np.shares_memory(only, t.components)
    assert marginalize(t, 0) == t.components.tolist()


def test_marginals_are_cached_and_read_only():
    t = random_weak_tensor(33, (2, 3, 2, 4))
    assert t.marginals is t.marginals
    assert [m.shape for m in t.marginals] == [(2,), (3,), (2,), (4,)]
    for m in t.marginals:
        assert m.dtype == np.complex128
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0] = 7.0


def test_text_document_reuses_the_document_marginals(monkeypatch):
    doc = scheme_document(cheshire())  # rank 2: the grid draws marginal borders
    calls = []
    halved = weakvalues._halved_marginals
    monkeypatch.setattr(
        weakvalues, "_halved_marginals", lambda *args: calls.append(1) or halved(*args)
    )
    text = render_document(doc, "text")
    assert calls == []
    tensor = doc.to_tensor()
    assert all(map(np.shares_memory, tensor.marginals, doc.marginals))
    monkeypatch.undo()
    fresh = WeakValueTensor(doc.dims, doc.components, doc.kind, doc.overlap)
    assert render_grid(fresh, doc.labels) in text.decode("utf-8")


def test_hand_built_document_marginals_are_copied_and_frozen():
    marginals = ([0.25, 0.75], [1.0, 0.0])
    doc = SchemeDocument(
        scenario="hand",
        dims=(2, 2),
        labels=(("a", "b"), ("c", "d")),
        kind="weak",
        overlap=1 + 0j,
        components=np.array([0.25, 0, 0.75, 0], np.complex128),
        marginals=marginals,
        total=1 + 0j,
    )
    for got, given_ in zip(doc.to_tensor().marginals, marginals):
        np.testing.assert_array_equal(got, given_)
        assert got.dtype == np.complex128 and not got.flags.writeable


def test_marginalize_gives_python_complex_values():
    t = random_weak_tensor(34, (2, 3, 2))
    for axis in range(t.rank):
        values = marginalize(t, axis)
        assert all(type(v) is complex for v in values)
        assert values == t.marginals[axis].tolist()


@pytest.mark.parametrize("keep", [-1, 3, 7])
def test_marginalize_out_of_range_axis(keep):
    t = random_weak_tensor(35, (2, 3, 2))
    with pytest.raises(SubsystemOutOfRangeError):
        marginalize(t, keep)

