import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    ORTHO_TOL,
    Ket,
    LengthMismatchError,
    OrthogonalSelectionError,
    ProjectorProduct,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
    WeakValueTensor,
    ZeroVectorError,
    build_named,
    expectation_tensor,
    make_ket,
    marginalize,
    norm,
    scheme_document,
    total_sum,
    weak_tensor,
    weak_value,
)
from oracles import (
    all_projector_products,
    dense_projector_product,
    random_selected_pair,
    random_state,
    weak_value_observable,
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)
EPS = np.finfo(np.float64).eps

#: random mixed shapes: levels 2-5, ranks 1-5, so at most 5**5 = 3125 components
SHAPES = st.lists(st.integers(2, 5), min_size=1, max_size=5).map(tuple)

#: shapes small enough for a dense D x D operator: levels 2-4, ranks 1-4, D <= 256
DENSE_SHAPES = st.lists(st.integers(2, 4), min_size=1, max_size=4).map(tuple)


def cheshire_pair():
    pre = make_ket((2, 2), [S3, S3, 0.0, S3])
    post = make_ket((2, 2), [S3, -S3, 0.0, S3])
    return pre, post


def hardy_pair():
    return make_ket((2, 2), [1.0, 0.0, 1.0, 1.0]), make_ket((2, 2), [1.0, -1.0, -1.0, 1.0])


# ---------------------------------------------------------------- weak_value


def test_weak_value_cheshire_joint_projectors():
    pre, post = cheshire_pair()
    assert weak_value(pre, post, ProjectorProduct(((0, 0), (1, 0)))) == pytest.approx(1.0)
    assert weak_value(pre, post, ProjectorProduct(((0, 0), (1, 1)))) == pytest.approx(-1.0)
    assert weak_value(pre, post, ProjectorProduct(((0, 1), (1, 0)))) == pytest.approx(0.0)
    assert weak_value(pre, post, ProjectorProduct(((0, 1), (1, 1)))) == pytest.approx(1.0)


def test_weak_value_projector_onto_the_state_itself():
    zero = make_ket((2,), [1, 0])
    assert weak_value(zero, zero, ProjectorProduct(((0, 0),))) == pytest.approx(1.0)


def test_weak_value_hardy_forbidden_arms():
    pre, post = hardy_pair()
    # positron left arm (axis 0 level 0) and electron right arm (axis 1 level 1)
    assert weak_value(pre, post, ProjectorProduct(((0, 0), (1, 1)))) == pytest.approx(0.0)


def test_weak_value_orthogonal_selection():
    with pytest.raises(OrthogonalSelectionError):
        weak_value(make_ket((2,), [1, 0]), make_ket((2,), [0, 1]), ProjectorProduct())


def test_weak_value_orthogonality_tolerance_is_relative():
    # tiny but parallel states are a fine selection
    pre = make_ket((2,), [1e-6, 0.0])
    post = make_ket((2,), [1e-6, 0.0])
    assert weak_value(pre, post, ProjectorProduct(((0, 0),))) == pytest.approx(1.0)


def test_weak_value_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        weak_value(make_ket((2,), [1, 0]), make_ket((3,), [1, 0, 0]), ProjectorProduct())


def test_weak_value_rescaling_invariance():
    pre, post = cheshire_pair()
    op = ProjectorProduct(((0, 0), (1, 1)))
    base = weak_value(pre, post, op)
    scaled = weak_value(
        Ket(pre.dims, (2.0 - 1.0j) * pre.amps), Ket(post.dims, 0.25j * post.amps), op
    )
    assert scaled == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------- weak_tensor


def test_weak_tensor_hardy():
    t = weak_tensor(*hardy_pair())
    assert t.kind == "weak"
    np.testing.assert_allclose(t.components, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)


def test_weak_tensor_cheshire():
    t = weak_tensor(*cheshire_pair())
    np.testing.assert_allclose(t.components, [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)


def test_weak_tensor_three_level_ghz_selection():
    pre_amps = np.zeros(27, dtype=complex)
    post_amps = np.zeros(27, dtype=complex)
    pre_amps[[0, 13, 26]] = S3
    post_amps[[0, 13, 26]] = (S3, S3, -S3)
    t = weak_tensor(Ket((3, 3, 3), pre_amps), Ket((3, 3, 3), post_amps))
    assert t.component((0, 0, 0)) == pytest.approx(1.0)
    assert t.component((1, 1, 1)) == pytest.approx(1.0)
    assert t.component((2, 2, 2)) == pytest.approx(-1.0)
    off = t.components.copy()
    off[0, 0, 0] = off[1, 1, 1] = off[2, 2, 2] = 0.0
    assert np.max(np.abs(off)) < 1e-12


def test_weak_tensor_rescaling_invariance():
    rng = np.random.default_rng(21)
    pre_amps, post_amps = random_selected_pair(rng, (2, 3))
    base = weak_tensor(Ket((2, 3), pre_amps), Ket((2, 3), post_amps))
    scaled = weak_tensor(
        Ket((2, 3), (0.3 + 2.0j) * pre_amps), Ket((2, 3), (-5.0 + 1.0j) * post_amps)
    )
    np.testing.assert_allclose(scaled.components, base.components, atol=1e-10)


def test_weak_tensor_equals_expectation_tensor_when_pre_equals_post():
    rng = np.random.default_rng(22)
    for dims in [(2, 2), (2, 3), (3, 3, 3)]:
        amps, _ = random_selected_pair(rng, dims)
        state = Ket(dims, amps)
        w = weak_tensor(state, state)
        e = expectation_tensor(state)
        np.testing.assert_allclose(w.components, e.components, atol=1e-10)
        assert np.max(np.abs(w.components.imag)) < 1e-10


# ---------------------------------------------------------------- expectation


def test_expectation_tensor_bell():
    t = expectation_tensor(make_ket((2, 2), [0.0, S2, S2, 0.0]))
    assert t.kind == "expectation"
    np.testing.assert_allclose(t.components, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


def test_expectation_tensor_ghz():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = S2
    t = expectation_tensor(Ket((2, 2, 2), amps))
    assert t.component((0, 0, 0)) == pytest.approx(0.5)
    assert t.component((1, 1, 1)) == pytest.approx(0.5)


def test_expectation_tensor_basis_state():
    t = expectation_tensor(make_ket((2, 2), [1, 0, 0, 0]))
    np.testing.assert_allclose(t.components, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_expectation_tensor_normalizes_internally():
    t = expectation_tensor(make_ket((2,), [3.0, 4.0]))
    np.testing.assert_allclose(t.components, [0.36, 0.64], atol=1e-12)


def test_expectation_tensor_zero_vector():
    with pytest.raises(ZeroVectorError, match=r"^cannot normalize a vector of norm 0\.0$"):
        expectation_tensor(make_ket((2,), [0.0, 0.0]))
    with pytest.raises(ZeroVectorError, match=r"^cannot normalize a vector of norm 1e-13$"):
        expectation_tensor(make_ket((2,), [1e-13, 0.0]))


def test_expectation_tensor_invariants_on_random_states():
    rng = np.random.default_rng(23)
    for dims in [(2, 2), (2, 3), (3, 3, 3)]:
        for _ in range(10):
            amps, _ = random_selected_pair(rng, dims)
            t = expectation_tensor(Ket(dims, amps))
            assert np.max(np.abs(t.components.imag)) < 1e-10
            assert np.all(t.components.real >= -1e-10)
            assert np.all(t.components.real <= 1.0 + 1e-10)
            assert total_sum(t) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- marginals


def test_marginalize_hardy_singles():
    t = weak_tensor(*hardy_pair())
    positron = marginalize(t, 0)
    electron = marginalize(t, 1)
    np.testing.assert_allclose(positron, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(electron, [0.0, 1.0], atol=1e-12)


def test_marginalize_cheshire_singles():
    t = weak_tensor(*cheshire_pair())
    np.testing.assert_allclose(marginalize(t, 1), [1.0, 0.0], atol=1e-12)  # position
    np.testing.assert_allclose(marginalize(t, 0), [0.0, 1.0], atol=1e-12)  # spin


def test_marginalize_expectation_bell():
    t = expectation_tensor(make_ket((2, 2), [0.0, S2, S2, 0.0]))
    np.testing.assert_allclose(marginalize(t, 0), [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(marginalize(t, 1), [0.5, 0.5], atol=1e-12)


def test_marginalize_out_of_range():
    t = weak_tensor(*hardy_pair())
    with pytest.raises(SubsystemOutOfRangeError):
        marginalize(t, 2)


def test_marginals_match_single_projector_weak_values():
    # 102 random pairs spread over three shapes
    rng = np.random.default_rng(24)
    for dims in [(2, 2), (2, 3), (3, 3, 3)]:
        for _ in range(34):
            pre_amps, post_amps = random_selected_pair(rng, dims)
            pre, post = Ket(dims, pre_amps), Ket(dims, post_amps)
            t = weak_tensor(pre, post)
            for axis in range(len(dims)):
                for level, value in enumerate(marginalize(t, axis)):
                    direct = weak_value(pre, post, ProjectorProduct(((axis, level),)))
                    assert abs(value - direct) < 1e-10


def test_total_sum_examples():
    assert total_sum(weak_tensor(*hardy_pair())) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(25)
    pre_amps, post_amps = random_selected_pair(rng, (3, 3, 3))
    t = weak_tensor(Ket((3, 3, 3), pre_amps), Ket((3, 3, 3), post_amps))
    assert total_sum(t) == pytest.approx(1.0, abs=1e-10)


def test_completeness_over_random_pairs():
    rng = np.random.default_rng(26)
    for dims in [(2, 2), (2, 3), (3, 3, 3)]:
        for _ in range(30):
            pre_amps, post_amps = random_selected_pair(rng, dims)
            t = weak_tensor(Ket(dims, pre_amps), Ket(dims, post_amps))
            assert abs(total_sum(t) - 1.0) < 1e-10


# ------------------------------------------------------- symmetries, random shapes
# Each side is rounded on its own, so the two agree within 4 eps times the
# magnitude sum, the bound of the marginals' oracle, not bit for bit.


def _bounds(pre, post, t):
    """4 eps times the magnitude sum of the components, and of the overlap's terms."""
    terms = np.sum(np.abs(np.conj(post) * pre))
    return 4 * EPS * np.sum(np.abs(t.components)), 4 * EPS * terms


@settings(max_examples=60)
@given(SHAPES, st.integers(0, 2**32 - 1))
def test_swapping_pre_and_post_conjugates_the_tensor_and_the_overlap(dims, seed):
    pre, post = random_selected_pair(np.random.default_rng(seed), dims)
    t = weak_tensor(Ket(dims, pre), Ket(dims, post))
    swapped = weak_tensor(Ket(dims, post), Ket(dims, pre))
    bound, overlap_bound = _bounds(pre, post, t)
    assert np.max(np.abs(swapped.components - np.conj(t.components))) <= bound
    assert abs(swapped.overlap - np.conj(t.overlap)) <= overlap_bound


@settings(max_examples=60)
@given(SHAPES, st.integers(0, 2**32 - 1))
def test_permuting_the_axes_transposes_the_tensor_and_permutes_the_marginals(dims, seed):
    rng = np.random.default_rng(seed)
    pre, post = random_selected_pair(rng, dims)
    order = rng.permutation(len(dims)).tolist()
    moved = tuple(dims[axis] for axis in order)

    def permuted(flat):
        return flat.reshape(dims).transpose(order).reshape(-1)

    t = weak_tensor(Ket(dims, pre), Ket(dims, post))
    tp = weak_tensor(Ket(moved, permuted(pre)), Ket(moved, permuted(post)))
    bound, overlap_bound = _bounds(pre, post, t)
    assert np.max(np.abs(tp.components - t.components.transpose(order))) <= bound
    for axis, source in enumerate(order):
        assert np.max(np.abs(tp.marginals[axis] - t.marginals[source])) <= bound
    assert abs(tp.overlap - t.overlap) <= overlap_bound


@settings(max_examples=60)
@given(SHAPES, st.integers(0, 2**32 - 1), st.integers(-100, 100), st.integers(-100, 100))
def test_power_of_two_rescaling_leaves_the_components_bit_identical(dims, seed, k_pre, k_post):
    # a binary scale is exact in every product, in the overlap and in the quotient
    pre, post = random_selected_pair(np.random.default_rng(seed), dims)
    t = weak_tensor(Ket(dims, pre), Ket(dims, post))
    scaled = weak_tensor(Ket(dims, pre * 2.0**k_pre), Ket(dims, post * 2.0**k_post))
    assert scaled.components.tobytes() == t.components.tobytes()


@settings(max_examples=60)
@given(SHAPES, st.integers(0, 2**32 - 1))
def test_expectation_tensor_is_the_weak_tensor_of_a_state_with_itself(dims, seed):
    amps, _ = random_selected_pair(np.random.default_rng(seed), dims)
    state = Ket(dims, amps)
    diff = expectation_tensor(state).components - weak_tensor(state, state).components
    assert np.max(np.abs(diff)) <= 4 * EPS


@settings(max_examples=100)
@given(SHAPES, st.integers(0, 2**32 - 1), st.floats(-10, -6), st.integers(-50, 50),
       st.integers(-50, 50))
def test_an_accepted_selection_bounds_every_weak_value_below_one_over_ortho_tol(
    dims, seed, log_overlap, k_pre, k_post
):
    # post has relative overlap 10**log_overlap with pre: near the ORTHO_TOL guard.
    # Cauchy-Schwarz gives sum |w_k| <= |pre| |post| / |<post|pre>|, and the guard keeps
    # that below 1 / ORTHO_TOL, so no weak value reaches the 1e16 where text switches form
    rng = np.random.default_rng(seed)
    pre, noise = random_state(rng, dims), random_state(rng, dims)
    orth = noise - np.vdot(pre, noise) / np.vdot(pre, pre) * pre
    r = 10.0**log_overlap
    post = orth / np.linalg.norm(orth) * math.sqrt(1 - r * r) + r * pre / np.linalg.norm(pre)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    pre, post = Ket(dims, pre * 10.0**k_pre), Ket(dims, post * phase * 10.0**k_post)
    try:
        t = weak_tensor(pre, post)
    except OrthogonalSelectionError:
        return
    bound = norm(pre) * norm(post) / abs(t.overlap) * (1 + 8 * EPS)
    assert np.sum(np.abs(t.components)) <= bound < 1.01 / ORTHO_TOL
    assert np.max(np.abs(t.components)) < 1e16


# ---------------------------------------------------------------- dense oracle


def test_weak_value_observable_identity():
    rng = np.random.default_rng(27)
    pre_amps, post_amps = random_selected_pair(rng, (2, 3))
    pre, post = Ket((2, 3), pre_amps), Ket((2, 3), post_amps)
    assert weak_value_observable(pre, post, np.eye(6)) == pytest.approx(1.0)


def test_weak_value_observable_matches_masking_on_cheshire():
    pre, post = cheshire_pair()
    factors = ((0, 0), (1, 0))
    dense = weak_value_observable(pre, post, dense_projector_product(factors, (2, 2)))
    masked = weak_value(pre, post, ProjectorProduct(factors))
    assert dense == pytest.approx(masked, abs=1e-12)
    assert dense == pytest.approx(1.0)


def test_weak_value_observable_sigma_z():
    zero = make_ket((2,), [1, 0])
    sigma_z = np.diag([1.0, -1.0])
    assert weak_value_observable(zero, zero, sigma_z) == pytest.approx(1.0)


def test_weak_value_observable_wrong_matrix_shape():
    pre, post = cheshire_pair()
    with pytest.raises(ShapeMismatchError):
        weak_value_observable(pre, post, np.eye(3))


def test_masking_matches_dense_oracle_for_all_products():
    rng = np.random.default_rng(28)
    for dims in [(2, 3), (2, 2, 2)]:
        pre_amps, post_amps = random_selected_pair(rng, dims)
        pre, post = Ket(dims, pre_amps), Ket(dims, post_amps)
        for factors in all_projector_products(dims):
            masked = weak_value(pre, post, ProjectorProduct(factors))
            dense = weak_value_observable(pre, post, dense_projector_product(factors, dims))
            assert abs(masked - dense) < 1e-10


@settings(max_examples=60)
@given(SHAPES, st.integers(0, 2**32 - 1))
def test_weak_value_is_the_slice_sum_and_the_dense_weak_value(dims, seed):
    rng = np.random.default_rng(seed)
    pre_amps, post_amps = random_selected_pair(rng, dims)
    pre, post = Ket(dims, pre_amps), Ket(dims, post_amps)
    factors = tuple(
        (axis, int(rng.integers(d))) for axis, d in enumerate(dims) if rng.random() < 0.5
    )
    value = weak_value(pre, post, ProjectorProduct(factors))
    t = weak_tensor(pre, post)
    chosen = dict(factors)
    support = tuple(chosen.get(axis, slice(None)) for axis in range(len(dims)))
    assert value == complex(t.components[support].sum())  # bit for bit
    if pre.dim <= 256:  # a dense D x D matrix beyond that costs too much memory
        dense = weak_value_observable(pre, post, dense_projector_product(factors, dims))
        assert abs(value - dense) <= 4 * EPS * np.sum(np.abs(t.components))


# ------------------------------------------------- what the tensor determines


@settings(max_examples=60)
@given(DENSE_SHAPES, st.integers(0, 2**32 - 1))
def test_the_tensor_fixes_every_weak_value_diagonal_in_the_product_basis(dims, seed):
    rng = np.random.default_rng(seed)
    pre_amps, post_amps = random_selected_pair(rng, dims)
    pre, post = Ket(dims, pre_amps), Ket(dims, post_amps)
    f = rng.standard_normal(pre.dim)
    fw = f * weak_tensor(pre, post).components.reshape(-1)
    dense = weak_value_observable(pre, post, np.diag(f))
    assert abs(complex(fw.sum()) - dense) <= 4 * EPS * np.sum(np.abs(fw))


def test_the_tensor_does_not_fix_an_off_diagonal_weak_value():
    # |0>+|1> and |0>-|1>, each selected against itself, share the tensor
    # (1/2, 1/2), but their sigma_x weak values are +1 and -1
    plus, minus = make_ket((2,), [1, 1]), make_ket((2,), [1, -1])
    sigma_x = [[0, 1], [1, 0]]
    for state, sign in ((plus, 1.0), (minus, -1.0)):
        np.testing.assert_array_equal(weak_tensor(state, state).components, [0.5, 0.5])
        assert weak_value_observable(state, state, sigma_x) == sign



def test_distinct_tensors_with_identical_marginals():
    # singles do not determine the tensor: an explicit witness pair
    t_a = weak_tensor(*cheshire_pair())
    t_b = weak_tensor(
        make_ket((2, 2), [2.0, -2.0, -1.0, 2.0]), make_ket((2, 2), [1.0, 1.0, 1.0, 1.0])
    )
    for axis in (0, 1):
        np.testing.assert_allclose(marginalize(t_a, axis), marginalize(t_b, axis), atol=1e-12)
    assert np.max(np.abs(t_a.components - t_b.components)) > 0.5


def test_tensor_keeps_a_read_only_complex_array_as_a_view():
    doc = scheme_document(build_named("hardy"))
    tensor = doc.to_tensor()
    assert np.shares_memory(tensor.components, doc.components)
    assert tensor.components.shape == doc.dims
    assert not tensor.components.flags.writeable


def test_tensor_copies_writeable_input():
    source = np.array([1 + 0j, -1 + 0j, 0.5j, 0.5 - 0.5j])
    tensor = WeakValueTensor((2, 2), source, "weak", 1 + 0j)
    source[:] = 7.0
    np.testing.assert_array_equal(tensor.components, [[1, -1], [0.5j, 0.5 - 0.5j]])
    assert not tensor.components.flags.writeable


def test_tensor_copies_a_read_only_view_of_writeable_memory():
    source = np.array([1 + 0j, 0j, 0j, 1 + 0j])
    view = source.view()
    view.setflags(write=False)
    tensor = WeakValueTensor((2, 2), view, "weak", 1 + 0j)
    source[0] = 7.0
    assert tensor.components[0, 0] == 1.0


def test_tensor_converts_real_input_to_complex():
    source = np.array([0.25, 0.75])
    source.setflags(write=False)
    tensor = WeakValueTensor((2,), source, "expectation", 1 + 0j)
    assert tensor.components.dtype == np.complex128
    np.testing.assert_array_equal(tensor.components, [0.25, 0.75])
    assert not tensor.components.flags.writeable
    assert not np.shares_memory(tensor.components, source)


def test_tensor_of_a_read_only_array_that_must_be_copied_to_reshape():
    frozen = np.arange(4, dtype=np.complex128)
    frozen.setflags(write=False)
    transposed = frozen.reshape(2, 2).T  # no flat view of this order exists
    tensor = WeakValueTensor((4,), transposed, "weak", 1 + 0j)
    np.testing.assert_array_equal(tensor.components, [0, 2, 1, 3])
    assert not tensor.components.flags.writeable


@pytest.mark.parametrize("overlap", [[0.5], [[0.5]], np.array([0.5 + 1j]), [1, 2]])
def test_tensor_refuses_an_overlap_that_is_not_one_number(overlap):
    # a size-1 array used to be reshaped to one number: [[0.5]] read as 0.5+0j
    with pytest.raises(LengthMismatchError, match="overlap must be one number, got shape"):
        WeakValueTensor((2,), [1, 0], "weak", overlap)
    for one in (0.5, np.float64(0.5), np.array(0.5 + 0j), 0.5 + 0j):
        assert WeakValueTensor((2,), [1, 0], "weak", one).overlap == 0.5 + 0j
