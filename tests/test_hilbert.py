import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktensor import (
    DimensionOverflowError,
    DuplicateSubsystemError,
    Ket,
    LengthMismatchError,
    LevelOutOfRangeError,
    NonFiniteAmplitudeError,
    OutOfRangeError,
    ProjectorProduct,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
    ZeroVectorError,
    apply_pauli_string,
    basis_label,
    basis_state,
    check_dims,
    custom,
    flat_index,
    inner,
    make_ket,
    norm,
    normalize,
    scenario_to_json,
    tensor_product,
)
from oracles import (
    apply_projector_product, dense_pauli_string, dense_projector_product, random_state
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


def cheshire_pre():
    return make_ket((2, 2), [S3, S3, 0.0, S3])


# ---------------------------------------------------------------- construction


def test_make_ket_basis_state():
    k = make_ket((2,), [1, 0])
    assert k.dims == (2,)
    np.testing.assert_array_equal(k.amps, [1.0 + 0j, 0.0 + 0j])


def test_make_ket_bell_psi_plus():
    k = make_ket((2, 2), [0.0, S2, S2, 0.0])
    assert k.amplitude((0, 1)) == pytest.approx(S2)
    assert k.amplitude((1, 0)) == pytest.approx(S2)
    assert norm(k) == pytest.approx(1.0)


def test_make_ket_length_mismatch():
    with pytest.raises(LengthMismatchError):
        make_ket((2, 2), [1.0, 0.0, 0.0])


def test_make_ket_rejects_non_finite():
    with pytest.raises(NonFiniteAmplitudeError):
        make_ket((2,), [float("nan"), 0.0])
    with pytest.raises(NonFiniteAmplitudeError):
        make_ket((2,), [1.0, complex(0.0, float("inf"))])


def test_make_ket_does_not_normalize():
    k = make_ket((2,), [2.0, 0.0])
    assert k.amplitude((0,)) == 2.0


def test_kets_are_immutable():
    k = make_ket((2,), [1.0, 0.0])
    with pytest.raises(ValueError):
        k.amps[0] = 5.0


def test_check_dims_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        check_dims(())
    with pytest.raises(ShapeMismatchError):
        check_dims((2, 1))
    with pytest.raises(DimensionOverflowError):
        check_dims((2,) * 21)


# ---------------------------------------------------------------- index maps


@pytest.mark.parametrize(
    "dims",
    [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 3, 4), (4, 3, 2), (3, 3, 3), (5, 7), (2,) * 12],
)
def test_flat_index_bijection(dims):
    d_total = math.prod(dims)
    assert d_total <= 2**12
    seen = set()
    for label in itertools.product(*(range(d) for d in dims)):
        idx = flat_index(label, dims)
        assert basis_label(idx, dims) == label
        seen.add(idx)
    assert seen == set(range(d_total))


def test_flat_index_big_endian():
    # leftmost subsystem is the most significant digit
    assert flat_index((1, 0), (2, 2)) == 2
    assert flat_index((0, 1), (2, 2)) == 1
    assert flat_index((1, 2), (2, 3)) == 5
    # the last label's index is one below the total dimension
    assert flat_index((1, 2, 4), (2, 3, 5)) == 2 * 3 * 5 - 1


def test_index_map_errors():
    with pytest.raises(LevelOutOfRangeError):
        flat_index((2, 0), (2, 2))
    with pytest.raises(LengthMismatchError):
        flat_index((0,), (2, 2))
    with pytest.raises(OutOfRangeError):
        basis_label(4, (2, 2))


# ---------------------------------------------------------------- products


def test_tensor_product_basis_states():
    k = tensor_product(make_ket((2,), [1, 0]), make_ket((2,), [0, 1]))
    assert k.dims == (2, 2)
    np.testing.assert_array_equal(k.amps, [0, 1, 0, 0])


def test_tensor_product_superposition_times_basis():
    a, b = 0.6, 0.8j
    k = tensor_product(make_ket((2,), [a, b]), make_ket((2,), [1, 0]))
    np.testing.assert_array_equal(k.amps, [a, 0, b, 0])


def test_tensor_product_of_epr_pairs():
    epr = make_ket((2, 2), [0.0, -S2, S2, 0.0])
    k = tensor_product(epr, epr)
    assert k.dims == (2, 2, 2, 2)
    nonzero = np.abs(k.amps) > 0
    assert nonzero.sum() == 4
    np.testing.assert_allclose(np.abs(k.amps[nonzero]), 0.5)


def test_tensor_product_overflow():
    big = basis_state((2,) * 11, (0,) * 11)
    with pytest.raises(DimensionOverflowError):
        tensor_product(big, basis_state((2,) * 10, (0,) * 10))


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(7)
    for dims_a, dims_b in [((2,), (3,)), ((2, 2), (2, 3)), ((3, 3), (2,))]:
        a = Ket(dims_a, random_state(rng, dims_a))
        b = Ket(dims_b, random_state(rng, dims_b))
        assert norm(tensor_product(a, b)) == pytest.approx(norm(a) * norm(b), abs=1e-12)


# ---------------------------------------------------------------- inner / norm


def test_inner_basis():
    zero = make_ket((2,), [1, 0])
    assert inner(zero, zero) == 1.0


def test_inner_cheshire_overlap_is_one_third():
    post = make_ket((2, 2), [S3, -S3, 0.0, S3])
    assert inner(post, cheshire_pre()) == pytest.approx(1.0 / 3.0)


def test_inner_hardy_overlap_is_one():
    pre = make_ket((2, 2), [1.0, 0.0, 1.0, 1.0])
    post = make_ket((2, 2), [1.0, -1.0, -1.0, 1.0])
    assert inner(post, pre) == pytest.approx(1.0)


def test_inner_conjugate_linear_in_first_argument():
    a = make_ket((2,), [1.0, 1.0j])
    b = make_ket((2,), [0.5, 2.0])
    assert inner(Ket((2,), 1j * a.amps), b) == pytest.approx(-1j * inner(a, b))


def test_inner_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        inner(make_ket((2,), [1, 0]), make_ket((3,), [1, 0, 0]))


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for dims in [(2,), (2, 3), (3, 3, 3)]:
        a = Ket(dims, random_state(rng, dims))
        b = Ket(dims, random_state(rng, dims))
        assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-14


def test_norm_values():
    assert norm(make_ket((2,), [1, 0])) == 1.0
    hardy_pre = make_ket((2, 2), [1.0, 0.0, 1.0, 1.0])
    assert norm(hardy_pre) == pytest.approx(math.sqrt(3.0))


def test_norm_survives_a_sum_of_squares_beyond_the_float_range():
    for scale in (1e154, 1e200, 1e300, 1.7976931348623157e308 / 4):
        k = make_ket((2,), [scale, complex(0.0, scale)])
        assert norm(k) == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)
    # binary scaling is exact: a 3-4-5 triangle scaled by 2**660 stays exact
    big = make_ket((2, 2), [math.ldexp(3, 660), math.ldexp(4, 660) * 1j, 0.0, 1e-300])
    assert norm(big) == math.ldexp(5, 660)


def test_norm_ordinary_path_is_numpy_bit_for_bit():
    rng = np.random.default_rng(23)
    for dims in [(2,), (3, 2), (2, 2, 5)]:
        amps = random_state(rng, dims) * 10.0 ** rng.integers(-150, 150)
        assert norm(make_ket(dims, amps)) == float(np.linalg.norm(amps))


# ------------------------------------------------- blocked inner and norm

#: shapes of at most 2**13 entries, the one block in which inner and norm
#: make numpy's own single call: one axis of any size, or several of 2-5 levels
ONE_BLOCK_SHAPES = st.integers(2, 2**13).map(lambda n: (n,)) | st.lists(
    st.integers(2, 5), min_size=2, max_size=5
).map(tuple)

EPS = np.finfo(np.float64).eps


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def signed_zeros(rng, amps):
    """``amps`` with about half of its real and imaginary parts set to +0.0
    or -0.0."""
    parts = amps.view(np.float64)
    zero = rng.random(parts.size) < 0.5
    parts[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
    return amps


@settings(max_examples=80)
@given(ONE_BLOCK_SHAPES, st.integers(0, 2**32 - 1), st.integers(-400, 400), st.booleans())
@example((2**13,), 0, 0, False)
@example((2,), 1, 0, True)
def test_one_block_is_numpy_bit_for_bit(dims, seed, exponent, zeros):
    rng = np.random.default_rng(seed)
    a, b = (random_state(rng, dims) * 2.0**exponent for _ in range(2))
    if zeros:
        a, b = signed_zeros(rng, a), signed_zeros(rng, b)
    ka, kb = make_ket(dims, a), make_ket(dims, b)
    assert bits(complex(inner(ka, kb))) == bits(np.vdot(a, b))
    assert bits(norm(ka)) == bits(np.linalg.norm(a))


def test_an_overflowing_overlap_stays_numpys_nan():
    # the 8-entry pair of test_json_writers.test_extreme_and_integral_floats:
    # +-1.8e308 products overflow, and vdot's NaN is what its scenario keeps
    values = [
        complex(0.0, -0.0), complex(-0.0, 0.0), complex(5e-324, -5e-324),
        complex(1.7976931348623157e308, -1.7976931348623157e308), complex(1.0, -2.0),
        complex(1e16, 123456789.0), complex(-3.0, 1e22), complex(0.1, 1e-7),
    ]
    pre, post = make_ket((8,), values), make_ket((8,), values[::-1])
    overlap = inner(post, pre)
    assert cmath.isnan(overlap)
    assert bits(overlap) == bits(np.vdot(post.amps, pre.amps))


@pytest.mark.parametrize("n", [2**13 + 1, 2**16])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_blocked_sums_agree_with_an_extended_precision_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a, b = random_state(rng, (n,)), random_state(rng, (n,))
    wide_a, wide_b = a.astype(np.clongdouble), b.astype(np.clongdouble)
    exact = np.sum(np.conj(wide_a) * wide_b)
    assert abs(inner(make_ket((n,), a), make_ket((n,), b)) - exact) <= 4 * EPS * np.sum(
        np.abs(a) * np.abs(b)
    )
    # a sum of positive squares: a single 8192-entry dot, np.linalg.norm's
    # own, was seen up to 7.8 eps off, so the bound here is 16 eps
    squares = np.sum(wide_a.real**2 + wide_a.imag**2)
    assert abs(np.longdouble(norm(make_ket((n,), a))) ** 2 - squares) <= 16 * EPS * squares


def test_normalize():
    k = normalize(make_ket((2,), [3.0, 4.0]))
    assert norm(k) == pytest.approx(1.0)
    np.testing.assert_allclose(k.amps, [0.6, 0.8])


def test_normalize_keeps_the_signed_zeros_of_its_division():
    # numpy's complex division by a real n adds imag * 0.0 to the real part,
    # so -0.0 + 1j over 3.16... has the real part +0.0. Multiplying the
    # float64 parts by the reciprocal 1.0 / n, as the kernels that take abs()
    # of the result do, would keep -0.0, and every writer would print it.
    k = normalize(make_ket((2,), [complex(-0.0, 1.0), 3]))
    assert bits(k.amps[0].real) == bits(0.0)
    assert '"amps": [\n      [\n        0.0,\n' in scenario_to_json(custom(k))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_a_strided_ket_takes_the_rescaled_norm(scale):
    # make_ket keeps a read-only strided view, whose parts the rescaled path
    # (amplitudes above about 1e154 or a norm below 2**-480) must still read
    base = random_state(np.random.default_rng(5), (16,)) * scale
    base.setflags(write=False)
    strided, contiguous = make_ket((2, 2, 2), base[::2]), make_ket((2, 2, 2), base[::2].copy())
    assert not strided.amps.flags.c_contiguous
    assert bits(norm(strided)) == bits(norm(contiguous))


def test_normalize_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize(make_ket((2,), [0.0, 0.0]))
    with pytest.raises(ZeroVectorError):
        normalize(make_ket((2,), [1e-13, 0.0]))


# ---------------------------------------------------------------- projectors


def test_empty_projector_product_is_identity():
    k = cheshire_pre()
    out = apply_projector_product(ProjectorProduct(), k)
    np.testing.assert_array_equal(out.amps, k.amps)


def test_projector_product_on_cheshire_pre():
    # position L (axis 1 level 0) and spin up (axis 0 level 0)
    out = apply_projector_product(ProjectorProduct(((0, 0), (1, 0))), cheshire_pre())
    expected = np.zeros(4, dtype=complex)
    expected[0] = S3
    np.testing.assert_array_equal(out.amps, expected)


def test_projector_product_duplicate_subsystem():
    with pytest.raises(DuplicateSubsystemError):
        ProjectorProduct(((0, 0), (0, 1)))


def test_projector_product_canonical_order():
    p = ProjectorProduct(((2, 1), (0, 0)))
    assert p.factors == ((0, 0), (2, 1))


def test_projector_product_range_errors():
    dims = cheshire_pre().dims
    with pytest.raises(SubsystemOutOfRangeError):
        ProjectorProduct(((2, 0),)).index(dims)
    with pytest.raises(LevelOutOfRangeError):
        ProjectorProduct(((0, 2),)).index(dims)


def test_projector_product_idempotent_exactly():
    rng = np.random.default_rng(3)
    dims = (2, 3, 2)
    k = Ket(dims, random_state(rng, dims))
    p = ProjectorProduct(((0, 1), (1, 2)))
    once = apply_projector_product(p, k)
    twice = apply_projector_product(p, once)
    np.testing.assert_array_equal(once.amps, twice.amps)


def test_projector_completeness_reconstructs_input_exactly():
    rng = np.random.default_rng(4)
    dims = (2, 3, 2)
    k = Ket(dims, random_state(rng, dims))
    for subset in [(0,), (1,), (0, 2), (0, 1, 2)]:
        acc = np.zeros(k.dim, dtype=complex)
        for levels in itertools.product(*(range(dims[s]) for s in subset)):
            p = ProjectorProduct(tuple(zip(subset, levels)))
            acc = acc + apply_projector_product(p, k).amps
        np.testing.assert_array_equal(acc, k.amps)


def test_projector_masking_matches_dense_oracle():
    rng = np.random.default_rng(5)
    dims = (2, 3)
    k = Ket(dims, random_state(rng, dims))
    for factors in [(), ((0, 1),), ((1, 2),), ((0, 0), (1, 1))]:
        masked = apply_projector_product(ProjectorProduct(factors), k)
        dense = dense_projector_product(factors, dims) @ k.amps
        np.testing.assert_allclose(masked.amps, dense, atol=1e-14)


# ---------------------------------------------------------------- Pauli strings


def ghz3():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = S2
    return Ket((2, 2, 2), amps)


def test_pauli_xxx_flips_all():
    out = apply_pauli_string("XXX", basis_state((2, 2, 2), (0, 0, 0)))
    np.testing.assert_array_equal(out.amps, basis_state((2, 2, 2), (1, 1, 1)).amps)


def test_pauli_xxx_fixes_ghz():
    out = apply_pauli_string("XXX", ghz3())
    np.testing.assert_allclose(out.amps, ghz3().amps, atol=1e-15)


def test_pauli_yyx_negates_ghz():
    out = apply_pauli_string("YYX", ghz3())
    np.testing.assert_allclose(out.amps, -ghz3().amps, atol=1e-15)


@pytest.mark.parametrize("letters", ["I", "X", "Y", "Z"])
def test_single_pauli_matches_dense_matrix(letters):
    rng = np.random.default_rng(6)
    k = Ket((2,), random_state(rng, (2,)))
    out = apply_pauli_string(letters, k)
    np.testing.assert_allclose(out.amps, dense_pauli_string(letters) @ k.amps, atol=1e-15)


@pytest.mark.parametrize("letters", ["XYZ", "YYX", "ZIZ", "IYI", "XXX", "ZZY"])
def test_pauli_string_matches_dense_oracle(letters):
    rng = np.random.default_rng(8)
    dims = (2, 2, 2)
    k = Ket(dims, random_state(rng, dims))
    out = apply_pauli_string(letters, k)
    np.testing.assert_allclose(out.amps, dense_pauli_string(letters) @ k.amps, atol=1e-14)


def test_pauli_string_errors():
    with pytest.raises(ShapeMismatchError):
        apply_pauli_string("X", make_ket((3,), [1, 0, 0]))
    with pytest.raises(LengthMismatchError):
        apply_pauli_string("XX", make_ket((2,), [1, 0]))
    with pytest.raises(ValueError):
        apply_pauli_string("XA", make_ket((2, 2), [1, 0, 0, 0]))


def test_norm_survives_a_sum_of_squares_that_underflows():
    assert norm(make_ket((2,), [1e-170, 1e-170])) == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-15)
    assert norm(make_ket((2,), [3e-160, 4e-160j])) == pytest.approx(5e-160, rel=1e-15)
    # binary scaling is exact: a 3-4-5 triangle scaled by 2**-600 stays exact
    tiny = make_ket((2, 2), [math.ldexp(3, -600), math.ldexp(4, -600) * 1j, 0.0, 1e-300])
    assert norm(tiny) == math.ldexp(5, -600)
    assert norm(make_ket((2,), [5e-324, 0.0])) == 5e-324
    assert norm(make_ket((2,), [0.0, 0.0])) == 0.0


def test_normalize_of_a_tiny_state_reports_its_true_norm():
    with pytest.raises(ZeroVectorError) as info:
        normalize(make_ket((2,), [3e-160, 4e-160]))
    assert str(info.value) == f"cannot normalize a vector of norm {5e-160}"
