"""`hilbert.read_only_complex` is the one conversion of outside values into
amplitudes, so `Ket`, `make_ket` and `WeakValueTensor` accept the same
numbers, with the same bits as ``complex(x)``, and reject the same
non-numbers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    Ket,
    LengthMismatchError,
    NonFiniteAmplitudeError,
    NonNumericAmplitudeError,
    WeakValueTensor,
    make_ket,
)

BUILDERS = {
    "Ket": lambda values: Ket((len(values),), values).amps,
    "make_ket": lambda values: make_ket((len(values),), values).amps,
    "WeakValueTensor": lambda values: WeakValueTensor(
        (len(values),), values, "weak", 1 + 0j
    ).components,
}
#: (builder, the input its errors name), in the order of BUILDERS
NAMED_BUILDERS = [(BUILDERS["Ket"], "amplitudes"), (BUILDERS["make_ket"], "amplitudes"),
                  (BUILDERS["WeakValueTensor"], "components")]


def bits(values) -> list[int]:
    return np.asarray(values, np.complex128).view(np.uint64).tolist()


def oracle(values) -> list[int]:
    return bits([complex(x) for x in values])


@pytest.mark.parametrize("build, what", NAMED_BUILDERS, ids=BUILDERS.keys())
@pytest.mark.parametrize(
    "values",
    [
        [None, 1],
        ["1", "2"],
        [1, "2"],
        [b"1", b"2"],
        [object(), 1],
        [[1, 2], [3]],
        [1, [2]],
    ],
    ids=["none", "numeric-str", "str-among-numbers", "bytes", "object", "ragged", "ragged-tail"],
)
def test_non_numbers_raise_the_same_error_from_every_builder(build, what, values):
    with pytest.raises(NonNumericAmplitudeError) as info:
        build(values)
    assert str(info.value) == f"{what} must be numbers"


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize(
    "values",
    [np.array([None, 1], dtype=object), np.array(["1", "2"]), np.array([b"1", b"2"])],
    ids=["none-object-array", "str-array", "bytes-array"],
)
def test_non_number_arrays_raise_the_same_error_from_every_builder(build, values):
    with pytest.raises(NonNumericAmplitudeError):
        build(values)


@pytest.mark.parametrize("build, what", NAMED_BUILDERS, ids=BUILDERS.keys())
@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
def test_an_int_beyond_the_float_range_is_non_finite(build, what, huge):
    with pytest.raises(NonFiniteAmplitudeError) as info:
        build([1, huge])
    assert str(info.value) == f"{what} must be finite"


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize(
    "values",
    [
        [Fraction(1, 3), Fraction(-2, 7)],
        [2**70 + 1, -(2**64) - 3],
        [2**64 - 1, 3],
        [True, False],
        [np.True_, 2**70],
        [np.float32(0.1), np.int8(-3)],
        [np.longdouble("0.1"), np.complex64(1 / 3 - 0.25j)],
        [2**53 + 1, -0.0],
    ],
    ids=[
        "fraction",
        "beyond-int64",
        "uint64",
        "bool",
        "numpy-bool",
        "numpy-scalars",
        "longdouble",
        "int-rounding",
    ],
)
def test_number_objects_convert_as_complex_does(build, values):
    assert bits(build(values)) == oracle(values)


def test_make_ket_needs_one_number_per_item_where_ket_flattens():
    with pytest.raises(NonNumericAmplitudeError):
        make_ket((2,), [[1], [2]])
    assert bits(Ket((2,), [[1], [2]]).amps) == oracle([1, 2])


finite = st.floats(allow_nan=False, allow_infinity=False)
number = st.one_of(
    finite,
    st.integers(-(2**100), 2**100),
    st.builds(complex, finite, finite),
    st.fractions(max_denominator=10**6),
    st.booleans(),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
non_number = st.sampled_from([None, "1", "x", b"1", object(), [1, 2]])


def as_array(values) -> np.ndarray:
    # an item that is a list makes the sequence ragged, which numpy refuses
    # unless asked for an object array
    try:
        return np.array(values)
    except ValueError:
        return np.array(values, dtype=object)


@settings(max_examples=150)
@given(st.lists(number, min_size=2, max_size=12), st.data())
def test_lists_arrays_and_kets_agree_with_the_complex_oracle(values, data):
    expected = oracle(values)
    dims = (len(values),)
    assert bits(make_ket(dims, values).amps) == expected
    assert bits(make_ket(dims, as_array(values)).amps) == expected
    assert bits(Ket(dims, values).amps) == expected

    bad = list(values)
    bad.insert(data.draw(st.integers(0, len(values))), data.draw(non_number))
    dims = (len(bad),)
    for build in (
        lambda: make_ket(dims, bad),
        lambda: make_ket(dims, as_array(bad)),
        lambda: Ket(dims, bad),
    ):
        with pytest.raises(NonNumericAmplitudeError):
            build()



@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: Ket((2, 2), [1, 2, 3]), "amplitudes"),
        (lambda: make_ket((2, 2), [1, 2, 3]), "amplitudes"),
        (lambda: WeakValueTensor((2, 2), [1, 2, 3], "weak", 1), "components"),
        (lambda: WeakValueTensor((2, 2), np.zeros(5, np.complex128), "weak", 1), "components"),
    ],
    ids=["Ket", "make_ket", "WeakValueTensor", "WeakValueTensor-array"],
)
def test_a_wrong_count_raises_the_same_error_from_every_builder(build, what):
    # the tensor used to fail in numpy's reshape with a bare ValueError
    with pytest.raises(LengthMismatchError) as info:
        build()
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(f"expected 4 {what} for shape (2, 2), got ")
