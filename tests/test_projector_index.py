"""``ProjectorProduct.index``: the one statement of a product's support."""

import numpy as np
import pytest

from weaktensor import LevelOutOfRangeError, ProjectorProduct, SubsystemOutOfRangeError
from oracles import all_projector_products, digits

DIMS = (2, 3, 4)
ALL = slice(None)


def test_index_puts_levels_on_factor_axes_and_full_slices_elsewhere():
    assert ProjectorProduct().index(DIMS) == (ALL, ALL, ALL)
    assert ProjectorProduct(((1, 2),)).index(DIMS) == (ALL, 2, ALL)
    assert ProjectorProduct(((2, 3), (0, 1))).index(DIMS) == (1, ALL, 3)
    assert ProjectorProduct(((0, 1), (1, 2), (2, 3))).index(DIMS) == (1, 2, 3)


@pytest.mark.parametrize(
    "factors, error",
    [
        (((3, 0),), SubsystemOutOfRangeError),
        (((-1, 0),), SubsystemOutOfRangeError),
        (((1, 3),), LevelOutOfRangeError),
        (((0, 0), (2, 4)), LevelOutOfRangeError),
        (((2, -1),), LevelOutOfRangeError),
    ],
)
def test_index_rejects_factors_outside_the_shape(factors, error):
    with pytest.raises(error):
        ProjectorProduct(factors).index(DIMS)


def test_index_selects_exactly_the_matching_labels():
    size = int(np.prod(DIMS))
    for factors in all_projector_products(DIMS):
        mask = np.zeros(DIMS, dtype=bool)
        mask[ProjectorProduct(factors).index(DIMS)] = True
        expected = [all(digits(k, DIMS)[s] == lvl for s, lvl in factors) for k in range(size)]
        assert mask.reshape(-1).tolist() == expected
