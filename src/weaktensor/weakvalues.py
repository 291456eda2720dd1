"""Weak values, weak-value tensors, expectation tensors, and marginal sums.

The central object is the tensor of weak values of full projector products:
component ``(i_1, ..., i_N)`` is ``<post| P_{i_1} ... P_{i_N} |pre> /
<post|pre>`` with one basis projector per subsystem. Because the products
resolve the identity, the components always sum to 1; summing over all axes
but one yields the single-subsystem projector weak values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .errors import (
    LengthMismatchError,
    OrthogonalSelectionError,
    ShapeMismatchError,
    SubsystemOutOfRangeError,
)
from .hilbert import (
    Ket, ProjectorProduct, _integers, flat_index, freeze, inner, norm, normalize, read_only_complex
)

#: Relative orthogonality tolerance: a selection is rejected when
#: ``|<post|pre>| <= ORTHO_TOL * norm(pre) * norm(post)``. The relative form
#: keeps unnormalized states valid.
ORTHO_TOL = 1e-10

TensorKind = Literal["weak", "expectation"]


def selection_overlap(pre: Ket, post: Ket) -> complex:
    """Overlap <post|pre>, guarded against (numerically) orthogonal selections."""
    if pre.dims != post.dims:
        raise ShapeMismatchError(f"shapes differ: {pre.dims} vs {post.dims}")
    overlap = inner(post, pre)
    if abs(overlap) <= ORTHO_TOL * norm(pre) * norm(post):
        raise OrthogonalSelectionError(
            f"selection overlap {overlap} is numerically zero; weak values are undefined"
        )
    return overlap


@dataclass(frozen=True, eq=False)
class WeakValueTensor:
    """Complex components indexed by joint basis label.

    ``kind="weak"``: weak values of full projector products for a pre/post
    pair; the components sum to 1 (completeness) and may be negative or
    complex. ``kind="expectation"``: squared amplitude magnitudes of a single
    normalized state; real, in [0, 1], and summing to 1. ``overlap`` stores
    the selection overlap ``<post|pre>`` for diagnostics.

    ``components`` is read-only and shaped ``dims``; it is kept as a view or
    copied by the same rule as :class:`Ket`'s amplitudes. Since nothing can
    write to it, :attr:`marginals` is computed once per tensor and kept.
    """

    dims: tuple[int, ...]
    components: np.ndarray
    kind: TensorKind
    overlap: complex

    def __post_init__(self):
        components = read_only_complex(self.components, tuple(self.dims), what="components")
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "components", components)
        overlap = read_only_complex(self.overlap, what="overlap")
        if overlap.ndim:
            raise LengthMismatchError(f"overlap must be one number, got shape {overlap.shape}")
        object.__setattr__(self, "overlap", complex(overlap))

    @property
    def rank(self) -> int:
        return len(self.dims)

    def component(self, label: Sequence[int]) -> complex:
        return complex(self.components.flat[flat_index(label, self.dims)])

    @cached_property
    def marginals(self) -> tuple[np.ndarray, ...]:
        """One read-only array per axis: the sum over all other axes."""
        return _halved_marginals(self.components, self.dims)


def _halved_marginals(components: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    # Split the axes in halves: the row sums of the (left, right) matrix are
    # the left half's tensor, its column sums the right half's; recurse. That
    # reads the components about twice in all, and sums each marginal by
    # blocks instead of in one long run.
    if len(dims) < 2:  # a rank-1 tensor is its own marginal
        return (components.reshape(-1),) * len(dims)
    half = len(dims) // 2
    block = components.reshape(math.prod(dims[:half]), -1)
    return (
        *_halved_marginals(freeze(block.sum(axis=1)), dims[:half]),
        *_halved_marginals(freeze(block.sum(axis=0)), dims[half:]),
    )


def weak_value(pre: Ket, post: Ket, op: ProjectorProduct) -> complex:
    """Weak value ``<post| op |pre> / <post|pre>`` of a projector product:
    the sum of the weak-tensor components on the product's support.

    Invariant under nonzero complex rescaling of either state. Raises
    :class:`OrthogonalSelectionError` when the selection overlap is
    numerically zero (relative tolerance :data:`ORTHO_TOL`).
    """
    components = weak_tensor(pre, post).components
    return complex(components[op.index(pre.dims)].sum())


def weak_tensor(pre: Ket, post: Ket) -> WeakValueTensor:
    """Tensor of weak values of the full projector products, one component
    per joint basis label."""
    overlap = selection_overlap(pre, post)
    components = np.conj(post.amps)
    components *= pre.amps
    components /= overlap
    return WeakValueTensor(pre.dims, freeze(components), "weak", overlap)


def expectation_tensor(state: Ket) -> WeakValueTensor:
    """Tensor of projector-product expectation values of a single state.

    The state is normalized internally, so the components are the squared
    amplitude magnitudes.
    """
    components = np.abs(normalize(state).amps).astype(np.complex128)
    squares = components.real
    np.square(squares, out=squares)
    return WeakValueTensor(state.dims, freeze(components), "expectation", 1.0 + 0.0j)


def marginalize(t: WeakValueTensor, keep: int) -> list[complex]:
    """Sum the tensor over all axes but ``keep``.

    For a weak tensor this yields the weak value of each single-subsystem
    projector on the kept axis; for an expectation tensor, the level
    probabilities. All axes come from one cached reduction,
    :attr:`WeakValueTensor.marginals`.
    """
    (keep,) = _integers((keep,), SubsystemOutOfRangeError, "axis")
    if not 0 <= keep < t.rank:
        raise SubsystemOutOfRangeError(f"axis {keep} not in a rank-{t.rank} tensor")
    return t.marginals[keep].tolist()


def total_sum(t: WeakValueTensor) -> complex:
    """Sum of all components (1 for both tensor kinds, up to rounding)."""
    return complex(t.components.sum())
