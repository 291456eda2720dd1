"""Independent brute-force constructions used as oracles by the tests.

Everything here builds dense matrices / states from first principles (kron
of small matrices, explicit digit arithmetic) so the masking- and
phase-based fast paths in the package are checked against a separate route.
"""

import functools
import itertools
import math

import numpy as np

from weaktensor import Ket, inner, make_ket, norm, normalize
from weaktensor.errors import SchemaViolationError, ShapeMismatchError

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(matrices):
    out = np.array([[1.0 + 0.0j]])
    for m in matrices:
        out = np.kron(out, m)
    return out


def dense_projector_product(factors, dims):
    """D x D matrix of a product of |level><level| projectors."""
    chosen = dict(factors)
    blocks = []
    for axis, d in enumerate(dims):
        if axis in chosen:
            block = np.zeros((d, d), dtype=complex)
            block[chosen[axis], chosen[axis]] = 1.0
        else:
            block = np.eye(d, dtype=complex)
        blocks.append(block)
    return kron_chain(blocks)


def weak_value_observable(pre, post, matrix):
    """Weak value ``<post| A |pre> / <post|pre>`` of a dense operator matrix,
    the brute-force route the index-based projector paths are checked
    against."""
    a = np.asarray(matrix, dtype=complex)
    if a.shape != (pre.dim, pre.dim):
        raise ShapeMismatchError(f"operator shape {a.shape} does not match dimension {pre.dim}")
    return complex(np.vdot(post.amps, a @ pre.amps) / np.vdot(post.amps, pre.amps))


def apply_projector_product(p, k):
    """``k`` with every amplitude off the support of the projector product
    ``p`` zeroed, through ``ProjectorProduct.index``. Survivors are copied
    bit-identical, so the masking is exactly idempotent."""
    index = p.index(k.dims)
    shaped = k.amps.reshape(k.dims)
    out = np.zeros_like(shaped)
    out[index] = shaped[index]
    return Ket(k.dims, out)


def dense_pauli_string(letters):
    return kron_chain([PAULI[l] for l in letters])


def all_projector_products(dims):
    """Every (subsystem subset, level choice) pair for a shape."""
    n = len(dims)
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            for levels in itertools.product(*(range(dims[s]) for s in subset)):
                yield tuple(zip(subset, levels))


def random_state(rng, dims):
    d = math.prod(dims)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def random_selected_pair(rng, dims, min_relative_overlap=0.01):
    """Random pre/post amplitudes with a well-conditioned selection overlap."""
    while True:
        pre = random_state(rng, dims)
        post = random_state(rng, dims)
        overlap = np.vdot(post, pre)
        if abs(overlap) > min_relative_overlap * np.linalg.norm(pre) * np.linalg.norm(post):
            return pre, post


def digits(index, dims):
    """Big-endian digits of a flat index, by repeated division."""
    out = []
    for d in reversed(dims):
        index, digit = divmod(index, d)
        out.append(digit)
    return tuple(reversed(out))


def kron_phased_factors(factor, phased, t):
    """Kron of one copy of ``factor`` per ``(index, rate)`` entry, with
    component ``index`` of that copy multiplied by ``exp(-i * rate * t)``."""
    out = np.ones(1, dtype=complex)
    for index, rate in phased:
        copy = np.array(factor, dtype=complex)
        copy[index] *= np.exp(-1j * rate * t)
        out = np.kron(out, copy)
    return out


def product_form_loop(factor, phased, t):
    """The product form as a per-copy loop: copy ``factor``'s amplitudes once
    per ``(index, rate)`` entry, multiply component ``index`` of the copy by
    ``np.exp(-1j * rate * t)``, and kron the copies left to right. Unlike
    :func:`kron_phased_factors` it multiplies by no ``[1]`` seed, so its bits,
    signed zeros included, are the reference for a byte-for-byte check."""
    copies = []
    for index, rate in phased:
        amps = np.array(factor, dtype=np.complex128)
        amps[index] *= np.exp(-1j * rate * t)
        copies.append(amps)
    return functools.reduce(np.kron, copies)


def digit_energies(dims, energy_of_label):
    """Energy per flat index, from ``energy_of_label`` of each label's digits."""
    return np.array([energy_of_label(digits(k, dims)) for k in range(math.prod(dims))])


def phase_report_loop(state, reference, tol=1e-12):
    """Per-index relative phase report: for every flat index where both
    amplitudes exceed ``tol``, ``arg(state_k / reference_k)`` folded into
    ``(-pi, pi]``, keyed by the index's big-endian digits in index order."""
    report = {}
    for k in range(state.dim):
        s, r = state.amps[k], reference.amps[k]
        if abs(s) > tol and abs(r) > tol:
            phase = float(np.angle(s / r)) + 0.0  # folds -0.0 into +0.0
            if phase <= -math.pi:
                phase += 2.0 * math.pi
            report[digits(k, state.dims)] = phase
    return report


def json_pairs_loop(values):
    """Per-element ``[re, im]`` transcription of complex values in flat order:
    ``[float(v.real), float(v.imag)]`` for each element, one at a time."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).reshape(-1)]


def marginals_fsum(components, dims):
    """Per axis and level: the correctly rounded sum of every component at
    that level (``math.fsum`` of the real and of the imaginary parts) and the
    sum of their magnitudes. Each component's levels are the digits of its
    flat index."""
    per_axis = [[[] for _ in range(d)] for d in dims]
    for index, value in enumerate(np.asarray(components).reshape(-1).tolist()):
        for axis, level in enumerate(digits(index, dims)):
            per_axis[axis][level].append(value)
    return [
        [
            (
                complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values)),
                math.fsum(map(abs, values)),
            )
            for values in levels
        ]
        for levels in per_axis
    ]


def pauli_string_loop(letters, amps, dims):
    """A Pauli string applied with hand-kept level slices: for each non-``I``
    letter, ``X`` and ``Y`` flip the axis, then ``Y`` multiplies level 0 by
    ``-1j`` and level 1 by ``1j`` and ``Z`` multiplies level 1 by ``-1.0``.
    Returns the flat complex128 result."""
    out = np.asarray(amps, dtype=np.complex128).reshape(dims).copy()
    lo = [slice(None)] * len(dims)
    hi = [slice(None)] * len(dims)
    for axis, letter in enumerate(letters):
        if letter == "I":
            continue
        lo[axis], hi[axis] = 0, 1
        if letter in "XY":
            out = np.flip(out, axis=axis).copy()
        if letter == "Y":
            out[tuple(lo)] *= -1j
            out[tuple(hi)] *= 1j
        elif letter == "Z":
            out[tuple(hi)] *= -1.0
        lo[axis] = hi[axis] = slice(None)
    return out.reshape(-1)


def parse_amps_loop(raw: object, field: str, expected: int) -> np.ndarray:
    """JSON ``[re, im]`` pairs read one entry at a time: a type and length
    check, then ``complex(float, float)`` and a finiteness check per pair.
    Returns the flat complex128 amplitudes."""
    if not isinstance(raw, list) or len(raw) != expected:
        raise SchemaViolationError(field, f"expected a list of {expected} [re, im] pairs")
    amps = np.empty(expected, dtype=np.complex128)
    for k, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise SchemaViolationError(f"{field}[{k}]", "expected an [re, im] pair of numbers")
        try:
            value = complex(float(entry[0]), float(entry[1]))
        except OverflowError:  # an integer literal beyond the float range
            raise SchemaViolationError(f"{field}[{k}]", "amplitude must be finite") from None
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise SchemaViolationError(f"{field}[{k}]", "amplitude must be finite")
        amps[k] = value
    return amps


def gauge_fixed_comparison(a, b):
    """``compare_states``' two-array formula: each state over its norm as a
    complex division, its phase fixed at its first largest-magnitude
    amplitude, then the largest magnitude of the difference. Returns
    ``(fidelity, max_component_diff)``."""

    def gauge_fixed(k, n):
        u = k.amps / n
        anchor = u[int(np.argmax(np.abs(u)))]
        u *= np.conj(anchor) / abs(anchor)
        return u

    overlap = inner(a, b)
    na, nb = norm(a), norm(b)
    fidelity = abs(overlap) ** 2 / (na**2 * nb**2)
    diff = gauge_fixed(a, na)
    diff -= gauge_fixed(b, nb)
    return float(fidelity), float(np.abs(diff).max())


def normalized_expectation_components(state):
    """``expectation_tensor``'s components through ``normalize``: the
    magnitudes of the divided amplitudes, squared in the real part."""
    components = np.abs(normalize(state).amps).astype(np.complex128)
    squares = components.real
    np.square(squares, out=squares)
    return components


def unique_spectrum(energies):
    """``(levels, index)`` of the energies by ``np.unique(...,
    return_inverse=True)`` over their bits."""
    levels, index = np.unique(np.asarray(energies).view(np.int64), return_inverse=True)
    return levels.view(np.float64), index


def hardy_family(alpha):
    """``(pre, post)`` of the class that holds both experiments: pre ``|L_p
    L_e> + alpha|L_p R_e> + |R_p L_e> + |R_p R_e>``, post as in ``hardy``.
    Its weak tensor is ``(1, -alpha, -1, 1) / (1 - alpha)`` in flat order;
    ``alpha = 0`` is ``hardy`` and ``alpha = e^{i*gamma}`` is ``hardy_gamma``."""
    pre = make_ket((2, 2), np.array([1.0, alpha, 1.0, 1.0], dtype=complex))
    return pre, make_ket((2, 2), [1.0, -1.0, -1.0, 1.0])
