"""Independent brute-force constructions used as oracles by the tests.

Everything here builds dense matrices / states from first principles (kron
of small matrices, explicit digit arithmetic) so the masking- and
phase-based fast paths in the package are checked against a separate route.
"""

import itertools
import math

import numpy as np

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
