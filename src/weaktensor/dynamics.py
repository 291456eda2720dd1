"""Diagonal projector Hamiltonians, exact phase evolution, and the named
product-form evolutions.

Every Hamiltonian here is diagonal in the computational basis (a sum of
coupling-weighted projector products), so time evolution is exact: amplitude
``k`` picks up the phase ``exp(-i * E_k * t)`` with hbar = 1.

The named product-form families (``psit1``, ``E111``, ``Hamm2``, ``GHZ2``,
``PsiGHZ11``) are closed-form factored evolutions of EPR- and GHZ-pair
systems in which every tensor factor accumulates its own phase. They do NOT
generally agree with exact evolution under the corresponding joint-projector
Hamiltonians (the joint projector phases a single joint amplitude, while the
product forms phase one component of every factor); :func:`compare_states`
quantifies the gap instead of deciding between them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    InvalidCountError,
    MissingParamError,
    NonFiniteAmplitudeError,
    NonFiniteEnergyError,
    ShapeMismatchError,
    UnknownFamilyError,
    ZeroVectorError,
)
from .hilbert import (
    ZERO_NORM_TOL,
    Ket,
    ProjectorProduct,
    basis_labels,
    check_dims,
    freeze,
    inner,
    norm,
    tensor_product,
    total_dim,
)
from .scenarios import ghz_ket

#: Both amplitudes must exceed this for a label to appear in a phase report.
PHASE_AMP_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianTerm:
    """A coupling energy attached to a projector product (hbar = 1)."""

    coupling: float
    selector: ProjectorProduct

    def __post_init__(self):
        if not math.isfinite(self.coupling):
            raise NonFiniteEnergyError(f"coupling must be finite, got {self.coupling}")


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Real energy per basis index, stored flat in big-endian order."""

    dims: tuple[int, ...]
    energies: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        energies = np.array(self.energies, dtype=np.float64).reshape(-1)
        if energies.size != total_dim(dims):
            raise ShapeMismatchError(
                f"expected {total_dim(dims)} energies for shape {dims}, got {energies.size}"
            )
        if not np.all(np.isfinite(energies)):
            raise NonFiniteEnergyError("energies must be finite")
        energies.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "energies", energies)


def build_hamiltonian(dims: Sequence[int], terms: Iterable[HamiltonianTerm]) -> DiagonalHamiltonian:
    """Sum coupling-weighted projector products into a diagonal Hamiltonian.

    The energy at a basis label is the sum of the couplings of every term
    whose selector matches the label; overlapping terms add.
    """
    dims = check_dims(dims)
    energies = np.zeros(total_dim(dims), dtype=np.float64)
    shaped = energies.reshape(dims)
    for term in terms:
        shaped[term.selector.index(dims)] += term.coupling
    return DiagonalHamiltonian(dims, energies)


def evolve(state: Ket, h: DiagonalHamiltonian, t: float) -> Ket:
    """Exact evolution: amplitude k is multiplied by exp(-i * E_k * t)."""
    if state.dims != h.dims:
        raise ShapeMismatchError(f"state shape {state.dims} differs from {h.dims}")
    # a non-finite angle E_k * t makes a NaN amplitude: refuse it up front,
    # without numpy's overflow / invalid-value warnings
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(h.energies * t).all()
    if not finite:
        raise NonFiniteAmplitudeError("amplitudes must be finite")
    return Ket(state.dims, freeze(state.amps * np.exp(-1j * h.energies * t)))


def epr_pair() -> Ket:
    """Normalized two-qubit state ``(|10> - |01>) / sqrt(2)``."""
    s = 1.0 / math.sqrt(2.0)
    return Ket((2, 2), np.array([0.0, -s, s, 0.0], dtype=np.complex128))


def _all_pairs_10_selector(n_pairs: int) -> ProjectorProduct:
    # joint |10> on every pair: qubit 2j at level 1, qubit 2j+1 at level 0
    return ProjectorProduct(tuple((q, 1 - q % 2) for q in range(2 * n_pairs)))


def _all_at(level: int, qubits: Iterable[int]) -> ProjectorProduct:
    return ProjectorProduct(tuple((q, level) for q in qubits))


#: joint |01>|01> label of EPR pairs 1 and 2
_PAIRS_01 = ProjectorProduct(((0, 0), (1, 1), (2, 0), (3, 1)))


@dataclass(frozen=True)
class Family:
    """One multiwise family, stated once for both evolution routes.

    The system is ``len(phased)`` copies of ``factor`` (an EPR pair or a GHZ
    cube). The product form multiplies component ``index`` of copy ``j`` by
    ``exp(-i * rate * t)``, where ``phased[j] = (index, rate)``; exact
    evolution uses the joint-projector Hamiltonian with one
    ``(rate, selector)`` term per entry of ``terms``. Each rate is a function
    of the mapping from parameter name to value.
    """

    params: tuple[str, ...]
    factor: Ket
    phased: tuple[tuple[int, Callable[[dict], float]], ...]
    terms: tuple[tuple[Callable[[dict], float], ProjectorProduct], ...]


_eps, _eps2, _phi = itemgetter("eps"), itemgetter("eps2"), itemgetter("phi")

#: The named families; see :func:`product_form` and :func:`exact_counterpart`.
#: EPR flat index 2 is ``|10>`` and 1 is ``|01>``; GHZ index 0 is ``|000>``
#: and 7 is ``|111>``.
FAMILIES = {
    "psit1": Family(
        ("eps",), epr_pair(), ((2, _eps),) * 2, ((_eps, _all_pairs_10_selector(2)),)
    ),
    "E111": Family(
        ("eps",), epr_pair(), ((2, _eps),) * 3, ((_eps, _all_pairs_10_selector(3)),)
    ),
    "Hamm2": Family(
        ("eps", "eps2"),
        epr_pair(),
        ((2, _eps), (2, lambda p: p["eps"] - p["eps2"]), (1, _eps2)),
        ((_eps, _all_pairs_10_selector(2)), (_eps2, _PAIRS_01)),
    ),
    "GHZ2": Family(("phi",), ghz_ket(3, 2), ((0, _phi),) * 2, ((_phi, _all_at(0, range(6))),)),
    "PsiGHZ11": Family(
        ("phi", "eps"),
        ghz_ket(3, 2),
        ((0, _phi), (0, lambda p: -p["eps"]), (7, lambda p: p["phi"] + p["eps"])),
        (
            (_phi, _all_at(0, range(6))),
            (lambda p: p["phi"] + p["eps"], _all_at(1, range(3, 9))),
        ),
    ),
}

PRODUCT_FAMILIES = tuple(FAMILIES)


def _family(name: str, **params: float | None) -> tuple[Family, dict]:
    if name not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {name!r}; expected one of {PRODUCT_FAMILIES}")
    family = FAMILIES[name]
    for param in family.params:
        if params[param] is None:
            raise MissingParamError(f"family {name!r} requires parameter {param!r}")
    return family, {param: float(params[param]) for param in family.params}


def product_form(
    family: str,
    t: float,
    eps: float | None = None,
    eps2: float | None = None,
    phi: float | None = None,
) -> Ket:
    """State of the named product-form evolution at time ``t``.

    Families and their parameters (each factor normalized; phases sit on the
    components each family marks):

    * ``psit1`` (eps): two EPR pairs, ``e^{-i*eps*t}`` on each ``|10>``.
    * ``E111`` (eps): three EPR pairs, same phasing.
    * ``Hamm2`` (eps, eps2): three EPR pairs with phases ``e^{-i*eps*t}``,
      ``e^{-i*(eps-eps2)*t}`` on ``|10>`` of pairs 1 and 2 and
      ``e^{-i*eps2*t}`` on ``|01>`` of pair 3.
    * ``GHZ2`` (phi): two GHZ cubes, ``e^{-i*phi*t}`` on each ``|000>``.
    * ``PsiGHZ11`` (phi, eps): three GHZ cubes with ``e^{-i*phi*t}`` on
      ``|000>`` of cube 1, ``e^{+i*eps*t}`` on ``|000>`` of cube 2 and
      ``e^{-i*(phi+eps)*t}`` on ``|111>`` of cube 3.
    """
    fam, values = _family(family, eps=eps, eps2=eps2, phi=phi)
    copies = []
    for index, rate in fam.phased:
        if not math.isfinite(rate(values) * t):  # exp would make a NaN amplitude
            raise NonFiniteAmplitudeError("amplitudes must be finite")
        amps = fam.factor.amps.copy()
        amps[index] *= np.exp(-1j * rate(values) * t)
        copies.append(Ket(fam.factor.dims, freeze(amps)))
    return reduce(tensor_product, copies)


def multiwise_epr_hamiltonian(eps: float, n_pairs: int = 2) -> DiagonalHamiltonian:
    """Joint-projector coupling of ``n_pairs`` EPR pairs: a single term of
    energy ``eps`` on the joint ``|10>...|10>`` label."""
    return build_hamiltonian(
        (2,) * (2 * n_pairs), [HamiltonianTerm(eps, _all_pairs_10_selector(n_pairs))]
    )


def paired_epr_hamiltonian(eps1: float, eps2: float, n_pairs: int = 2) -> DiagonalHamiltonian:
    """Two-term coupling of EPR pairs 1 and 2: ``eps1`` on the joint
    ``|10>|10>`` label and ``eps2`` on the joint ``|01>|01>`` label, with any
    further pairs uncoupled."""
    if n_pairs < 2:
        raise InvalidCountError("need at least the two coupled pairs")
    return build_hamiltonian(
        (2,) * (2 * n_pairs),
        [HamiltonianTerm(eps1, _all_pairs_10_selector(2)), HamiltonianTerm(eps2, _PAIRS_01)],
    )


def multiwise_ghz_hamiltonian(phi: float, n_cubes: int = 2) -> DiagonalHamiltonian:
    """Joint-projector coupling of ``n_cubes`` GHZ cubes: a single term of
    energy ``phi`` on the all-zeros label."""
    return build_hamiltonian(
        (2,) * (3 * n_cubes), [HamiltonianTerm(phi, _all_at(0, range(3 * n_cubes)))]
    )


def exact_counterpart(
    family: str,
    t: float,
    eps: float | None = None,
    eps2: float | None = None,
    phi: float | None = None,
) -> Ket:
    """Exact diagonal evolution of the system behind a product-form family.

    The initial state is the product of EPR pairs or GHZ cubes and the
    Hamiltonian is the corresponding joint-projector coupling:

    * ``psit1``: EPR x EPR under eps on the joint ``|10>|10>`` label.
    * ``E111``: three EPR pairs under eps on the joint all-``|10>`` label.
    * ``Hamm2``: three EPR pairs; the two stated couplings act on pairs 1
      and 2 (eps on joint ``|10>|10>``, eps2 on joint ``|01>|01>``) and
      pair 3 is uncoupled.
    * ``GHZ2``: GHZ x GHZ under phi on the all-zeros label.
    * ``PsiGHZ11``: three GHZ cubes with phi on the all-zeros label of
      cubes 1 and 2 and ``phi + eps`` on the all-ones label of cubes 2
      and 3 (the third cube sits at the ``|111>`` corner of the second).
    """
    fam, values = _family(family, eps=eps, eps2=eps2, phi=phi)
    state = reduce(tensor_product, [fam.factor] * len(fam.phased))
    terms = [HamiltonianTerm(rate(values), selector) for rate, selector in fam.terms]
    return evolve(state, build_hamiltonian(state.dims, terms), t)


@dataclass(frozen=True)
class ComparisonReport:
    """Fidelity and gauge-fixed max amplitude difference of two states."""

    fidelity: float
    max_component_diff: float


def _gauge_fixed(k: Ket, n: float) -> np.ndarray:
    # unit norm (``n`` is norm(k)), global phase fixed so the
    # largest-magnitude amplitude is real and positive
    u = k.amps / n
    anchor = u[int(np.argmax(np.abs(u)))]
    return u * (np.conj(anchor) / abs(anchor))


def compare_states(a: Ket, b: Ket) -> ComparisonReport:
    """Report how far two states are from equal up to norm and global phase.

    ``fidelity`` is ``|<a|b>|^2 / (<a|a><b|b>)``; ``max_component_diff`` is
    the largest amplitude difference between the normalized representatives
    after aligning each state's global phase to its largest-magnitude
    component.
    """
    if a.dims != b.dims:
        raise ShapeMismatchError(f"shapes differ: {a.dims} vs {b.dims}")
    na, nb = norm(a), norm(b)
    if na <= ZERO_NORM_TOL or nb <= ZERO_NORM_TOL:
        raise ZeroVectorError("cannot compare (near-)zero states")
    fidelity = abs(inner(a, b)) ** 2 / (na**2 * nb**2)
    diff = float(np.max(np.abs(_gauge_fixed(a, na) - _gauge_fixed(b, nb))))
    return ComparisonReport(fidelity=float(fidelity), max_component_diff=diff)


def phase_report(state: Ket, reference: Ket) -> dict[tuple[int, ...], float]:
    """Relative phase ``arg(state_k / reference_k)`` per basis label.

    Only labels where both amplitudes exceed :data:`PHASE_AMP_TOL` are
    reported; phases lie in ``(-pi, pi]``.
    """
    if state.dims != reference.dims:
        raise ShapeMismatchError(f"shapes differ: {state.dims} vs {reference.dims}")
    s, r = state.amps, reference.amps
    keep = (np.abs(s) > PHASE_AMP_TOL) & (np.abs(r) > PHASE_AMP_TOL)
    phases = np.angle(s[keep] / r[keep]) + 0.0  # folds -0.0 into +0.0
    phases[phases <= -math.pi] += 2.0 * math.pi
    # labels are streamed, never listed: at 2^20 a list of them would add
    # hundreds of megabytes of tuples next to the dict. The values come from
    # one tolist(), whose floats the dict keeps anyway, instead of a float()
    # call per numpy scalar.
    return dict(zip(itertools.compress(basis_labels(state.dims), keep), phases.tolist()))
