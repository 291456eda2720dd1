"""Diagonal projector Hamiltonians, exact phase evolution, and the named
product-form evolutions.

Every Hamiltonian here is diagonal in the computational basis (a sum of
coupling-weighted projector products), so time evolution is exact: amplitude
``k`` picks up the phase ``exp(-i * E_k * t)`` with hbar = 1.

The named families (``psit1``, ``E111``, ``Hamm2``, ``GHZ2``, ``PsiGHZ11``)
are copies of an EPR pair or a GHZ cube. Their product form evolves each copy
under its own coupling on that factor; the exact counterpart evolves the
product under joint couplings on products of the same factor projectors.
Both run :func:`evolve`, but they do NOT generally agree (a joint projector
phases one joint amplitude, a local one a component of every factor);
:func:`compare_states` quantifies the gap instead of deciding between them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    MissingParamError,
    ShapeMismatchError,
    UnknownNameError,
    WeakTensorError,
    ZeroVectorError,
)
from .hilbert import (
    _BLOCK,
    ZERO_NORM_TOL,
    Ket,
    ProjectorProduct,
    _blocks,
    _reals,
    _scaled,
    basis_label,
    basis_labels,
    check_dims,
    flat_index,
    freeze,
    inner,
    norm,
    tensor_product,
)
from .scenarios import ghz_ket

#: An amplitude at or below this leaves its label out of a phase report and of
#: ``evolve``'s listing.
PHASE_AMP_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianTerm:
    """A coupling energy attached to a projector product (hbar = 1)."""

    coupling: float
    selector: ProjectorProduct

    def __post_init__(self):
        object.__setattr__(self, "coupling", _reals(self.coupling, "coupling", one=True))


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Real energy per basis index, stored flat in big-endian order."""

    dims: tuple[int, ...]
    energies: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        energies = freeze(_reals(self.energies, "energies").reshape(-1))
        if energies.size != math.prod(dims):
            raise ShapeMismatchError(
                f"expected {math.prod(dims)} energies for shape {dims}, got {energies.size}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "energies", energies)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``(levels, index)``, read-only and computed once: the distinct
        energies, told apart by their bits (so ``-0.0`` is its own level), and
        each basis state's position in ``levels``, so that
        ``levels[index]`` is ``energies`` bit for bit."""
        bits = self.energies.view(np.int64)
        levels = np.unique(bits)
        return freeze(levels.view(np.float64)), freeze(levels.searchsorted(bits))


def build_hamiltonian(dims: Sequence[int], terms: Iterable[HamiltonianTerm]) -> DiagonalHamiltonian:
    """Sum coupling-weighted projector products into a diagonal Hamiltonian.

    The energy at a basis label is the sum of the couplings of every term
    whose selector matches the label; overlapping terms add.
    """
    dims = check_dims(dims)
    energies = np.zeros(math.prod(dims), dtype=np.float64)
    shaped = energies.reshape(dims)
    for term in terms:
        shaped[term.selector.index(dims)] += term.coupling
    return DiagonalHamiltonian(dims, energies)


def evolve(state: Ket, h: DiagonalHamiltonian, t: float) -> Ket:
    """Exact evolution: amplitude k is multiplied by exp(-i * E_k * t). The
    time is one real number, by the rule couplings and energies follow.

    The exponential is taken once per distinct energy of ``h.spectrum``
    (computed on the first call with ``h``, then kept) and gathered per
    basis state; the amplitudes are those of
    ``state.amps * np.exp(-1j * h.energies * t)`` bit for bit."""
    if state.dims != h.dims:
        raise ShapeMismatchError(f"state shape {state.dims} differs from {h.dims}")
    t = _reals(t, "time", one=True)
    levels, index = h.spectrum
    # a finite E_k * t that overflows makes a NaN amplitude, which Ket refuses
    with np.errstate(over="ignore", invalid="ignore"):
        amps = state.amps * np.exp(-1j * levels * t)[index]
    return Ket(state.dims, freeze(amps))


def epr_pair() -> Ket:
    """Normalized two-qubit state ``(|10> - |01>) / sqrt(2)``."""
    s = 1.0 / math.sqrt(2.0)
    return Ket((2, 2), np.array([0.0, -s, s, 0.0], dtype=np.complex128))


def _on_copies(projector: ProjectorProduct, copies: Iterable[int]) -> ProjectorProduct:
    """``projector``, which sets every qubit of one factor, moved onto each
    listed copy of that factor, the copies' projectors multiplied."""
    n = len(projector.factors)
    return ProjectorProduct(tuple((n * j + q, v) for j in copies for q, v in projector.factors))


#: Factor projectors: EPR ``|10>`` and ``|01>``, GHZ ``|000>`` and ``|111>``.
_EPR_10, _EPR_01 = ProjectorProduct(((0, 1), (1, 0))), ProjectorProduct(((0, 0), (1, 1)))
_GHZ_000, _GHZ_111 = (ProjectorProduct(((0, v), (1, v), (2, v))) for v in (0, 1))


@dataclass(frozen=True)
class Family:
    """One multiwise family, stated once for both evolution routes.

    The system is ``len(local)`` copies of ``factor`` (an EPR pair or a GHZ
    cube). A coupling is a ``(rate, projector)`` pair, the rate a function
    of the mapping from parameter name to value. The product form evolves
    copy ``j`` alone under ``local[j]``, whose projector lies on the factor
    itself; the exact counterpart evolves the product state under every
    ``joint`` coupling, whose projector is the product of the same factor
    projectors on two or more copies.
    """

    params: tuple[str, ...]
    factor: Ket
    local: tuple[tuple[Callable[[dict], float], ProjectorProduct], ...]
    joint: tuple[tuple[Callable[[dict], float], ProjectorProduct], ...]


_eps, _eps2, _phi = itemgetter("eps"), itemgetter("eps2"), itemgetter("phi")


def _phi_plus_eps(p: dict) -> float:
    return p["phi"] + p["eps"]


#: The named families; see :func:`product_form` and :func:`exact_counterpart`.
FAMILIES = {
    "psit1": Family(
        ("eps",), epr_pair(), ((_eps, _EPR_10),) * 2, ((_eps, _on_copies(_EPR_10, range(2))),)
    ),
    "E111": Family(
        ("eps",), epr_pair(), ((_eps, _EPR_10),) * 3, ((_eps, _on_copies(_EPR_10, range(3))),)
    ),
    "Hamm2": Family(
        ("eps", "eps2"),
        epr_pair(),
        ((_eps, _EPR_10), (lambda p: p["eps"] - p["eps2"], _EPR_10), (_eps2, _EPR_01)),
        ((_eps, _on_copies(_EPR_10, (0, 1))), (_eps2, _on_copies(_EPR_01, (0, 1)))),
    ),
    "GHZ2": Family(
        ("phi",), ghz_ket(3, 2), ((_phi, _GHZ_000),) * 2, ((_phi, _on_copies(_GHZ_000, (0, 1))),)
    ),
    "PsiGHZ11": Family(
        ("phi", "eps"),
        ghz_ket(3, 2),
        ((_phi, _GHZ_000), (lambda p: -p["eps"], _GHZ_000), (_phi_plus_eps, _GHZ_111)),
        ((_phi, _on_copies(_GHZ_000, (0, 1))), (_phi_plus_eps, _on_copies(_GHZ_111, (1, 2)))),
    ),
}


def _hamiltonian(dims: Sequence[int], terms: Iterable[tuple[float, ProjectorProduct]]):
    return build_hamiltonian(dims, [HamiltonianTerm(energy, p) for energy, p in terms])


def _family(name: str, params: dict) -> tuple[Family, dict]:
    if name not in FAMILIES:
        raise UnknownNameError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    family = FAMILIES[name]
    for param in family.params:
        if params.get(param) is None:
            raise MissingParamError(f"family {name!r} requires parameter {param!r}")
    for param in sorted(set(params) - set(family.params)):  # the first unknown name
        raise UnknownNameError(f"family {name!r} takes no parameter {param!r}")
    return family, {param: _reals(params[param], param, one=True) for param in family.params}


def product_form(family: str, t: float, **params: float) -> Ket:
    """State of the named product-form evolution at time ``t``: the tensor
    product of the factor's copies, each evolved by :func:`evolve` under its
    own coupling. Families and their keyword parameters (each factor normalized):

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
    fam, values = _family(family, params)
    hs = (_hamiltonian(fam.factor.dims, [(rate(values), p)]) for rate, p in fam.local)
    return reduce(tensor_product, [evolve(fam.factor, h, t) for h in hs])


def joint_hamiltonian(family: str, **params: float) -> DiagonalHamiltonian:
    """Diagonal Hamiltonian of the named family's joint couplings (listed at
    :func:`exact_counterpart`) on all its copies of the factor. Families and
    parameters are checked as by :func:`product_form`."""
    fam, values = _family(family, params)
    dims = fam.factor.dims * len(fam.local)
    return _hamiltonian(dims, [(rate(values), p) for rate, p in fam.joint])


def exact_counterpart(family: str, t: float, **params: float) -> Ket:
    """Exact diagonal evolution of the system behind a product-form family.

    The initial state is the product of EPR pairs or GHZ cubes and the
    Hamiltonian is :func:`joint_hamiltonian`, the family's joint couplings:

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
    h, fam = joint_hamiltonian(family, **params), FAMILIES[family]
    return evolve(reduce(tensor_product, [fam.factor] * len(fam.local)), h, t)


@dataclass(frozen=True)
class ComparisonReport:
    """Fidelity and gauge-fixed max amplitude difference of two states."""

    fidelity: float
    max_component_diff: float


def _gauge(k: Ket, n: float, buf: np.ndarray, mags: np.ndarray) -> complex:
    # the phase making k.amps / n's first largest entry real and positive (blocks in buf)
    best, w = -1.0, 0
    for s in _blocks(k.amps.size):
        j = int(np.abs(_scaled(k.amps[s], n, buf), out=mags[: k.amps[s].size]).argmax())
        if mags[j] > best:  # strict, so the first of equal maxima wins, as with np.argmax
            best, w = mags[j], s.start + j
    anchor = (k.amps[w : w + 1] / n)[0]
    return np.conj(anchor) / abs(anchor)


def compare_states(a: Ket, b: Ket) -> ComparisonReport:
    """Report how far two states are from equal up to norm and global phase.

    ``fidelity`` is ``|<a|b>|^2 / (<a|a><b|b>)``; ``max_component_diff`` is
    the largest amplitude difference between the normalized representatives
    after aligning each state's global phase to its largest-magnitude
    component.
    """
    overlap = inner(a, b)  # raises ShapeMismatchError for different shapes
    na, nb = norm(a), norm(b)
    if na <= ZERO_NORM_TOL or nb <= ZERO_NORM_TOL:
        raise ZeroVectorError("cannot compare (near-)zero states")
    fidelity = abs(overlap) ** 2 / (na**2 * nb**2)
    ua, ub = np.empty((2, min(a.amps.size, _BLOCK)), np.complex128)
    pa, pb = _gauge(a, na, ua, ub.view(np.float64)), _gauge(b, nb, ub, ua.view(np.float64))
    diff = 0.0
    for s in _blocks(a.amps.size):
        x, y = _scaled(a.amps[s], na, ua), _scaled(b.amps[s], nb, ub)
        np.subtract(np.multiply(x, pa, out=x), np.multiply(y, pb, out=y), out=x)
        diff = max(diff, np.abs(x, out=ub.view(np.float64)[: x.size]).max())
    return ComparisonReport(fidelity=float(fidelity), max_component_diff=float(diff))


class PhaseReport(Mapping):
    """The read-only mapping :func:`phase_report` returns, from basis label to
    phase over the ``keep`` mask, its kept flat ``indices`` and its ``phases``."""

    def __init__(self, dims: tuple[int, ...], keep: np.ndarray, phases: np.ndarray):
        self.dims, self.keep, self.phases = dims, freeze(keep), freeze(phases)
        self.indices = freeze(np.flatnonzero(keep))

    def __getitem__(self, label) -> float:
        try:  # a tuple of integer levels within dims, the keys a dict would hold
            k = flat_index(label, self.dims)
            if isinstance(label, tuple) and self.keep[k]:
                return self.phases.item(self.indices.searchsorted(k))
        except WeakTensorError:
            pass
        raise KeyError(label)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.compress(basis_labels(self.dims), self.keep)

    def __len__(self) -> int:
        return self.phases.size

    def __repr__(self) -> str:  # the first four items only: a 2^20 report prints at once
        pairs = zip(self.indices[:4].tolist(), self.phases[:4].tolist())
        shown = [f"{basis_label(k, self.dims)}: {p}" for k, p in pairs] + ["..."] * (len(self) > 4)
        return f"PhaseReport(dims={self.dims}, {len(self)} phases, {{{', '.join(shown)}}})"

    def values(self) -> list[float]:  # one tolist(), not a lookup per label
        return self.phases.tolist()

    def items(self) -> Iterator[tuple[tuple[int, ...], float]]:
        return zip(self, self.values())


def phase_report(state: Ket, reference: Ket) -> PhaseReport:
    """Relative phase ``arg(state_k / reference_k)``, in ``(-pi, pi]``, per basis
    label where both amplitudes exceed :data:`PHASE_AMP_TOL`."""
    if state.dims != reference.dims:
        raise ShapeMismatchError(f"shapes differ: {state.dims} vs {reference.dims}")
    s, r = state.amps, reference.amps
    keep = (np.abs(s) > PHASE_AMP_TOL) & (np.abs(r) > PHASE_AMP_TOL)
    phases = np.angle(s[keep] / r[keep]) + 0.0  # folds -0.0 into +0.0
    phases[phases <= -math.pi] += 2.0 * math.pi
    return PhaseReport(state.dims, keep, phases)
