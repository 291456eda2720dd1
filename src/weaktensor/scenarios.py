"""Catalog of named pre/post-selected scenarios with labeled axes.

Axis conventions are fixed here so that every documented tensor is
reproduced verbatim:

* ``cheshire``: axis 0 is the spin (levels ``↑``, ``↓``), axis 1 is the
  position (levels ``L``, ``R``). Grids therefore read rows = spin,
  columns = position.
* ``hardy``: axis 0 is the positron (``L_p``, ``R_p``), axis 1 is the
  electron (``L_e``, ``R_e``). The Hardy states are kept unnormalized;
  weak values are unaffected by rescaling.
* The two weak tensors coincide under the documented relabeling: swap the
  Hardy axes (electron first) and identify ``L_e -> ↑``, ``R_e -> ↓``,
  ``L_p -> L``, ``R_p -> R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidCountError, MissingParamError, UnknownNameError
from .hilbert import (
    MAX_DIMENSION, Ket, _integers, _reals, check_dims, check_labels, freeze, make_ket
)
from .weakvalues import WeakValueTensor, expectation_tensor, selection_overlap, weak_tensor


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named pre/post state pair with per-axis level labels.

    ``post`` is ``None`` for expectation-only scenarios, and
    ``axis_labels=None`` gives digit labels. Construction verifies that the
    labels fit the shape and, when a post state is present, that the
    selection is not orthogonal.
    """

    name: str
    pre: Ket
    post: Ket | None
    axis_labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "axis_labels", check_labels(self.axis_labels, self.pre.dims))
        self.overlap()  # refuses an orthogonal selection and a post shape other than pre's

    @property
    def dims(self) -> tuple[int, ...]:
        return self.pre.dims

    def tensor(self) -> WeakValueTensor:
        """Weak tensor when post-selected, expectation tensor otherwise."""
        if self.post is None:
            return expectation_tensor(self.pre)
        return weak_tensor(self.pre, self.post)

    def overlap(self) -> complex | None:
        return None if self.post is None else selection_overlap(self.pre, self.post)


#: Bell kind -> (scenario name, unnormalized amplitudes).
_BELL = {
    "psi+": ("bell-psi-plus", (0.0, 1.0, 1.0, 0.0)),
    "psi-": ("bell-psi-minus", (0.0, 1.0, -1.0, 0.0)),
    "phi+": ("bell-phi-plus", (1.0, 0.0, 0.0, 1.0)),
    "phi-": ("bell-phi-minus", (1.0, 0.0, 0.0, -1.0)),
}


def bell(kind: str) -> Scenario:
    """Two-qubit Bell state scenario; kind is one of psi+, psi-, phi+, phi-."""
    if kind not in _BELL:
        raise UnknownNameError(f"unknown Bell kind {kind!r}; expected one of {sorted(_BELL)}")
    name, amps = _BELL[kind]
    state = make_ket((2, 2), np.array(amps) / math.sqrt(2.0))
    return Scenario(name, state, None, None)


def ghz_ket(parties: int, levels: int, all_diagonal: bool = False) -> Ket:
    """Diagonal superposition state.

    Two-term form ``(|0...0> + |(levels-1)...(levels-1)>) / sqrt(2)`` by
    default; ``all_diagonal`` yields the uniform sum over every ``|j...j>``.
    """
    parties, levels = _integers((parties, levels), InvalidCountError, "parties and levels")
    if parties < 2 or levels < 2:
        raise InvalidCountError(f"need parties >= 2 and levels >= 2, got ({parties}, {levels})")
    # levels >= 2, so bit_length + 1 axes already exceed the ceiling: a longer shape is never built
    dims = check_dims((levels,) * min(parties, MAX_DIMENSION.bit_length() + 1))
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    stride = (levels**parties - 1) // (levels - 1)  # flat step between |j...j> and |j+1...j+1>
    diagonal = range(levels) if all_diagonal else (0, levels - 1)
    amps[[j * stride for j in diagonal]] = 1.0 / math.sqrt(len(diagonal))
    return Ket(dims, amps)


def ghz(parties: int, levels: int) -> Scenario:
    """GHZ scenario (expectation-only) of the two-term :func:`ghz_ket`."""
    return Scenario("ghz", ghz_ket(parties, levels), None, None)


def cheshire() -> Scenario:
    """Separated spin/position scenario on shape (2, 2).

    Pre state ``(|↑L> + |↑R> + |↓R>) / sqrt(3)`` and post state
    ``(|↑L> - |↑R> + |↓R>) / sqrt(3)``; the weak tensor is
    ``((1, -1), (0, 1))`` in (spin, position) order.
    """
    s = 1.0 / math.sqrt(3.0)
    pre = make_ket((2, 2), [s, s, 0.0, s])
    post = make_ket((2, 2), [s, -s, 0.0, s])
    return Scenario("cheshire", pre, post, (("↑", "↓"), ("L", "R")))


def hardy() -> Scenario:
    """Interferometer pair scenario on shape (2, 2), states unnormalized.

    Pre state ``|L_p L_e> + |R_p L_e> + |R_p R_e>`` (the annihilated
    ``|L_p R_e>`` component removed) and post state
    ``(|L_p> - |R_p>)(|L_e> - |R_e>)``.
    """
    pre = make_ket((2, 2), [1.0, 0.0, 1.0, 1.0])
    post = make_ket((2, 2), [1.0, -1.0, -1.0, 1.0])
    return Scenario("hardy", pre, post, (("L_p", "R_p"), ("L_e", "R_e")))


#: Overlap-based relabeling of the hardy axes: the positron's left arm and
#: the electron's right arm are the overlapping ("O") ones.
_HARDY_OVERLAP_LABELS = (("O", "NO"), ("NO", "O"))


def hardy_overlap_labels(s: Scenario) -> Scenario:
    """Relabel the hardy axes by arm overlap (O / NO).

    Positron: ``L_p -> O``, ``R_p -> NO``; electron: ``R_e -> O``,
    ``L_e -> NO``. Labels are metadata: the tensor components are unchanged,
    and the transformation is idempotent.
    """
    if s.name not in ("hardy", "hardy-overlap"):
        raise UnknownNameError(f"expected the hardy scenario, got {s.name!r}")
    return Scenario("hardy-overlap", s.pre, s.post, _HARDY_OVERLAP_LABELS)


def hardy_gamma(gamma: float) -> Scenario:
    """Phase-coupled deformation of the hardy scenario.

    Instead of removing the overlap component ``|L_p R_e>``, the interaction
    leaves it with a relative phase: pre state ``|L_p L_e> +
    e^{i*gamma}|L_p R_e> + |R_p L_e> + |R_p R_e>``, post state as in
    :func:`hardy`. It is the unit circle of the family with any ``alpha`` in
    place of ``e^{i*gamma}``: weak tensor ``(1, -alpha, -1, 1) / (1 - alpha)``,
    :func:`hardy` at ``alpha = 0``. The components diverge as gamma nears 0,
    the family's singular point ``alpha = 1``, and gamma = 0 is rejected as an
    orthogonal selection. A ``None`` gamma is a missing one.
    """
    if gamma is None:
        raise MissingParamError("hardy-gamma requires a gamma value")
    phase = np.exp(1j * _reals(gamma, "gamma", one=True))
    pre = make_ket((2, 2), [1.0, phase, 1.0, 1.0])
    post = make_ket((2, 2), [1.0, -1.0, -1.0, 1.0])
    return Scenario("hardy-gamma", pre, post, (("L_p", "R_p"), ("L_e", "R_e")))


def ghz3_selected() -> Scenario:
    """Three-qutrit diagonal selection on shape (3, 3, 3).

    Pre state ``(|000> + |111> + |222>) / sqrt(3)`` and post state
    ``(|000> + |111> - |222>) / sqrt(3)``; the weak tensor has diagonal
    ``(1, 1, -1)`` and zeros elsewhere.
    """
    pre = ghz_ket(3, 3, all_diagonal=True)
    post = pre.amps.copy()
    post[-1] = -post[-1].real  # a real negation keeps the +0.0 imaginary part
    return Scenario("ghz3-selected", pre, Ket(pre.dims, freeze(post)), None)


def custom(
    pre: Ket,
    post: Ket | None = None,
    labels: Sequence[Sequence[str]] | None = None,
    name: str = "custom",
) -> Scenario:
    """Wrap user-supplied states as a scenario (e.g. for the CLI pipeline)."""
    return Scenario(name, pre, post, labels)


#: Built-in scenarios by CLI name, in listing order. Each builder takes
#: ``(gamma, parties, levels)``: ``hardy-gamma`` requires a gamma value and
#: ``ghz`` uses the party/level counts.
_NAMED = {
    **{name: (lambda *_, kind=kind: bell(kind)) for kind, (name, _amps) in _BELL.items()},
    "ghz": lambda _gamma, parties, levels: ghz(parties, levels),
    "cheshire": lambda *_: cheshire(),
    "hardy": lambda *_: hardy(),
    "hardy-overlap": lambda *_: hardy_overlap_labels(hardy()),
    "hardy-gamma": lambda gamma, *_: hardy_gamma(gamma),
    "ghz3-selected": lambda *_: ghz3_selected(),
}

#: Scenario names exposed to the CLI.
SCENARIO_NAMES = tuple(_NAMED)


def build_named(
    name: str,
    gamma: float | None = None,
    parties: int = 3,
    levels: int = 2,
) -> Scenario:
    """Build a scenario from its CLI name."""
    if name not in _NAMED:
        raise UnknownNameError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    return _NAMED[name](gamma, parties, levels)
