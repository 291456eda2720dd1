"""Output checks against oracles the benchmark computes from its own arrays.

Every check takes the bytes a child wrote and returns ``None`` when they are
correct, else a one-line reason. Numbers are compared by tolerance, never by
bit-equality with the library's formula, so an equivalent reformulation is
not a failure (the bit-exact JSON round trip belongs to the test suite).
Goldens are the exception: SVG must match ``tests/golden/*.svg`` byte for
byte, and text must contain the ``tests/golden/*.txt`` grid verbatim.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass

import numpy as np

#: Relative tolerance for full-precision numbers (JSON output, dynamics).
RTOL = 1e-9

#: Text cells have 4 decimals: half a unit in the last place plus slack.
TEXT_TOL = 0.5e-4 + 1e-9

#: Oracle |imag| above this requires the text warning line, below
#: ``WARN_ABSENT`` forbids it (the renderer's own threshold lies between).
WARN_PRESENT, WARN_ABSENT = 1e-6, 1e-12

_WARNING_PREFIX = "warning: imaginary parts above"


@dataclass(frozen=True)
class WeakOracle:
    """Weak-value tensor ``conj(post) * pre / <post|pre>`` and its sums."""

    dims: tuple[int, ...]
    components: np.ndarray  # shaped
    overlap: complex
    marginals: tuple[np.ndarray, ...]
    total: complex


def weak_oracle(dims, pre: np.ndarray, post: np.ndarray) -> WeakOracle:
    overlap = complex(np.sum(np.conj(post) * pre))
    components = (np.conj(post) * pre / overlap).reshape(dims)
    return WeakOracle(tuple(dims), components, overlap, _marginals(components), complex(components.sum()))


def _marginals(components: np.ndarray) -> tuple[np.ndarray, ...]:
    rank = components.ndim
    return tuple(
        components.sum(axis=tuple(a for a in range(rank) if a != keep)) for keep in range(rank)
    )


def close(got, want, rtol: float = RTOL) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return bool(np.allclose(got, want, rtol=rtol, atol=rtol * 1e-3 * scale))


def _pairs(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _decode(out: bytes) -> str | None:
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError:
        return None


# ------------------------------------------------------------------ tensor JSON


def check_tensor_json(out: bytes, oracle: WeakOracle) -> str | None:
    try:
        doc = json.loads(out)
        comps = _pairs(doc["components"])
        margs = [_pairs(axis) for axis in doc["marginals"]]
        total = _pairs([doc["total"]])[0]
        overlap = _pairs([doc["overlap"]])[0]
        shape, kind = doc["shape"], doc["kind"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed JSON document: {exc}"
    if shape != list(oracle.dims) or kind != "weak":
        return f"shape/kind {shape}/{kind} differ from {list(oracle.dims)}/weak"
    if not close(comps, oracle.components.reshape(-1)):
        return "components differ from the oracle"
    if len(margs) != len(oracle.dims) or not all(
        close(m, want) for m, want in zip(margs, oracle.marginals)
    ):
        return "marginals differ from the oracle"
    if not close(total, oracle.total) or not close(overlap, oracle.overlap):
        return "total or overlap differs from the oracle"
    return None


def check_completeness_json(out: bytes, dims) -> str | None:
    """Oracle-free check for built-in scenarios: shape, completeness (the
    components sum to 1) and marginals equal to the axis sums."""
    try:
        doc = json.loads(out)
        comps = _pairs(doc["components"]).reshape(dims)
        margs = [_pairs(axis) for axis in doc["marginals"]]
        total = _pairs([doc["total"]])[0]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed JSON document: {exc}"
    scale = max(1.0, float(np.max(np.abs(comps))))
    if abs(total - 1) > 1e-9 * scale or abs(comps.sum() - 1) > 1e-9 * scale:
        return f"components do not sum to 1 (total {total})"
    if len(margs) != len(dims) or not all(
        np.allclose(m, want, rtol=0, atol=1e-9 * scale) for m, want in zip(margs, _marginals(comps))
    ):
        return "marginals are not the axis sums"
    return None


# ------------------------------------------------------------------ tensor text


def _near(text: str, want: complex, scale: float = 0.0) -> bool:
    return abs(float(text) - want.real) <= TEXT_TOL + RTOL * scale


def _label(flat: int, dims) -> str:
    digits = np.unravel_index(flat, dims)
    joiner = "" if all(d <= 10 for d in dims) else ","
    return "|" + joiner.join(str(int(d)) for d in digits) + ">"


def check_tensor_text(out: bytes, oracle: WeakOracle, probe: tuple[int, ...] = ()) -> str | None:
    """Parse the CLI's text output and compare every printed number with the
    oracle at its 4-decimal precision. ``probe`` lists flat indices whose
    labels a rank-4+ listing must print exactly (first and last are always
    probed). The imaginary-part warning is checked for presence only."""
    text = _decode(out)
    if text is None:
        return "output is not UTF-8"
    try:
        return _check_text(text.split("\n"), oracle, probe)
    except (ValueError, IndexError) as exc:
        return f"unparseable text output: {exc}"


def _check_text(lines: list[str], oracle: WeakOracle, probe) -> str | None:
    rank = len(oracle.dims)
    if lines[-1] != "" or len(lines) < 5 + rank:
        return "truncated text output"
    lines.pop()
    if lines[:2] != ["scenario: custom", "kind: weak"]:
        return "unexpected text header"
    match = re.fullmatch(r"overlap: ([+-]\d+\.\d+)([+-]\d+\.\d+)i", lines[2])
    size = abs(oracle.overlap)
    if match is None or not (
        _near(match[1], oracle.overlap, size) and _near(match[2], oracle.overlap.imag, size)
    ):
        return "overlap line differs from the oracle"
    tail = lines[-1 - rank:]
    if not tail[-1].startswith("total: ") or not _near(tail[-1][7:], oracle.total):
        return "total line differs from the oracle"
    for axis, line in enumerate(tail[:-1]):
        head = f"axis {axis} marginals: "
        if not line.startswith(head):
            return f"missing marginals line for axis {axis}"
        values = [item.rpartition("=")[2] for item in line[len(head):].split("  ")]
        if len(values) != oracle.dims[axis] or not all(
            _near(v, w) for v, w in zip(values, oracle.marginals[axis])
        ):
            return f"axis {axis} marginals differ from the oracle"
    body = lines[3:-1 - rank]
    if rank == 2:
        return _check_grid(body, oracle)
    if rank >= 4:
        return _check_listing(body, oracle, probe)
    return "rank-3 text is checked against goldens only"


def _cells_near(texts, want) -> bool:
    got = np.array([float(s) for s in texts])
    return got.shape == want.shape and bool(np.all(np.abs(got - want.real) <= TEXT_TOL))


def _check_warning(present: bool, oracle: WeakOracle) -> str | None:
    worst = float(np.max(np.abs(oracle.components.imag)))
    if present and worst < WARN_ABSENT:
        return "imaginary-part warning on a real tensor"
    if not present and worst > WARN_PRESENT:
        return "imaginary-part warning missing"
    return None


def _check_grid(body: list[str], oracle: WeakOracle) -> str | None:
    rows, cols = oracle.dims
    warned = bool(body) and body[-1].startswith(_WARNING_PREFIX)
    grid = body[:-1] if warned else body
    if len(grid) != rows + 3 or set(grid[rows + 1]) != {"-"}:
        return "grid has the wrong number of lines"
    cells, row_sums = [], []
    for line in grid[1:rows + 1]:
        left, _, right = line.rpartition(" | ")
        cells.extend(left.split()[1:])
        row_sums.append(right)
    left, _, total = grid[-1].rpartition(" | ")
    col_sums = left.split()
    if col_sums[:1] != ["sum"]:
        return "grid sum row missing"
    if not _cells_near(cells, oracle.components.reshape(-1)):
        return "grid cells differ from the oracle"
    if not (_cells_near(row_sums, oracle.marginals[0]) and _cells_near(col_sums[1:], oracle.marginals[1])):
        return "grid sums differ from the oracle"
    if not _near(total, oracle.total):
        return "grid total differs from the oracle"
    return _check_warning(warned, oracle)


def _check_listing(body: list[str], oracle: WeakOracle, probe) -> str | None:
    flat = oracle.components.reshape(-1)
    if len(body) != flat.size:
        return f"listing has {len(body)} lines for {flat.size} components"
    split = [line.rsplit("  ", 1) for line in body]
    if not _cells_near([value for _, value in split], flat):
        return "listed components differ from the oracle"
    for index in {0, flat.size - 1, *probe}:
        if split[index][0] != "  " + _label(index, oracle.dims):
            return f"label of component {index} is wrong"
    return None


# ------------------------------------------------------------------ catalog


def check_contains(out: bytes, golden: bytes) -> str | None:
    return None if golden in out else "golden grid not found in the output"


def check_equal(out: bytes, golden: bytes) -> str | None:
    return None if out == golden else "output differs from the golden file"


def check_svg(out: bytes, cells: int) -> str | None:
    """Well-formed SVG with one background rect and one rect per cell."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(out)
    except ET.ParseError as exc:
        return f"malformed SVG: {exc}"
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    return None if len(rects) == cells + 1 else f"SVG has {len(rects)} rects for {cells} cells"


def check_scenario_text(out: bytes, name: str) -> str | None:
    text = _decode(out) or ""
    if not text.startswith(f"scenario: {name}\n") or not text.endswith("\ntotal: +1.0000\n"):
        return "scenario text header or total line is wrong"
    return None


def check_lines_include(out: bytes, names) -> str | None:
    missing = set(names) - set((_decode(out) or "").split("\n"))
    return f"missing lines {sorted(missing)}" if missing else None


def check_realize(out: bytes, levels: int, axes: int) -> str | None:
    """Cell table with big-endian base-``levels`` digits, then the diagonal."""
    expected = ["cell  basis"]
    for cell in range(levels**axes):
        digits = [(cell // levels**k) % levels for k in reversed(range(axes))]
        expected.append(f"{cell:>4}  ({','.join(map(str, digits))})")
    diag = "  ".join("(" + ",".join([str(j)] * axes) + ")" for j in range(levels))
    expected.append(f"diagonal cells: {diag}")
    return None if out == ("\n".join(expected) + "\n").encode() else "realize table is wrong"


# ------------------------------------------------------------------ evolve


def _epr(phase_10=1.0, phase_01=1.0) -> np.ndarray:
    s = 1 / math.sqrt(2)
    return np.array([0, -phase_01 * s, phase_10 * s, 0], dtype=complex)


def _ghz(phase_000=1.0, phase_111=1.0) -> np.ndarray:
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = phase_000 / math.sqrt(2), phase_111 / math.sqrt(2)
    return amps


def _kron(*factors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def evolve_oracle(family: str, t: float, eps=None, eps2=None, phi=None) -> np.ndarray:
    """Amplitudes of the documented product forms (and of ``exact``: EPR x EPR
    with the joint ``|1010>`` amplitude phased by ``eps``)."""
    ph = lambda e: cmath.exp(-1j * e * t)  # noqa: E731
    if family == "psit1":
        return _kron(_epr(ph(eps)), _epr(ph(eps)))
    if family == "E111":
        return _kron(*[_epr(ph(eps))] * 3)
    if family == "Hamm2":
        return _kron(_epr(ph(eps)), _epr(ph(eps - eps2)), _epr(phase_01=ph(eps2)))
    if family == "GHZ2":
        return _kron(_ghz(ph(phi)), _ghz(ph(phi)))
    if family == "PsiGHZ11":
        return _kron(_ghz(ph(phi)), _ghz(ph(-eps)), _ghz(phase_111=ph(phi + eps)))
    if family == "exact":
        amps = _kron(_epr(), _epr())
        amps[0b1010] *= ph(eps)
        return amps
    raise ValueError(f"no oracle for family {family!r}")


_AMP_LINE = re.compile(r"  (\|\d+>)  ([+-]\d+\.\d+)([+-]\d+\.\d+)i")
_PHASE_LINE = re.compile(r"  (\|\d+>)  ([+-]\d+\.\d+)")


def check_evolve(out: bytes, family: str, t: float, **params) -> str | None:
    """Amplitudes and relative phases at 6 decimals against the oracle, and a
    fidelity in [0, 1] for the ``--compare`` section."""
    tol = 0.5e-6 + 1e-9
    amps, amps0 = evolve_oracle(family, t, **params), evolve_oracle(family, 0.0, **params)
    dims = (2,) * int(math.log2(amps.size))
    lines = (_decode(out) or "").split("\n")
    try:
        a_at, p_at, c_at = (
            lines.index("amplitudes:"),
            lines.index("relative phases vs t=0:"),
            lines.index("exact vs product form:"),
        )
        amp_lines = [_AMP_LINE.fullmatch(line) for line in lines[a_at + 1:p_at]]
        phase_lines = [_PHASE_LINE.fullmatch(line) for line in lines[p_at + 1:c_at]]
        fidelity = float(lines[c_at + 1].removeprefix("  fidelity: "))
    except (ValueError, IndexError):
        return "evolve output sections missing"
    if lines[0] != f"family: {family}" or None in amp_lines or None in phase_lines:
        return "evolve output lines malformed"
    nonzero = [k for k in range(amps.size) if abs(amps[k]) > 1e-12]
    if [m[1] for m in amp_lines] != [_label(k, dims) for k in nonzero]:
        return "evolve amplitude labels differ from the oracle"
    if any(
        abs(float(m[2]) - amps[k].real) > tol or abs(float(m[3]) - amps[k].imag) > tol
        for m, k in zip(amp_lines, nonzero)
    ):
        return "evolve amplitudes differ from the oracle"
    both = [k for k in nonzero if abs(amps0[k]) > 1e-12]
    if [m[1] for m in phase_lines] != [_label(k, dims) for k in both]:
        return "evolve phase labels differ from the oracle"
    for m, k in zip(phase_lines, both):
        delta = float(m[2]) - cmath.phase(amps[k] / amps0[k])
        if abs(math.remainder(delta, 2 * math.pi)) > tol:
            return "evolve phases differ from the oracle"
    if not 0.0 <= fidelity <= 1.0 + 1e-6:
        return f"fidelity {fidelity} outside [0, 1]"
    return None


# ------------------------------------------------------------------ dynamics


@dataclass(frozen=True)
class DynamicsOracle:
    steps: list
    phases: np.ndarray
    dims: tuple[int, ...]


def dynamics_oracle(dims, pre, post, terms, times) -> DynamicsOracle:
    """Energies from bit arithmetic on flat indices; evolution, weak tensor,
    fidelity and gauge-fixed difference from their definitions."""
    n = len(dims)
    index = np.arange(pre.size)
    energies = np.zeros(pre.size)
    for coupling, factors in terms:
        mask = np.ones(pre.size, dtype=bool)
        for qubit, level in factors:
            mask &= ((index >> (n - 1 - qubit)) & 1) == level
        energies[mask] += coupling
    steps = []
    for t in times:
        state = pre * np.exp(-1j * energies * t)
        fidelity = abs(np.vdot(state, pre)) ** 2 / (np.vdot(state, state).real * np.vdot(pre, pre).real)
        weak = weak_oracle(dims, state, post)
        steps.append(
            {
                "fidelity": fidelity,
                "max_component_diff": float(np.max(np.abs(_gauge(state) - _gauge(pre)))),
                "marginals": weak.marginals,
                "weak_total": weak.total,
            }
        )
    phases = np.angle(np.exp(-1j * energies * times[-1]))
    return DynamicsOracle(steps, phases, tuple(dims))


def _gauge(amps: np.ndarray) -> np.ndarray:
    unit = amps / np.linalg.norm(amps)
    anchor = unit[int(np.argmax(np.abs(unit)))]
    return unit * (np.conj(anchor) / abs(anchor))


def check_dynamics(summary: bytes, phases: np.ndarray, oracle: DynamicsOracle) -> str | None:
    try:
        doc = json.loads(summary)
        steps = doc["steps"]
        got = [
            (s["fidelity"], s["max_component_diff"], [_pairs(m) for m in s["marginals"]],
             _pairs([s["weak_total"]])[0], _pairs([s["expectation_total"]])[0])
            for s in steps
        ]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed dynamics summary: {exc}"
    if len(got) != len(oracle.steps):
        return f"{len(got)} steps for {len(oracle.steps)} times"
    for (fid, diff, margs, weak_total, exp_total), want in zip(got, oracle.steps):
        if not (close(fid, want["fidelity"]) and abs(diff - want["max_component_diff"]) <= 1e-9):
            return "fidelity or gauge-fixed difference differs from the oracle"
        if len(margs) != len(want["marginals"]) or not all(
            close(m, w) for m, w in zip(margs, want["marginals"])
        ):
            return "dynamics marginals differ from the oracle"
        if not close(weak_total, want["weak_total"]) or abs(exp_total - 1) > 1e-9:
            return "dynamics totals differ from the oracle"
    last = [list(np.unravel_index(k, oracle.dims)) for k in (0, oracle.phases.size - 1)]
    if doc.get("phase_count") != oracle.phases.size or doc.get("phase_first_last") != [
        [int(d) for d in label] for label in last
    ]:
        return "phase report labels differ from the oracle"
    if phases.shape != oracle.phases.shape or np.max(
        np.abs(np.remainder(phases - oracle.phases + math.pi, 2 * math.pi) - math.pi)
    ) > 1e-9:
        return "phase report differs from the oracle"
    return None
