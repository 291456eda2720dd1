"""Scenario file I/O and scheme-document serialization.

Scenario files are JSON objects with the schema::

    {
      "shape":  [2, 2],
      "pre":    {"amps": [[re, im], ...]},      # flat, big-endian order
      "post":   {"amps": [[re, im], ...]},      # optional
      "labels": [["up", "down"], ["L", "R"]]    # optional, one list per axis
    }

A scheme document is the computed output: the tensor components, per-axis
marginals, the selection overlap and the total sum, serialized as JSON with
complex numbers as ``[re, im]`` pairs. Python's shortest-repr float
formatting makes the JSON round trip bit-exact for finite doubles.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaViolationError
from .hilbert import MAX_DIMENSION, Ket, make_ket
from .render import fmt_real, label_str, render_cube, render_grid, render_svg
from .scenarios import Scenario, custom
from .weakvalues import WeakValueTensor, marginalize, total_sum


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


@dataclass(frozen=True)
class SchemeDocument:
    """Serializable snapshot of a computed tensor for one scenario."""

    scenario: str
    dims: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...]
    kind: str
    overlap: complex
    components: tuple[complex, ...]  # flat, big-endian order
    marginals: tuple[tuple[complex, ...], ...]  # one tuple per axis
    total: complex

    def to_tensor(self) -> WeakValueTensor:
        return WeakValueTensor(self.dims, np.array(self.components), self.kind, self.overlap)


def scheme_document(scenario: Scenario, tensor: WeakValueTensor | None = None) -> SchemeDocument:
    """Compute (or adopt) the scenario's tensor and package it for output."""
    if tensor is None:
        tensor = scenario.tensor()
    return SchemeDocument(
        scenario=scenario.name,
        dims=tensor.dims,
        labels=scenario.axis_labels,
        kind=tensor.kind,
        overlap=tensor.overlap,
        components=tuple(complex(v) for v in tensor.components.reshape(-1)),
        marginals=tuple(tuple(marginalize(tensor, axis)) for axis in range(tensor.rank)),
        total=total_sum(tensor),
    )


def document_to_json(doc: SchemeDocument) -> str:
    payload = {
        "scenario": doc.scenario,
        "shape": list(doc.dims),
        "labels": [list(axis) for axis in doc.labels],
        "kind": doc.kind,
        "overlap": _pair(doc.overlap),
        "components": [_pair(v) for v in doc.components],
        "marginals": [[_pair(v) for v in axis] for axis in doc.marginals],
        "total": _pair(doc.total),
    }
    return json.dumps(payload, indent=2) + "\n"


def _document_text(doc: SchemeDocument) -> str:
    # header, then the grid (rank 2), the cube (rank 3) or one line per
    # component, then the per-axis marginals and the total
    tensor = doc.to_tensor()
    lines = [
        f"scenario: {doc.scenario}",
        f"kind: {doc.kind}",
        f"overlap: {doc.overlap.real + 0.0:+.4f}{doc.overlap.imag + 0.0:+.4f}i",
    ]
    if tensor.rank == 2:
        lines.append(render_grid(tensor, doc.labels).rstrip("\n"))
    elif tensor.rank == 3:
        lines.append(render_cube(tensor, doc.labels).rstrip("\n"))
    else:
        for label, value in zip(np.ndindex(*tensor.dims), tensor.components.reshape(-1)):
            lines.append(f"  {label_str(label, tensor.dims)}  {fmt_real(value)}")
    for axis, per_level in enumerate(doc.marginals):
        pairs = "  ".join(f"{lbl}={fmt_real(v)}" for lbl, v in zip(doc.labels[axis], per_level))
        lines.append(f"axis {axis} marginals: {pairs}")
    lines.append(f"total: {fmt_real(doc.total)}")
    return "\n".join(lines) + "\n"


def render_document(doc: SchemeDocument, fmt: str) -> bytes:
    """Render a document as json, text, or svg bytes.

    The text form is the CLI's text document for any rank.
    """
    if fmt == "json":
        return document_to_json(doc).encode("utf-8")
    if fmt == "text":
        return _document_text(doc).encode("utf-8")
    if fmt == "svg":
        return render_svg(doc.to_tensor(), doc.labels)
    raise ValueError(f"unknown format {fmt!r}; expected json, text, or svg")


def write_scheme(doc: SchemeDocument, path: str | os.PathLike, fmt: str = "json") -> None:
    with open(path, "wb") as handle:
        handle.write(render_document(doc, fmt))


def _require_field(obj: dict, field: str, parent: str = "") -> object:
    name = f"{parent}.{field}" if parent else field
    if field not in obj:
        raise SchemaViolationError(name, "missing required field")
    return obj[field]


def _parse_amps(raw: object, field: str, expected: int) -> np.ndarray:
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
        value = complex(float(entry[0]), float(entry[1]))
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise SchemaViolationError(f"{field}[{k}]", "amplitude must be finite")
        amps[k] = value
    return amps


def _load_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}", exc.lineno, exc.colno
        ) from exc
    if not isinstance(data, dict):
        raise SchemaViolationError("$", "expected a JSON object")
    return data


def _parse_shape(raw: object) -> tuple[int, ...]:
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in raw)
        or any(d < 2 for d in raw)
    ):
        raise SchemaViolationError("shape", "expected a list of integers >= 2")
    if math.prod(raw) > MAX_DIMENSION:
        raise SchemaViolationError("shape", f"total dimension exceeds the ceiling {MAX_DIMENSION}")
    return tuple(raw)


def parse_scenario(text: str, name: str = "custom") -> Scenario:
    """Parse scenario JSON text into a Scenario."""
    data = _load_object(text)
    dims = _parse_shape(_require_field(data, "shape"))
    d_total = math.prod(dims)

    def state(field: str) -> Ket:
        obj = data[field]
        if not isinstance(obj, dict):
            raise SchemaViolationError(field, "expected an object with an 'amps' field")
        raw = _require_field(obj, "amps", field)
        return make_ket(dims, _parse_amps(raw, f"{field}.amps", d_total))

    _require_field(data, "pre")
    pre = state("pre")
    post = state("post") if "post" in data else None

    labels = None
    if "labels" in data:
        raw_labels = data["labels"]
        if (
            not isinstance(raw_labels, list)
            or len(raw_labels) != len(dims)
            or any(not isinstance(axis, list) for axis in raw_labels)
            or any(len(axis) != d for axis, d in zip(raw_labels, dims))
            or any(not all(isinstance(l, str) for l in axis) for axis in raw_labels)
        ):
            raise SchemaViolationError("labels", f"expected one list of level names per axis {dims}")
        labels = [tuple(axis) for axis in raw_labels]

    return custom(pre, post, labels, name=name)


def read_scenario_file(path: str | os.PathLike) -> Scenario:
    """Read a scenario JSON file; the scenario is named after the file stem."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return parse_scenario(text, name=stem)


def scenario_to_json(scenario: Scenario) -> str:
    payload: dict = {
        "shape": list(scenario.dims),
        "pre": {"amps": [_pair(v) for v in scenario.pre.amps]},
    }
    if scenario.post is not None:
        payload["post"] = {"amps": [_pair(v) for v in scenario.post.amps]}
    payload["labels"] = [list(axis) for axis in scenario.axis_labels]
    return json.dumps(payload, indent=2) + "\n"


def write_scenario_file(scenario: Scenario, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(scenario_to_json(scenario))


def read_ket_file(path: str | os.PathLike) -> Ket:
    """Read a single-state JSON file: ``{"shape": [...], "amps": [[re, im], ...]}``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    data = _load_object(text)
    dims = _parse_shape(_require_field(data, "shape"))
    amps = _parse_amps(_require_field(data, "amps"), "amps", math.prod(dims))
    return make_ket(dims, amps)
