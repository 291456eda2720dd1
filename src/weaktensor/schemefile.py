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
complex numbers as ``[re, im]`` pairs. Both writers give the bytes of
``json.dumps(payload, indent=2)`` (``NaN`` / ``Infinity`` for non-finite
values), but every ``[re, im]`` list (the components, each marginal and each
state's amplitudes) is written by one list writer, `_pair_list`, instead of
the pure-Python ``indent`` encoder. Python's shortest-repr float formatting
makes the JSON round trip bit-exact for finite doubles.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionOverflowError, LengthMismatchError, ParseError, SchemaViolationError, UnknownNameError,
    WeakTensorError,
)
from .hilbert import MAX_DIMENSION, Ket, check_dims, check_labels, freeze, read_only_complex
from .render import fmt_real, fmt_reals, label_strs, render_cube, render_grid, render_svg, shown
from .scenarios import Scenario, custom
from .weakvalues import WeakValueTensor, total_sum


@dataclass(frozen=True, eq=False)
class SchemeDocument:
    """Serializable snapshot of a computed tensor for one scenario; ``==``
    is identity."""

    scenario: str
    dims: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...]
    kind: str
    overlap: complex
    components: np.ndarray  # the tensor's read-only array, flat (a view)
    marginals: tuple[np.ndarray, ...]  # the tensor's read-only arrays, one per axis
    total: complex

    def to_tensor(self) -> WeakValueTensor:
        """The tensor by its rules, with the document's marginals, one per axis, cached."""
        tensor = WeakValueTensor(self.dims, self.components, self.kind, self.overlap)
        dims, given = tensor.dims, tuple(self.marginals)
        if len(given) != len(dims):
            raise LengthMismatchError(
                f"expected {len(dims)} marginals for shape {dims}, got {len(given)}"
            )
        marginals = tuple(read_only_complex(m, (d,), what="marginals") for m, d in zip(given, dims))
        object.__setattr__(tensor, "marginals", marginals)  # fills the cached_property
        return tensor


def scheme_document(scenario: Scenario) -> SchemeDocument:
    """Compute the scenario's tensor and package it for output."""
    tensor = scenario.tensor()
    return SchemeDocument(
        scenario=scenario.name,
        dims=tensor.dims,
        labels=scenario.axis_labels,
        kind=tensor.kind,
        overlap=tensor.overlap,
        components=tensor.components.reshape(-1),
        marginals=tensor.marginals,
        total=total_sum(tensor),
    )


def _pair_list(values: np.ndarray, depth: int) -> str:
    """``json.dumps(indent=2)`` of the ``[re, im]`` pairs of complex
    ``values``, for a list opening at nesting ``depth``: the same bytes, with
    no Python list built per pair."""
    floats = np.asarray(values, np.complex128).reshape(-1).view(np.float64)
    if not floats.size:
        return "[]"
    outer = "  " * depth
    inner = outer + "  "
    number = inner + "  "
    parts = [f"\n{inner}],\n{inner}[\n{number}", None, f",\n{number}", None] * (floats.size // 2)
    parts[0] = f"[\n{inner}[\n{number}"
    parts[1::2] = map(float.__repr__, floats.tolist())  # each between two separators
    parts.append(f"\n{inner}]\n{outer}]")
    text = "".join(parts)
    if not np.isfinite(floats).all():
        # repr writes nan / inf where json writes NaN / Infinity; a finite
        # float's repr holds only digits, ".", "e", "+" and "-"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _spliced(payload: dict, *lists: tuple[str, str]) -> str:
    """``json.dumps(payload, indent=2)`` and a newline, each ``(key, text)`` written over the
    next ``key + "[]"`` in one join. JSON escapes a newline inside a string, so a ``key`` that
    opens with one matches only its own key line."""
    parts = [json.dumps(payload, indent=2) + "\n"]
    for key, text in lists:
        head, _, tail = parts.pop().partition(key + "[]")
        parts += [head, key, text, tail]
    return "".join(parts)


def document_to_json(doc: SchemeDocument) -> str:
    overlap, total = complex(doc.overlap), complex(doc.total)
    payload = {
        "scenario": doc.scenario,
        "shape": list(doc.dims),
        "labels": [list(axis) for axis in doc.labels],
        "kind": doc.kind,
        "overlap": [overlap.real, overlap.imag],
        "components": [],  # this and the marginals spliced in below
        "marginals": [],
        "total": [total.real, total.imag],
    }
    marginals = ",\n    ".join(_pair_list(axis, 2) for axis in doc.marginals)
    marginals = f"[\n    {marginals}\n  ]" if doc.marginals else "[]"
    lists = ('\n  "components": ', _pair_list(doc.components, 1)), ('\n  "marginals": ', marginals)
    return _spliced(payload, *lists)


def _document_text(doc: SchemeDocument) -> str:
    # header; the grid (rank 2), cube (rank 3) or a line per component; marginals; total
    tensor = doc.to_tensor()
    labels = check_labels(doc.labels, tensor.dims)
    re, im = fmt_real(tensor.overlap.real), fmt_real(tensor.overlap.imag)
    lines = [f"scenario: {shown(doc.scenario)}", f"kind: {shown(doc.kind)}", f"overlap: {re}{im}i"]
    block = {2: render_grid, 3: render_cube}.get(tensor.rank)
    if block is not None:
        lines.append(block(tensor, labels).rstrip("\n"))
    else:
        lines.extend(map("  {}  {}".format, label_strs(tensor.dims), fmt_reals(tensor.components)))
    for axis, per_level in enumerate(tensor.marginals):
        pairs = "  ".join(map("{}={}".format, map(shown, labels[axis]), fmt_reals(per_level)))
        lines.append(f"axis {axis} marginals: {pairs}")
    lines.append(f"total: {fmt_real(doc.total)}")
    return "\n".join(lines) + "\n"


def render_document(doc: SchemeDocument, fmt: str) -> bytes:
    """Render a document as json, text, or svg bytes.

    Text (the CLI's document, at any rank) and SVG read ``doc.to_tensor()`` and show the
    name and labels by :func:`~weaktensor.render.shown`; JSON writes every field as given.
    """
    if fmt == "json":
        return document_to_json(doc).encode("utf-8")
    if fmt == "text":
        return _document_text(doc).encode("utf-8", "backslashreplace")
    if fmt == "svg":
        return render_svg(doc.to_tensor(), doc.labels)
    raise UnknownNameError(f"unknown format {fmt!r}; expected json, text, or svg")


def _require_field(obj: dict, field: str, parent: str = "") -> object:
    name = f"{parent}.{field}" if parent else field
    if field not in obj:
        raise SchemaViolationError(name, "missing required field")
    return obj[field]


def _first_bad_amp(raw: list, field: str) -> None:
    """Raise the schema error of the first entry of ``raw`` that is not an
    ``[re, im]`` pair of finite numbers, naming it ``field[k]``. It only
    locates an error; a list without one (say of tuples) is let through."""
    for k, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise SchemaViolationError(f"{field}[{k}]", "expected an [re, im] pair of numbers")
        try:
            finite = all(map(math.isfinite, entry))
        except OverflowError:  # an integer literal beyond the float range
            finite = False
        if not finite:
            raise SchemaViolationError(f"{field}[{k}]", "amplitude must be finite")


def _parse_amps(raw: object, field: str, expected: int) -> np.ndarray:
    """The ``[re, im]`` pairs of ``raw`` as a read-only ``complex128`` array:
    one type scan, one conversion and one finiteness check over the whole
    list, with the per-entry checks run only to name a bad ``field[k]``."""
    if not isinstance(raw, list) or len(raw) != expected:
        raise SchemaViolationError(field, f"expected a list of {expected} [re, im] pairs")
    numbers = itertools.chain.from_iterable
    # JSON gives lists, ints and floats; a bool's type is bool, not int
    if not (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, numbers(raw))) <= {int, float}
    ):
        _first_bad_amp(raw, field)
    try:
        floats = np.fromiter(numbers(raw), np.float64, 2 * expected)
        finite = np.isfinite(floats).all()
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        _first_bad_amp(raw, field)
    return freeze(floats).view(np.complex128)


#: Largest input file read, checked before decoding: the writers' largest file,
#: a 2^20 scenario with both states, is about 168 MiB.
_MAX_FILE_BYTES = 256 * 2**20


def _read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            size = os.fstat(handle.fileno()).st_size  # 0 for a pipe, which is not bounded
            if size > _MAX_FILE_BYTES:
                raise ParseError(f"file of {size} bytes exceeds the {_MAX_FILE_BYTES}-byte limit")
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not valid UTF-8 ({exc.reason})") from exc


def _load_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}", exc.lineno, exc.colno
        ) from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or an over-long integer
        raise ParseError(str(exc)) from exc
    if not isinstance(data, dict):
        raise SchemaViolationError("$", "expected a JSON object")
    return data


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector, then leave it as found: a JSON tree has no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_shape(raw: object) -> tuple[int, ...]:
    try:  # of JSON values only a list of integers >= 2 passes: true and false are 1 and 0
        return check_dims(raw)
    except DimensionOverflowError:
        message = f"total dimension exceeds the ceiling {MAX_DIMENSION}"
    except WeakTensorError:
        message = "expected a list of integers >= 2"
    raise SchemaViolationError("shape", message)


@_collector_paused()  # until the decoded tree is freed, on return
def parse_scenario(text: str, name: str = "custom", check_rank=None) -> Scenario:
    """Parse scenario JSON text into a Scenario; ``check_rank``, if given,
    is called with the rank as soon as the shape is read, before any state."""
    data = _load_object(text)
    dims = _parse_shape(_require_field(data, "shape"))
    if check_rank is not None:
        check_rank(len(dims))

    def state(field: str) -> Ket:
        obj = _require_field(data, field)
        if not isinstance(obj, dict):
            raise SchemaViolationError(field, "expected an object with an 'amps' field")
        raw = _require_field(obj, "amps", field)
        return Ket(dims, _parse_amps(raw, f"{field}.amps", math.prod(dims)))

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


def read_scenario_file(path: str | os.PathLike, check_rank=None) -> Scenario:
    """Read a scenario JSON file; the scenario is named after the file stem.
    ``check_rank`` is as for :func:`parse_scenario`."""
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return parse_scenario(_read_text(path), stem, check_rank)


def scenario_to_json(scenario: Scenario) -> str:
    states = [scenario.pre] if scenario.post is None else [scenario.pre, scenario.post]
    payload: dict = {"shape": list(scenario.dims), "pre": {"amps": []}}  # spliced in below
    if scenario.post is not None:
        payload["post"] = {"amps": []}
    payload["labels"] = [list(axis) for axis in scenario.axis_labels]
    return _spliced(payload, *(('\n    "amps": ', _pair_list(ket.amps, 2)) for ket in states))


@_collector_paused()  # until the decoded tree is freed, on return
def read_ket_file(path: str | os.PathLike, check_rank=None) -> Ket:
    """Read a single-state JSON file: ``{"shape": [...], "amps": [[re, im], ...]}``.
    ``check_rank`` is as for :func:`parse_scenario`."""
    data = _load_object(_read_text(path))
    dims = _parse_shape(_require_field(data, "shape"))
    if check_rank is not None:
        check_rank(len(dims))
    return Ket(dims, _parse_amps(_require_field(data, "amps"), "amps", math.prod(dims)))
