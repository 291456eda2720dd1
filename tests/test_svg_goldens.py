"""SVG renderings pinned byte for byte in ``tests/golden/``.

Each golden is compared with ``render_svg``, ``render_document(doc, "svg")``
and, where a file input can reach the case, the CLI's ``--format svg``. The
cases cover what the scenario goldens do not: a non-square grid with complex
cell text, near-zero reals (the neutral fill), ``-0.0`` and markup in the
labels; a cube whose later slices have no outlined diagonal cell; and
``NaN`` / ``±inf`` cells, which no file input can reach.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from weaktensor import (
    Ket,
    SchemeDocument,
    WeakValueTensor,
    cli_main,
    custom,
    render_document,
    render_svg,
    scheme_document,
    weak_tensor,
)
from oracles import random_selected_pair

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Weak values of the 2x5 grid. They sum to 1 and their imaginary parts
#: cancel, so with ``pre = [1] * 10`` and ``post = conj(GRID)`` the CLI
#: computes them up to rounding far below the fourth decimal.
GRID = np.array(
    [
        [0.5 + 0.25j, -0.375 - 0.25j, 3e-13, -0.0, 0.125 + 1e-10j],
        [-4e-13, 0.75 - 2e-8j, 1e-13 + 2e-8j, -0.25 - 1e-10j, 0.25],
    ]
)
GRID_LABELS = (("x<y", "p&q"), ("L", "M", "N", "u>v", "R"))

NAN, INF = math.nan, math.inf
NONFINITE = np.array(
    [NAN, INF, -INF, complex(1, NAN), complex(0.5, INF), complex(-0.5, -INF),
     complex(NAN, 2), complex(INF, -INF)]
).reshape(2, 2, 2)
NONFINITE_LABELS = (("s", "t"), ("0", "1"), ("a", "b"))


def hand_built(values, labels):
    """The tensor and a document holding ``values`` exactly (``-0.0``
    included); the SVG reads only the components and the labels."""
    tensor = WeakValueTensor(values.shape, values, "weak", 1 + 0j)
    doc = SchemeDocument(
        scenario="custom",
        dims=tensor.dims,
        labels=labels,
        kind="weak",
        overlap=1 + 0j,
        components=tensor.components.reshape(-1),
        marginals=tuple((0j,) * d for d in tensor.dims),
        total=1 + 0j,
    )
    return tensor, labels, doc


def pairs(amps):
    return [[float(a.real), float(a.imag)] for a in np.asarray(amps, np.complex128).reshape(-1)]


def grid_case(tmp_path):
    scenario = {
        "shape": [2, 5],
        "pre": {"amps": pairs(np.ones(10))},
        "post": {"amps": pairs(np.conj(GRID))},
        "labels": [list(axis) for axis in GRID_LABELS],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return (*hand_built(GRID, GRID_LABELS), ["run", str(path), "--format", "svg"])


def cube_case(tmp_path):
    dims = (4, 2, 3)
    pre, post = random_selected_pair(np.random.default_rng(423), dims)
    argv = ["tensor", "--format", "svg"]
    for side, amps in (("pre", pre), ("post", post)):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({"shape": list(dims), "amps": pairs(amps)}), encoding="utf-8")
        argv += [f"--{side}", str(path)]
    kets = (Ket(dims, pre), Ket(dims, post))
    doc = scheme_document(custom(*kets))
    return weak_tensor(*kets), None, doc, argv


def nonfinite_case(tmp_path):
    return (*hand_built(NONFINITE, NONFINITE_LABELS), None)


#: Golden name -> case builder giving (tensor, labels, document, CLI argv or
#: None when no file input reaches the case).
CASES = {
    "grid-2x5": grid_case,
    "cube-4x2x3": cube_case,
    "nonfinite-2x2x2": nonfinite_case,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_matches_golden(name, tmp_path, capsys):
    tensor, labels, doc, argv = CASES[name](tmp_path)
    golden = (GOLDEN / f"{name}.svg").read_bytes()

    assert render_svg(tensor, labels) == golden
    assert render_document(doc, "svg") == golden
    if argv is not None:
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out.encode("utf-8"), captured.err) == (golden, "")


def test_grid_case_holds_negative_zero():
    tensor, *_ = hand_built(GRID, GRID_LABELS)
    assert math.copysign(1.0, tensor.components[0, 3].real) == -1.0
