"""Text documents pinned byte for byte in ``tests/golden/``.

Each golden is compared with both ``render_document(doc, "text")`` and the
CLI's ``tensor --format text`` on the same states. The cases cover what the
other goldens do not: a listing with comma-joined labels (a dimension above
10), an expectation-only listing, a cube whose later slices have no diagonal
cell, and the ``-0.0`` fold next to values that round to ``-0.0000``.
"""

import json
import pathlib

import numpy as np
import pytest

from weaktensor import SchemeDocument, cli_main, custom, make_ket, render_document, scheme_document
from oracles import random_selected_pair, random_state

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: With ``pre = [1] * 6`` the overlap is exactly ``-1``, so the weak values
#: are exactly ``-0.0, 4e-5, -4e-5, -5e-5, 5e-5, 1``.
POST = [0.0, -4e-5, 4e-5, 5e-5, -5e-5, -1.0]


def _weak(dims, seed):
    return (dims, *random_selected_pair(np.random.default_rng(seed), dims))


#: Golden name -> (shape, pre amplitudes, post amplitudes or None).
CASES = {
    "listing-2x11x3x2": lambda: _weak((2, 11, 3, 2), 211),
    "listing-expectation-3x2x2x2": lambda: (
        (3, 2, 2, 2),
        random_state(np.random.default_rng(3222), (3, 2, 2, 2)),
        None,
    ),
    "cube-4x2x3": lambda: _weak((4, 2, 3), 423),
    "listing-rounding": lambda: ((6,), [1.0] * 6, POST),
}


def write_ket(path, dims, amps):
    pairs = [[float(complex(a).real), float(complex(a).imag)] for a in amps]
    path.write_text(json.dumps({"shape": list(dims), "amps": pairs}), encoding="utf-8")
    return str(path)


def rounding_document() -> SchemeDocument:
    """The ``listing-rounding`` document, built by hand."""
    values = (-0.0, 4e-5, -4e-5, -5e-5, 5e-5, 1.0)
    return SchemeDocument(
        scenario="custom",
        dims=(6,),
        labels=(tuple("012345"),),
        kind="weak",
        overlap=-1 + 0j,
        components=np.array(values, dtype=np.complex128),
        marginals=(tuple(map(complex, values)),),
        total=1 + 0j,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_document_matches_golden(name, tmp_path, capsys):
    dims, pre, post = CASES[name]()
    argv = ["tensor", "--pre", write_ket(tmp_path / "pre.json", dims, pre), "--format", "text"]
    if post is not None:
        argv[3:3] = ["--post", write_ket(tmp_path / "post.json", dims, post)]
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (golden, "")

    kets = [make_ket(dims, np.asarray(amps, np.complex128)) for amps in (pre, post)
            if amps is not None]
    doc = scheme_document(custom(*kets))
    assert render_document(doc, "text").decode("utf-8") == golden
    if name == "listing-rounding":
        assert render_document(rounding_document(), "text").decode("utf-8") == golden
