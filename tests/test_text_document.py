"""``render_document(doc, "text")`` is the CLI's text document, at any rank."""

import dataclasses
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    LengthMismatchError, NonNumericAmplitudeError, SchemeDocument, ShapeMismatchError,
    WeakTensorError, cli_main, custom, read_ket_file, render_document, scheme_document,
)
from oracles import json_pairs_loop, random_selected_pair, random_state


def write_ket(path, dims, amps):
    pairs = [[float(a.real), float(a.imag)] for a in amps]
    path.write_text(json.dumps({"shape": list(dims), "amps": pairs}), encoding="utf-8")
    return str(path)


def cli_text(capsys, *argv):
    code = cli_main(["tensor", *argv, "--format", "text"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 2, 3), (2, 3, 2, 2)])
def test_weak_document_text_equals_cli_text(dims, tmp_path, capsys):
    pre, post = random_selected_pair(np.random.default_rng(len(dims)), dims)
    pre_path = write_ket(tmp_path / "pre.json", dims, pre)
    post_path = write_ket(tmp_path / "post.json", dims, post)
    out = cli_text(capsys, "--pre", pre_path, "--post", post_path)
    doc = scheme_document(custom(read_ket_file(pre_path), read_ket_file(post_path)))
    assert render_document(doc, "text").decode("utf-8") == out
    assert out.startswith("scenario: custom\nkind: weak\n")


def test_expectation_document_text_equals_cli_text(tmp_path, capsys):
    dims = (2, 2, 3, 2)
    pre_path = write_ket(tmp_path / "pre.json", dims, random_state(np.random.default_rng(5), dims))
    out = cli_text(capsys, "--pre", pre_path)
    doc = scheme_document(custom(read_ket_file(pre_path)))
    assert render_document(doc, "text").decode("utf-8") == out
    assert out.startswith("scenario: custom\nkind: expectation\n")
    written = tmp_path / "doc.txt"
    assert cli_main(["tensor", "--pre", pre_path, "--format", "text", "--out", str(written)]) == 0
    assert written.read_text(encoding="utf-8") == out


def hand_built(dims, labels, kind="weak"):
    # the weak tensor of |0...0> selected on itself: 1 in the first cell, 0 elsewhere
    components = np.zeros(math.prod(dims), np.complex128)
    components[0] = 1
    marginals = tuple(np.eye(d, dtype=np.complex128)[0] for d in dims)
    return SchemeDocument("hand", dims, labels, kind, 1 + 0j, components, marginals, 1 + 0j)


def test_integer_labels_are_shown_as_the_grid_and_svg_show_them():
    doc = hand_built((2, 2), ((0, 1), (2, 3)))
    lines = render_document(doc, "text").decode("utf-8").splitlines()
    assert lines[3].split() == ["2", "3", "|", "sum"]
    assert [line.split()[0] for line in lines[4:6]] == ["0", "1"]
    assert lines[-3:-1] == [
        "axis 0 marginals: 0=+1.0000  1=+0.0000",
        "axis 1 marginals: 2=+1.0000  3=+0.0000",
    ]
    svg = render_document(doc, "svg").decode("utf-8")
    assert all(f">{label}</text>" in svg for label in "0123")


@pytest.mark.parametrize("dims", [(2,), (2, 2, 2, 2)])
def test_labels_shorter_than_an_axis_are_refused_at_a_listing_rank(dims):
    doc = hand_built(dims, (("a",),) * len(dims))
    with pytest.raises(LengthMismatchError, match="do not match shape"):
        render_document(doc, "text")


def test_a_kind_with_a_newline_stays_on_its_header_line():
    text = render_document(hand_built((2,), (("a", "b"),), kind="a\nb"), "text").decode("utf-8")
    assert text.splitlines()[:3] == ["scenario: hand", "kind: a\\nb", "overlap: +1.0000+0.0000i"]


def with_dim(dims, axis, d):
    return dims[:axis] + (d,) + dims[axis + 1 :]


# each way to break one field of a document: its changed fields, and the error text and SVG
# both raise at a given rank
BREAKS = {
    "float-dim": (lambda doc, k: {"dims": with_dim(doc.dims, k, float(doc.dims[k]))},
                  lambda rank: ShapeMismatchError),
    "unit-dim": (lambda doc, k: {"dims": with_dim(doc.dims, k, 1)},
                 lambda rank: ShapeMismatchError),
    "dropped-axis": (lambda doc, k: {"dims": doc.dims[:-1]},
                     lambda rank: ShapeMismatchError if rank == 1 else LengthMismatchError),
    "component-short": (lambda doc, k: {"components": doc.components[:-1]},
                        lambda rank: LengthMismatchError),
    "marginal-short": (lambda doc, k: {"marginals": doc.marginals[:-1]},
                       lambda rank: LengthMismatchError),
    "marginal-extra": (lambda doc, k: {"marginals": doc.marginals + doc.marginals[-1:]},
                       lambda rank: LengthMismatchError),
    "string-overlap": (lambda doc, k: {"overlap": str(doc.overlap)},
                       lambda rank: NonNumericAmplitudeError),
}


def cli_text_bytes(*argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out):
        code = cli_main(["tensor", *argv, "--format", "text"])
    out.flush()
    assert code == 0
    return out.buffer.getvalue()


def fields_as_json(doc):
    """``json.dumps(indent=2)`` of the document's fields as given; the overlap
    through ``complex``, as the JSON writer reads it."""
    overlap = complex(doc.overlap)
    payload = {
        "scenario": doc.scenario,
        "shape": list(doc.dims),
        "labels": [list(axis) for axis in doc.labels],
        "kind": doc.kind,
        "overlap": [overlap.real, overlap.imag],
        "components": json_pairs_loop(doc.components),
        "marginals": [json_pairs_loop(axis) for axis in doc.marginals],
        "total": json_pairs_loop([doc.total])[0],
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=60)
@given(
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=5).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    broken=st.sampled_from(sorted(BREAKS)),
    pick=st.integers(0, 4),
)
def test_text_and_svg_refuse_a_broken_document_alike(tmp_path_factory, dims, seed, broken, pick):
    folder = tmp_path_factory.mktemp("pair")
    pre, post = random_selected_pair(np.random.default_rng(seed), dims)
    paths = write_ket(folder / "pre.json", dims, pre), write_ket(folder / "post.json", dims, post)
    doc = scheme_document(custom(*map(read_ket_file, paths)))
    assert render_document(doc, "text") == cli_text_bytes("--pre", paths[0], "--post", paths[1])
    change, error = BREAKS[broken]
    bad = dataclasses.replace(doc, **change(doc, pick % len(dims)))
    raised = []
    for fmt in ("text", "svg"):
        with pytest.raises(WeakTensorError) as info:
            render_document(bad, fmt)
        raised.append(type(info.value))
    assert raised == [error(len(dims))] * 2
    assert render_document(bad, "json").decode("utf-8") == fields_as_json(bad)
