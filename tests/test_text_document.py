"""``render_document(doc, "text")`` is the CLI's text document, at any rank."""

import json

import numpy as np
import pytest

from weaktensor import (
    cli_main,
    custom,
    read_ket_file,
    render_document,
    scheme_document,
    write_scheme,
)
from oracles import random_selected_pair, random_state


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
    write_scheme(doc, written, "text")
    assert written.read_text(encoding="utf-8") == out
