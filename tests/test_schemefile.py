import functools
import gc
import json
import math
import os

import numpy as np
import pytest

from weaktensor import (
    ParseError,
    SchemaViolationError,
    bell,
    cli_main,
    custom,
    document_to_json,
    hardy,
    hardy_gamma,
    make_ket,
    parse_scenario,
    read_ket_file,
    read_scenario_file,
    render_document,
    scenario_to_json,
    scheme_document,
)
from weaktensor.errors import UnsupportedRankError
from weaktensor.render import check_rank
from weaktensor.schemefile import _MAX_FILE_BYTES

HARDY_JSON = """
{
  "shape": [2, 2],
  "pre":  {"amps": [[1, 0], [0, 0], [1, 0], [1, 0]]},
  "post": {"amps": [[1, 0], [-1, 0], [-1, 0], [1, 0]]},
  "labels": [["L_p", "R_p"], ["L_e", "R_e"]]
}
"""


# ---------------------------------------------------------------- reading


def test_scenario_file_reproduces_hardy_tensor(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(HARDY_JSON, encoding="utf-8")
    s = read_scenario_file(path)
    assert s.name == "pair"
    assert s.axis_labels == (("L_p", "R_p"), ("L_e", "R_e"))
    np.testing.assert_allclose(s.tensor().components, hardy().tensor().components, atol=1e-12)


def test_parse_scenario_without_post_or_labels():
    s = parse_scenario('{"shape": [2], "pre": {"amps": [[0.6, 0], [0, 0.8]]}}')
    assert s.post is None
    assert s.axis_labels == (("0", "1"),)
    np.testing.assert_array_equal(s.pre.amps, [0.6, 0.8j])


def test_wrong_amp_count_names_the_field():
    with pytest.raises(SchemaViolationError) as info:
        parse_scenario('{"shape": [2, 2], "pre": {"amps": [[1, 0], [0, 0], [0, 0]]}}')
    assert info.value.field == "pre.amps"


def test_bad_amp_entry_names_the_element():
    with pytest.raises(SchemaViolationError) as info:
        parse_scenario('{"shape": [2], "pre": {"amps": [[1, 0], [0]]}}')
    assert info.value.field == "pre.amps[1]"


def test_missing_fields_detected():
    with pytest.raises(SchemaViolationError) as info:
        parse_scenario('{"pre": {"amps": []}}')
    assert info.value.field == "shape"
    with pytest.raises(SchemaViolationError) as info:
        parse_scenario('{"shape": [2]}')
    assert info.value.field == "pre"


def test_bad_shape_and_labels_detected():
    with pytest.raises(SchemaViolationError):
        parse_scenario('{"shape": [2, 1], "pre": {"amps": [[1, 0], [0, 0]]}}')
    with pytest.raises(SchemaViolationError) as info:
        parse_scenario(
            '{"shape": [2], "pre": {"amps": [[1, 0], [0, 0]]}, "labels": [["a"]]}'
        )
    assert info.value.field == "labels"


def test_non_finite_amplitude_rejected():
    with pytest.raises(SchemaViolationError):
        parse_scenario('{"shape": [2], "pre": {"amps": [[1, 0], [1e999, 0]]}}')


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_scenario('{"shape": [2,\n  oops')
    assert info.value.lineno == 2
    assert "line 2" in str(info.value)


def test_non_object_document_rejected():
    with pytest.raises(SchemaViolationError):
        parse_scenario("[1, 2, 3]")


# ---------------------------------------------------------------- round trips


@pytest.mark.parametrize("build", [hardy, lambda: bell("psi+"), lambda: hardy_gamma(0.7)])
def test_scenario_write_read_round_trip_is_bit_exact(build, tmp_path):
    original = build()
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_json(original), encoding="utf-8")
    loaded = read_scenario_file(path)
    np.testing.assert_array_equal(loaded.pre.amps, original.pre.amps)
    if original.post is None:
        assert loaded.post is None
    else:
        np.testing.assert_array_equal(loaded.post.amps, original.post.amps)
    assert loaded.axis_labels == original.axis_labels


def test_irrational_amplitudes_round_trip_bit_exact(tmp_path):
    amps = [1.0 / math.sqrt(3.0), math.pi * 1e-7, -2.0 / 3.0, 0.1 + 0.2j]
    s = custom(make_ket((2, 2), amps))
    path = tmp_path / "s.json"
    path.write_text(scenario_to_json(s), encoding="utf-8")
    np.testing.assert_array_equal(read_scenario_file(path).pre.amps, s.pre.amps)


# ---------------------------------------------------------------- documents


def test_scheme_document_contents():
    doc = scheme_document(hardy())
    assert doc.scenario == "hardy"
    assert doc.kind == "weak"
    assert doc.dims == (2, 2)
    assert doc.components.tolist() == [1.0 + 0j, -0.0 + 0j, -1.0 + 0j, 1.0 + 0j]
    assert doc.total == pytest.approx(1.0)
    np.testing.assert_allclose(doc.marginals[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(doc.marginals[1], [0.0, 1.0], atol=1e-12)


def test_document_json_is_bit_exact():
    from weaktensor import cheshire

    doc = scheme_document(cheshire())
    payload = json.loads(document_to_json(doc))
    for written, original in zip(payload["components"], doc.components):
        assert written[0] == original.real  # exact float equality
        assert written[1] == original.imag
    assert payload["overlap"][0] == doc.overlap.real
    assert payload["shape"] == [2, 2]


def test_render_document_formats():
    doc = scheme_document(hardy())
    assert render_document(doc, "json").startswith(b"{")
    assert b"sum" in render_document(doc, "text")
    assert render_document(doc, "svg").startswith(b"<?xml")
    with pytest.raises(ValueError):
        render_document(doc, "png")


def test_document_to_tensor_round_trip():
    doc = scheme_document(hardy())
    np.testing.assert_array_equal(doc.to_tensor().components, hardy().tensor().components)


# ---------------------------------------------------------------- ket files


def test_read_ket_file(tmp_path):
    path = tmp_path / "ket.json"
    path.write_text('{"shape": [2], "amps": [[0.6, 0], [0, 0.8]]}', encoding="utf-8")
    k = read_ket_file(path)
    np.testing.assert_array_equal(k.amps, [0.6, 0.8j])


def test_read_ket_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"shape": [2], "amps": [[1, 0]]}', encoding="utf-8")
    with pytest.raises(SchemaViolationError) as info:
        read_ket_file(path)
    assert info.value.field == "amps"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(ParseError):
        read_ket_file(path)


def test_scenario_json_text_shape():
    text = scenario_to_json(hardy())
    payload = json.loads(text)
    assert list(payload) == ["shape", "pre", "post", "labels"]
    assert payload["pre"]["amps"][0] == [1.0, 0.0]


# ---------------------------------------------------------------- the size cap


def test_a_file_over_the_size_cap_is_refused_before_it_is_read(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, _MAX_FILE_BYTES + 1)  # sparse: no disk or memory is used
    message = f"file of {_MAX_FILE_BYTES + 1} bytes exceeds the {_MAX_FILE_BYTES}-byte limit"
    for read in (read_ket_file, read_scenario_file):
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == message
    for argv in (["tensor", "--pre", str(path)], ["run", str(path)]):
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"ParseError: {message}\n")


def test_the_writers_largest_file_is_below_the_size_cap():
    # a scenario file of 2**n components with both states, every part a float
    # repr of the longest length: size(n) = fixed + per_axis * n + 2 * per_pair * 2**n
    part = -1.2345678901234567e-100
    assert len(repr(part)) == 24

    def size(n):
        k = make_ket((2,) * n, np.full(2**n, complex(part, part)))
        return len(scenario_to_json(custom(k, k)).encode("utf-8"))

    d1, d2 = size(3) - size(2), size(4) - size(3)
    per_pair = (d2 - d1) // 8
    per_axis = d1 - 8 * per_pair

    def predicted(n):
        return size(4) + per_axis * (n - 4) + 2 * per_pair * (2**n - 2**4)

    assert predicted(5) == size(5) and per_pair == 84
    assert predicted(20) < 169 * 2**20 < _MAX_FILE_BYTES


# ---------------------------------------------------------------- the collector during a read


def _seeded_amps(n_qubits: int, stream: int) -> list[list[float]]:
    rng = np.random.default_rng([23, stream])
    return rng.standard_normal((2**n_qubits, 2)).tolist()


def _collections_during(read, *args) -> list[int]:
    """The generation of every cyclic collection run by ``read(*args)``,
    called with the collector enabled."""
    runs = []

    def hook(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # so that no collection is already due when the read starts
    gc.callbacks.append(hook)
    try:
        read(*args)
    finally:
        gc.callbacks.remove(hook)
        if not enabled:
            gc.disable()
    return runs


def test_read_ket_file_runs_no_collection(tmp_path):
    paths = []
    for stream, side in enumerate(("pre", "post")):
        path = tmp_path / f"{side}.json"
        ket = {"shape": [2] * 12, "amps": _seeded_amps(12, stream)}
        path.write_text(json.dumps(ket), encoding="utf-8")
        paths.append(path)
    assert _collections_during(lambda: [read_ket_file(p) for p in paths]) == []


def test_read_scenario_file_runs_no_collection(tmp_path):
    path = tmp_path / "q12.json"
    doc = {"shape": [2] * 12, "pre": {"amps": _seeded_amps(12, 0)}}
    doc["post"] = {"amps": _seeded_amps(12, 1)}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _collections_during(read_scenario_file, path) == []


_READ_CASES = {  # the ket document's bytes, the error expected of both readers
    "success": (b'{"shape": [2], "amps": [[1, 0], [0, 0]]}', None),
    "malformed-json": (b'{"shape": [2], "amps": [[1, 0],', ParseError),
    "invalid-utf8": (b'{"shape": [2], "amps": [[1, 0], [0, 0]], "note": "\xff"}', ParseError),
    "bad-amps-entry": (b'{"shape": [2], "amps": [[1, 0], [true, 0]]}', SchemaViolationError),
    "rank-refused": (b'{"shape": [2], "amps": [[1, 0], [0, 0]]}', UnsupportedRankError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", list(_READ_CASES))
@pytest.mark.parametrize("reader", ["ket", "scenario"])
def test_a_read_leaves_the_collector_as_it_was(reader, case, enabled, tmp_path):
    ket, error = _READ_CASES[case]
    path = tmp_path / "in.json"
    if reader == "ket":
        path.write_bytes(ket)
        read = read_ket_file
    else:  # the same shape and amplitudes as the scenario's pre state
        path.write_bytes(ket.replace(b'"amps": ', b'"pre": {"amps": ').replace(b"]]", b"]]}"))
        read = read_scenario_file
    svg_rank = functools.partial(check_rank, "SVG") if case == "rank-refused" else None
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            read(path, svg_rank)
        else:
            with pytest.raises(error):
                read(path, svg_rank)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
