"""JSON amplitudes read in bulk: one type scan, one conversion and one
finiteness check give the bits and the errors of the per-entry loop in
``oracles.parse_amps_loop``; and the checks around them (the shape's
ceiling, the SVG rank, ``--help``) answer before any large work is done."""

import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaktensor
import weaktensor.schemefile as schemefile
from weaktensor import Ket, SchemaViolationError, cli_main, read_ket_file
from weaktensor.cli import build_parser
from weaktensor.schemefile import _parse_amps, _parse_shape

from oracles import parse_amps_loop

EDGE_NUMBERS = [2**63 + 1, -(2**64), 10**400, -(10**400), -0.0, 5e-324, -5e-324, 0, 1, -7,
                1.5, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]


def _outcome(parse, raw, expected):
    try:
        amps = parse(raw, "pre.amps", expected)
    except SchemaViolationError as exc:
        return ("error", str(exc), exc.field)
    assert amps.dtype == np.complex128 and amps.shape == (expected,)
    return ("amps", amps.tobytes())


def _same_as_loop(raw, expected):
    assert _outcome(_parse_amps, raw, expected) == _outcome(parse_amps_loop, raw, expected)


NON_NUMBERS = [True, False, None, "1", "", [1], [0.5, 1], [], {}]
finite_numbers = st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False))
values = st.one_of(
    finite_numbers,
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.sampled_from(EDGE_NUMBERS + NON_NUMBERS),
)
entries = st.one_of(
    st.lists(values, min_size=2, max_size=2),
    st.lists(values, max_size=3),  # 1- and 3-element pairs too
    values,
)
valid_lists = st.lists(st.lists(finite_numbers, min_size=2, max_size=2), max_size=12)


@st.composite
def one_odd_entry(draw):
    # valid pairs around one entry built on an edge number or a non-number
    raw = draw(valid_lists)
    odd = draw(st.sampled_from(EDGE_NUMBERS + NON_NUMBERS))
    other = draw(finite_numbers)
    entry = draw(st.sampled_from([[odd, other], [other, odd], [odd], [other, odd, other], odd]))
    raw.insert(draw(st.integers(0, len(raw))), entry)
    return raw


@settings(max_examples=400)
@given(raw=st.one_of(valid_lists, one_odd_entry(), one_odd_entry(), st.lists(entries, max_size=12)))
def test_bulk_parse_matches_the_per_entry_loop(raw):
    raw = json.loads(json.dumps(raw))  # only what a JSON file can hold
    _same_as_loop(raw, len(raw))


@pytest.mark.parametrize("raw", [[], [[1, 0]], [[1, 0], [0, 1], [0, 0]], "[[1, 0], [0, 1]]", {"0": [1, 0]}])
def test_a_list_of_the_wrong_length_or_type_matches_the_loop(raw):
    _same_as_loop(raw, 2)


@pytest.mark.parametrize("value", EDGE_NUMBERS, ids=repr)
@pytest.mark.parametrize("place", [0, 1, 2, 3])
def test_each_edge_number_in_each_place_matches_the_loop(value, place):
    flat = [0.5, -1, 2.25, 3]
    flat[place] = value
    _same_as_loop([flat[:2], flat[2:]], 2)


@pytest.mark.parametrize(
    "raw",
    [
        [[True, 0], [0, 1]],
        [[0, 1], [1, False]],
        [["1", 0], [0, 1]],
        [[0, 1], [None, 0]],
        [[[1], 0], [0, 1]],
        [[1, 0], [0, 1, 2]],
        [[1], [0, 1]],
        [[1, 0], 0.5],
        [[1, 0], {"re": 1}],
        [[10**400, "x"], ["x", 0]],  # the first bad entry wins, whatever its fault
        [[1, 0], [float("nan"), "x"]],
        [[1, 0], [2, 10**400]],
        [(1, 0), (0, 1)],  # tuples are pairs too, as in the loop
        [[2**63 + 1, -(2**64)], [-0.0, 5e-324]],
    ],
    ids=repr,
)
def test_named_inputs_match_the_loop(raw):
    _same_as_loop(raw, len(raw))


def test_json_literals_nan_and_infinity_name_their_entry(tmp_path):
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "ket.json"
        path.write_text(f'{{"shape": [2], "amps": [[1, 0], [0, {literal}]]}}', encoding="utf-8")
        with pytest.raises(SchemaViolationError, match=r"^amps\[1\]: amplitude must be finite$"):
            read_ket_file(path)


def test_parsed_amplitudes_are_read_only_and_bit_exact():
    raw = [[2**63 + 1, -0.0], [5e-324, -(2**64)], [0.1, 3]]
    amps = _parse_amps(raw, "amps", 3)
    assert not amps.flags.writeable and not amps.base.flags.writeable
    expected = np.array([complex(float(a), float(b)) for a, b in raw])
    assert amps.tobytes() == expected.tobytes()


def test_the_ket_keeps_the_parsed_array_without_a_copy(tmp_path, monkeypatch):
    parsed = []

    def spy(*args):
        parsed.append(_parse_amps(*args))
        return parsed[-1]

    monkeypatch.setattr(schemefile, "_parse_amps", spy)
    path = tmp_path / "ket.json"
    path.write_text('{"shape": [2, 2], "amps": [[1, 0], [0, 1], [0.5, -0.5], [2, 0]]}', encoding="utf-8")
    ket = read_ket_file(path)
    assert np.shares_memory(ket.amps, parsed[0])
    assert np.shares_memory(Ket((2, 2), parsed[0]).amps, parsed[0])


# ---------------------------------------------------------------- checks before the work


def test_a_long_shape_list_is_refused_at_once(tmp_path, capsys):
    shape = [2] * 300_000
    start = time.perf_counter()
    with pytest.raises(SchemaViolationError, match="total dimension exceeds the ceiling 1048576"):
        _parse_shape(shape)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"shape": shape, "amps": []}), encoding="utf-8")
    assert cli_main(["tensor", "--pre", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "SchemaViolationError: shape: total dimension exceeds the ceiling 1048576\n"
    )


def test_the_shape_count_rule_agrees_with_the_product():
    # 2**20 is the ceiling itself; one more axis of 2 passes it
    assert _parse_shape([2] * 20) == (2,) * 20
    with pytest.raises(SchemaViolationError, match="exceeds the ceiling"):
        _parse_shape([2] * 21)


def test_svg_rank_is_refused_before_the_post_file_is_read(tmp_path, capsys):
    pre = tmp_path / "rank4.json"
    pre.write_text(json.dumps({"shape": [2] * 4, "amps": [[0.25, 0]] * 16}), encoding="utf-8")
    missing = tmp_path / "no-such-post.json"
    argv = ["tensor", "--pre", str(pre), "--post", str(missing), "--format", "svg"]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "UnsupportedRankError: SVG rendering supports ranks 2 and 3, got rank 4\n"


@pytest.mark.parametrize("command", [(), ("tensor",)])
def test_help_is_written_as_utf8_whatever_the_stdout_encoding(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert cli_main([*command, "--help"]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    assert expected.startswith(b"usage: weaktensor")
    parser = build_parser()
    for name in command:  # the subcommand's own parser
        parser = parser._subparsers._group_actions[0].choices[name]
    buffer = io.StringIO()  # a file given to print_help gets the help, stdout nothing
    parser.print_help(buffer)
    assert (buffer.getvalue().encode("utf-8"), capsys.readouterr().out) == (expected, "")
    src = os.path.dirname(os.path.dirname(weaktensor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-16", "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "weaktensor", *command, "--help"], env=env,
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == expected
