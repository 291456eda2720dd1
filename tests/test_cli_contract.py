"""The CLI's contract on any argv and any input file: ``cli_main`` returns 0,
1 or 2 and raises nothing (numpy warnings included, as the suite makes them
errors); exit 1 writes exactly one stderr line, ``Name: message``, and exit
0 none. A bounded, derandomized hypothesis fuzz checks it over every
subcommand, with named regression tests for the faults it has found."""

import io
import json
import os
import re
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weaktensor import (
    SCENARIO_NAMES,
    DimensionOverflowError,
    ParseError,
    cli_main,
    ghz_ket,
    parse_scenario,
    read_ket_file,
)
from weaktensor.dynamics import FAMILIES

ERROR_LINE = re.compile(r"[A-Za-z]\w*: [^\n]*\n")


def call(argv):
    """``(code, stdout bytes, stderr text)`` of one in-process CLI call."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err == "", argv
        if out.startswith(b"<?xml"):  # an SVG on stdout is well-formed XML
            ET.fromstring(out)
    elif code == 1:
        assert ERROR_LINE.fullmatch(err), (argv, err)


# ---------------------------------------------------------------- regressions


DEEP = "[" * 200_000 + "]" * 200_000
LONG_INT = '{"shape": [2], "amps": [[%s, 0], [0, 0]]}' % ("7" * 5000)


@pytest.mark.parametrize("text", [DEEP, LONG_INT], ids=["too-deep", "over-long-integer"])
def test_too_deep_or_over_long_json_is_one_parse_error_line(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["tensor", "--pre", path], ["run", path]):
        code, out, err = call(argv)
        assert (code, out) == (1, b"")
        assert len(err.splitlines()) == 1 and err.startswith("ParseError: ")
    with pytest.raises(ParseError):
        read_ket_file(path)
    with pytest.raises(ParseError):
        parse_scenario(text)


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["evolve", "--family", "psit1", "--eps", "1", "--time", "-1e3"],
         ["evolve", "--family", "psit1", "--eps", "1", "--time=-1e3"]),
        (["run", "hardy-gamma", "--gamma", "-1e-3"], ["run", "hardy-gamma", "--gamma=-1e-3"]),
        (["evolve", "--family", "Hamm2", "--eps", "1", "--eps2", "-2.5E+1", "--time", "1"],
         ["evolve", "--family", "Hamm2", "--eps", "1", "--eps2=-2.5E+1", "--time", "1"]),
    ],
)
def test_negative_exponent_values_read_as_numbers(spaced, joined):
    got = call(spaced)
    assert got[0] == 0
    assert got == call(joined)


def test_negative_infinity_is_a_value_and_a_dash_word_an_option():
    code, out, err = call(["evolve", "--family", "psit1", "--eps", "1", "--time", "-inf"])
    assert (code, out, err) == (1, b"", "NonFiniteEnergyError: time must be finite\n")
    code, _, err = call(["evolve", "--family", "psit1", "--eps", "1", "--time", "-x"])
    assert code == 2
    assert "argument --time: expected one argument" in err


@pytest.mark.parametrize("parties", ["100000", str(10**30)])
def test_a_long_ghz_shape_fails_fast_with_one_line(parties):
    # 100000 axes: the full product has more digits than str(int) allows;
    # 10**30 axes: no tuple that long can be built
    code, out, err = call(["run", "ghz", "--parties", parties])
    assert (code, out) == (1, b"")
    assert err == "DimensionOverflowError: total dimension at least 2097152 exceeds the " \
                  "ceiling 1048576\n"
    with pytest.raises(DimensionOverflowError):
        ghz_ket(int(parties), 3)


@pytest.mark.xfail(strict=True, reason="products of amplitudes near 1e300 overflow")
def test_amplitudes_beyond_1e150_keep_their_weak_values(tmp_path):
    pre, post = tmp_path / "pre.json", tmp_path / "post.json"
    pre.write_text(json.dumps({"shape": [2], "amps": [[1e300, 0], [1e299, 0]]}))
    post.write_text(json.dumps({"shape": [2], "amps": [[1e10, 0], [1e10, 0]]}))
    code, out, err = call(["tensor", "--pre", pre, "--post", post, "--format", "json"])
    assert (code, err) == (0, "")
    components = json.loads(out)["components"]
    assert components == pytest.approx([[10 / 11, 0.0], [1 / 11, 0.0]])


def bell_file(path, labels):
    path.write_text(json.dumps({"shape": [2, 2], "labels": labels,
                                "pre": {"amps": [[1, 0], [0, 0], [0, 0], [1, 0]]}}))
    return path


def test_a_label_utf8_cannot_encode_is_written_as_an_escape(tmp_path):
    path = bell_file(tmp_path / "f.json", [["\ud800", "b"], ["c", "d"]])
    code, out, err = call(["run", path, "--format", "text"])
    assert (code, err) == (0, "")
    assert "axis 0 marginals: \\ud800=+0.5000  b=+0.5000\n" in out.decode("utf-8")
    code, out, err = call(["run", path, "--format", "svg"])
    assert (code, err) == (0, "")
    assert ET.fromstring(out).findall(".//{*}text")[2].text == "\\ud800"


def test_a_file_name_utf8_cannot_encode_is_written_as_an_escape(tmp_path):
    path = bell_file(tmp_path / os.fsdecode(b"\xff.json"), [["a", "b"], ["c", "d"]])
    code, out, err = call(["run", path, "--format", "text"])
    assert (code, err) == (0, "")
    assert out.decode("utf-8").startswith("scenario: \\udcff\n")


def test_a_label_xml_cannot_hold_keeps_the_svg_well_formed(tmp_path):
    path = bell_file(tmp_path / "f.json", [["a\u0001", "b"], ["c", "d"]])
    code, out, err = call(["run", path, "--format", "svg"])
    assert (code, err) == (0, "")
    assert ET.fromstring(out).findall(".//{*}text")[2].text == "a\\x01"


# ---------------------------------------------------------------- the fuzz


def fuzz(examples):
    return settings(max_examples=examples, suppress_health_check=[HealthCheck.too_slow])


def one_in(n):
    """True about once in ``n`` draws."""
    return st.integers(0, n - 1).map(lambda k: k == 0)


#: Option values: signed, exponent, inf / nan and non-numeric forms.
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([
        "-1e3", "-1E-3", "1e308", "-1e308", "5e-324", "-inf", "-nan", "inf", "nan", "-0", "-0.0",
        "+1", ".5", "-.5", "1_000", "-x", "x", "", "--", "-", "0x10", "1e", "٣",
    ]),
)
#: Counts: mostly small integers, some over every ceiling, some not integers.
COUNTS = st.one_of(
    st.integers(-1, 13).map(str), st.integers(-1, 13).map(str),
    st.sampled_from(["21", "100000", str(2**20 + 1), str(10**30), "-1e3", "1.5", "-x", "nan"]),
)
#: Amplitude parts within 1e+-150 (beyond it products overflow).
NUMBERS = st.one_of(
    st.just(0.0), st.just(-0.0), st.integers(-3, 3),
    st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150),
)
#: One odd element: ints beyond int64 and beyond the float range,
#: non-numbers, and nested or ragged lists.
ODD_PARTS = st.one_of(
    NUMBERS, st.sampled_from([2**63 + 1, -(2**64), 10**20, 10**400, -(10**400)]),
    st.booleans(), st.text(max_size=3), st.none(),
)
ODD_ELEMENTS = st.one_of(
    st.tuples(ODD_PARTS, ODD_PARTS).map(list),
    st.lists(ODD_PARTS, max_size=3),
    st.recursive(ODD_PARTS, lambda inner: st.lists(inner, max_size=2), max_leaves=4),
)
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 10**400),
                 st.lists(st.integers(0, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
GOOD_SHAPES = st.sampled_from([[2], [3], [2, 2], [2, 3], [3, 2], [2, 2, 2], [3, 2, 2]])


@st.composite
def shapes(draw):
    return draw(st.one_of(JUNK, st.just([2, 1]), st.just([]))) if draw(one_in(10)) \
        else draw(GOOD_SHAPES)


@st.composite
def amps_for(draw, shape):
    if draw(one_in(20)):
        return draw(JUNK)
    n = 1
    for d in shape if isinstance(shape, list) else ():
        n *= d if isinstance(d, int) and not isinstance(d, bool) and 0 < d < 10 else 1
    if draw(one_in(10)):
        n = draw(st.sampled_from([0, n - 1, n + 1]))
    pairs = draw(st.lists(st.tuples(NUMBERS, NUMBERS).map(list), min_size=n, max_size=n))
    if pairs and draw(one_in(5)):
        pairs[draw(st.integers(0, len(pairs) - 1))] = draw(ODD_ELEMENTS)
    return pairs


@st.composite
def ket_documents(draw):
    shape = draw(shapes())
    return draw(JUNK) if draw(one_in(20)) else {"shape": shape, "amps": draw(amps_for(shape))}


@st.composite
def scenario_documents(draw):
    shape = draw(shapes())
    doc = {"shape": shape, "pre": {"amps": draw(amps_for(shape))}}
    if draw(st.booleans()):
        doc["post"] = draw(JUNK) if draw(one_in(10)) else {"amps": draw(amps_for(shape))}
    if draw(st.booleans()) and isinstance(shape, list):
        good = [[str(level) + "'" for level in range(d)] for d in shape if isinstance(d, int)]
        if draw(one_in(4)):  # surrogates and control characters too
            good = [[draw(st.text(st.characters(exclude_categories=()), max_size=2))
                     for _ in axis] for axis in good]
        doc["labels"] = draw(st.one_of(JUNK, st.lists(st.lists(st.text(max_size=2), max_size=3),
                                                      max_size=3))) if draw(one_in(4)) else good
    return doc


@st.composite
def file_bytes(draw, documents):
    data = json.dumps(draw(documents), allow_nan=False).encode("utf-8")
    if draw(one_in(10)):  # not valid UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xe9"])) + data[at:]
    return data


@st.composite
def render_options(draw, tmp):
    argv = ["--format", draw(st.sampled_from(["text", "json", "svg", "png"]))] \
        if draw(st.booleans()) else []
    if draw(one_in(4)):
        argv += ["--out", draw(st.sampled_from([tmp / "out.bin", tmp]))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def test_run_keeps_the_contract(fuzz_dir):
    @fuzz(120)
    @given(st.data())
    def run(data):
        draw = data.draw
        (fuzz_dir / "scenario.json").write_bytes(draw(file_bytes(scenario_documents())))
        name = draw(st.one_of(
            st.sampled_from([*SCENARIO_NAMES, "ghz", "ghz", "hardy-gamma"]),
            st.sampled_from([fuzz_dir / "scenario.json"] * 3 + [fuzz_dir, fuzz_dir / "no.json"]),
            st.text(max_size=4)))
        argv = ["run", name]
        for flag, values in (("--gamma", VALUES), ("--parties", COUNTS), ("--levels", COUNTS)):
            argv += [flag, draw(values)] if draw(st.booleans()) else []
        check_contract(argv + draw(render_options(fuzz_dir)))

    run()


def test_tensor_keeps_the_contract(fuzz_dir):
    @fuzz(150)
    @given(st.data())
    def run(data):
        draw = data.draw
        argv = ["tensor", "--pre", fuzz_dir / "pre.json"]
        (fuzz_dir / "pre.json").write_bytes(draw(file_bytes(ket_documents())))
        if draw(st.booleans()):
            (fuzz_dir / "post.json").write_bytes(draw(file_bytes(ket_documents())))
            argv += ["--post", fuzz_dir / "post.json"]
        check_contract(argv + draw(render_options(fuzz_dir)))

    run()


def test_evolve_realize_and_listing_keep_the_contract():
    @fuzz(150)
    @given(st.data())
    def run(data):
        draw = data.draw
        command = draw(st.sampled_from(["evolve"] * 4 + ["realize"] * 2 + ["scenario", "junk"]))
        if command == "evolve":
            family = draw(st.sampled_from([*FAMILIES, "exact", "warp"]))
            argv = ["evolve", "--family", family]
            for flag in ("--eps", "--eps2", "--phi", "--time"):
                argv += [flag, draw(VALUES)] if not draw(one_in(4)) else []
            argv += ["--compare"] if draw(st.booleans()) else []
        elif command == "realize":
            argv = ["realize"]
            for flag in ("--levels", "--axes"):
                argv += [flag, draw(COUNTS)] if not draw(one_in(8)) else []
        elif command == "scenario":
            argv = ["scenario", *draw(st.sampled_from([["list"], [], ["show"]]))]
        else:
            argv = [draw(st.text(max_size=6))]
        check_contract(argv)

    run()
