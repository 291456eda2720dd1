import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import weaktensor
from weaktensor import SCENARIO_NAMES, cli_main, hardy, scenario_to_json
from weaktensor.cli import cli_main as cli_main_direct


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- scenario


def test_scenario_list(capsys):
    code, out, _ = run_cli(capsys, "scenario", "list")
    assert code == 0
    assert out.split() == list(SCENARIO_NAMES)


def test_cli_main_is_exported_consistently():
    assert cli_main is cli_main_direct


# ---------------------------------------------------------------- run


def test_run_cheshire_text(capsys):
    code, out, _ = run_cli(capsys, "run", "cheshire", "--format", "text")
    assert code == 0
    assert "scenario: cheshire" in out
    assert "+1.0000  -1.0000" in out
    assert "total: +1.0000" in out
    assert "axis 1 marginals: L=+1.0000  R=+0.0000" in out


def test_run_ghz3_selected_cube(capsys):
    code, out, _ = run_cli(capsys, "run", "ghz3-selected")
    assert code == 0
    assert out.count("slice") == 3
    assert "-1.0000*" in out


def test_run_json_components(capsys):
    code, out, _ = run_cli(capsys, "run", "hardy", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "weak"
    assert payload["components"] == [[1.0, 0.0], [-0.0, 0.0], [-1.0, -0.0], [1.0, 0.0]]
    assert payload["total"] == [1.0, 0.0]


def test_run_svg_to_file(capsys, tmp_path):
    out_path = tmp_path / "scheme.svg"
    code, out, _ = run_cli(
        capsys, "run", "cheshire", "--format", "svg", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert out_path.read_bytes().startswith(b"<?xml")


def test_run_hardy_gamma_requires_gamma(capsys):
    code, _, err = run_cli(capsys, "run", "hardy-gamma")
    assert code == 2
    assert "--gamma" in err


def test_run_hardy_gamma_with_value(capsys):
    code, out, _ = run_cli(capsys, "run", "hardy-gamma", "--gamma", "3.141592653589793")
    assert code == 0
    assert "+0.5000  +0.5000" in out


def test_run_gamma_zero_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "run", "hardy-gamma", "--gamma", "0")
    assert code == 1
    assert "OrthogonalSelectionError" in err


def test_run_unknown_scenario_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-thing")
    assert code == 2
    assert "no-such-thing" in err


def test_run_scenario_from_file(capsys, tmp_path):
    path = tmp_path / "mypair.json"
    path.write_text(scenario_to_json(hardy()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "mypair"
    np.testing.assert_allclose(
        np.array(payload["components"]), [[1, 0], [0, 0], [-1, 0], [1, 0]], atol=1e-12
    )


@pytest.mark.parametrize("field", ["pre", "post"])
def test_run_refuses_a_state_that_is_not_an_object(capsys, tmp_path, field):
    document = {"shape": [2], "pre": {"amps": [[1, 0], [0, 0]]}, field: [[1, 0]]}
    path = tmp_path / "bare-state.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (1, "")
    assert err == f"SchemaViolationError: {field}: expected an object with an 'amps' field\n"


@pytest.mark.parametrize(
    "command, document, field",
    [
        (("run",), {"shape": [2, 2, 2, 2], "pre": {"amps": "not a list"}}, "pre.amps"),
        (("tensor", "--pre"), {"shape": [2, 2, 2, 2], "amps": "not a list"}, "amps"),
    ],
    ids=["run", "tensor"],
)
def test_svg_refuses_the_rank_before_reading_the_states(capsys, tmp_path, command, document,
                                                         field):
    # the amplitudes are malformed, so reading them would raise SchemaViolationError
    path = tmp_path / "rank4.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *command, str(path), "--format", "svg")
    assert (code, out) == (1, "")
    assert err == "UnsupportedRankError: SVG rendering supports ranks 2 and 3, got rank 4\n"
    code, _, err = run_cli(capsys, *command, str(path), "--format", "text")
    assert code == 1 and err.startswith(f"SchemaViolationError: {field}: ")


def test_run_ghz_with_counts(capsys):
    code, out, _ = run_cli(capsys, "run", "ghz", "--parties", "2", "--levels", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["shape"] == [3, 3]


# ---------------------------------------------------------------- tensor


def write_ket(path, shape, amps):
    path.write_text(json.dumps({"shape": shape, "amps": amps}), encoding="utf-8")


def test_tensor_subcommand(capsys, tmp_path):
    pre, post = tmp_path / "pre.json", tmp_path / "post.json"
    write_ket(pre, [2, 2], [[1, 0], [0, 0], [1, 0], [1, 0]])
    write_ket(post, [2, 2], [[1, 0], [-1, 0], [-1, 0], [1, 0]])
    code, out, _ = run_cli(
        capsys, "tensor", "--pre", str(pre), "--post", str(post), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["components"] == [[1.0, 0.0], [-0.0, 0.0], [-1.0, -0.0], [1.0, 0.0]]


def test_tensor_without_post_is_expectation(capsys, tmp_path):
    pre = tmp_path / "pre.json"
    write_ket(pre, [2], [[3, 0], [4, 0]])
    code, out, _ = run_cli(capsys, "tensor", "--pre", str(pre), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "expectation"
    np.testing.assert_allclose(np.array(payload["components"]), [[0.36, 0], [0.64, 0]], atol=1e-12)


def test_tensor_orthogonal_selection_is_domain_error(capsys, tmp_path):
    pre, post = tmp_path / "pre.json", tmp_path / "post.json"
    write_ket(pre, [2], [[1, 0], [0, 0]])
    write_ket(post, [2], [[0, 0], [1, 0]])
    code, _, err = run_cli(capsys, "tensor", "--pre", str(pre), "--post", str(post))
    assert code == 1
    assert "OrthogonalSelectionError" in err


def test_tensor_schema_violation_is_domain_error(capsys, tmp_path):
    pre = tmp_path / "pre.json"
    write_ket(pre, [2, 2], [[1, 0]])
    code, _, err = run_cli(capsys, "tensor", "--pre", str(pre))
    assert code == 1
    assert "SchemaViolationError" in err


def test_tensor_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "tensor", "--pre", str(tmp_path / "absent.json"))
    assert code == 1


# ---------------------------------------------------------------- evolve


def test_evolve_compare_reports_fidelity_gap(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--family", "psit1", "--eps", "1", "--time", "1.5707963267948966",
        "--compare",
    )
    assert code == 0
    assert "fidelity: 0.625000" in out
    assert "relative phases vs t=0:" in out
    assert "|1010>" in out


def test_evolve_exact_family(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--family", "exact", "--eps", "0.5", "--time", "2")
    assert code == 0
    # exact evolution phases only the joint |1010> component
    assert "  |1010>  " in out
    phases = [l for l in out.splitlines() if l.startswith("  |") and "-1.0" in l]
    assert any("|1010>" in l for l in phases)


def test_evolve_missing_param_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "evolve", "--family", "psit1", "--time", "1")
    assert code == 2
    assert "--eps" in err
    code, _, err = run_cli(capsys, "evolve", "--family", "GHZ2", "--eps", "1", "--time", "1")
    assert code == 2
    assert "--phi" in err


def test_evolve_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "evolve", "--family", "warp", "--time", "1")
    assert code == 2


def test_evolve_ghz2(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--family", "GHZ2", "--phi", "0.5", "--time", "1", "--compare"
    )
    assert code == 0
    assert "fidelity:" in out


# ---------------------------------------------------------------- realize


def test_realize_table(capsys):
    code, out, _ = run_cli(capsys, "realize", "--levels", "2", "--axes", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cell  basis"
    assert len([l for l in lines if l.lstrip().startswith(tuple("01234567"))]) == 8
    assert "   5  (1,0,1)" in lines
    assert lines[-1] == "diagonal cells: (0,0,0)  (1,1,1)"


def test_realize_cap(capsys):
    code, _, err = run_cli(capsys, "realize", "--levels", "2", "--axes", "20")
    assert code == 2


# ---------------------------------------------------------------- misc usage


def test_no_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


# ---------------------------------------------------------------- error contract


def test_evolve_exact_nan_coupling_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "evolve", "--family", "exact", "--eps", "nan", "--time", "1")
    assert code == 1
    assert out == ""
    assert err == "NonFiniteEnergyError: eps must be finite\n"


def test_non_utf8_files_are_parse_errors(capsys, tmp_path):
    data = b'{"shape": [2], "amps": [[1, 0], [0, 0]], "note": "caf\xe9"}'
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    for argv in (("run", str(path)), ("tensor", "--pre", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"ParseError: byte {data.index(0xE9)}: not valid UTF-8")


def test_integer_amplitude_beyond_float_range_is_schema_violation(capsys, tmp_path):
    pre = tmp_path / "pre.json"
    pre.write_text('{"shape": [2], "amps": [[1, 0], [0, 1' + "0" * 400 + "]]}")
    code, _, err = run_cli(capsys, "tensor", "--pre", str(pre))
    assert code == 1
    assert err == "SchemaViolationError: amps[1]: amplitude must be finite\n"


def test_realize_cap_rejects_huge_axes_before_the_power(capsys):
    code, out, err = run_cli(capsys, "realize", "--levels", "3", "--axes", "3000000")
    assert code == 2
    assert out == ""
    assert err == "usage error: table of 3**3000000 cells exceeds the cap 4096\n"


def test_realize_table_at_the_cap(capsys):
    code, out, _ = run_cli(capsys, "realize", "--levels", "2", "--axes", "12")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 4096 + 1
    assert lines[-2] == "4095  (1,1,1,1,1,1,1,1,1,1,1,1)"


def count_evolutions(monkeypatch):
    import weaktensor.cli as cli

    calls = {"product_form": [], "exact_counterpart": []}
    for name in calls:
        original = getattr(cli, name)

        def counted(family, t, _name=name, _original=original, **params):
            calls[_name].append(t)
            return _original(family, t, **params)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_evolve_compare_reuses_the_listed_state(capsys, monkeypatch):
    calls = count_evolutions(monkeypatch)
    code, out, _ = run_cli(
        capsys, "evolve", "--family", "psit1", "--eps", "1", "--time", "0.5", "--compare"
    )
    assert code == 0
    assert calls == {"product_form": [0.5, 0.0], "exact_counterpart": [0.5]}
    assert "exact vs product form:" in out

    calls = count_evolutions(monkeypatch)
    code, exact_out, _ = run_cli(
        capsys, "evolve", "--family", "exact", "--eps", "1", "--time", "0.5", "--compare"
    )
    assert code == 0
    assert calls == {"product_form": [0.5], "exact_counterpart": [0.5, 0.0]}
    # the same (exact, form) pair is compared whichever side is listed
    assert exact_out.split("exact vs product form:")[1] == out.split("exact vs product form:")[1]


def test_non_finite_phase_angles_are_domain_errors(capsys):
    # a non-finite input is refused by name; a finite angle that overflows
    # makes a NaN amplitude
    for argv, want in (
        (("evolve", "--family", "psit1", "--eps", "1", "--time", "inf"),
         "NonFiniteEnergyError: time must be finite"),
        (("evolve", "--family", "exact", "--eps", "1", "--time", "inf"),
         "NonFiniteEnergyError: time must be finite"),
        (("evolve", "--family", "exact", "--eps", "1e308", "--time", "1e10"),
         "NonFiniteAmplitudeError: amplitudes must be finite"),
        (("run", "hardy-gamma", "--gamma", "inf"), "NonFiniteEnergyError: gamma must be finite"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == want + "\n"


def test_tensor_of_amplitudes_whose_squares_overflow(capsys, tmp_path):
    big, up = tmp_path / "big.json", tmp_path / "up.json"
    write_ket(big, [2], [[1e200, 0], [1e200, 0]])
    write_ket(up, [2], [[1, 0], [0, 0]])
    code, out, err = run_cli(capsys, "tensor", "--pre", str(big))
    assert (code, err) == (0, "")
    assert out.count("+0.5000") == 4  # two components, two marginals
    assert "total: +1.0000" in out

    code, out, err = run_cli(capsys, "tensor", "--pre", str(big), "--post", str(up))
    assert (code, err) == (0, "")
    assert "  |0>  +1.0000\n  |1>  +0.0000\n" in out


@pytest.mark.parametrize(
    "amp, line",
    [
        ([1e200, 0], "overlap: +1.0000e+200+0.0000i"),
        ([-1e16, -1e16], "overlap: -1.0000e+16-1.0000e+16i"),
        ([9.999e15, 0], "overlap: +9999000000000000.0000+0.0000i"),
        ([-2.5, 3e16], "overlap: -2.5000+3.0000e+16i"),
    ],
)
def test_overlap_line_switches_to_exponent_form_at_1e16(capsys, tmp_path, amp, line):
    # <post|pre> is the pre state's first amplitude; below 1e16 the line is unchanged
    pre, post = tmp_path / "pre.json", tmp_path / "post.json"
    write_ket(pre, [2], [amp, [0, 0]])
    write_ket(post, [2], [[1, 0], [0, 0]])
    code, out, err = run_cli(capsys, "tensor", "--pre", str(pre), "--post", str(post))
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == line


def test_stdout_carries_the_utf8_bytes_whatever_its_encoding(tmp_path):
    # cheshire's labels (the spin arrows) are not ASCII
    src = os.path.dirname(os.path.dirname(weaktensor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "ascii"}
    for fmt in ("text", "svg"):
        argv = [sys.executable, "-m", "weaktensor", "run", "cheshire", "--format", fmt]
        out_file = tmp_path / f"cheshire.{fmt}"
        done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        wrote = subprocess.run([*argv, "--out", str(out_file)], env=env, capture_output=True,
                               timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), fmt
        assert (wrote.returncode, wrote.stdout, wrote.stderr) == (0, b"", b""), fmt
        assert done.stdout == out_file.read_bytes()
        assert "↑".encode("utf-8") in done.stdout


def test_output_to_a_text_only_stdout(capsys):
    code, expected, _ = run_cli(capsys, "run", "cheshire", "--format", "svg")
    buffer = io.StringIO()  # no binary buffer underneath
    with contextlib.redirect_stdout(buffer):
        assert cli_main(["run", "cheshire", "--format", "svg"]) == 0
    assert (code, buffer.getvalue()) == (0, expected)
