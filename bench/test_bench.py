"""Tests of the benchmark itself: every check accepts the program's real
output and rejects a single corrupted number or byte, and a failed check is
counted as a failed invocation.

    PYTHONPATH=src python -m pytest bench -q
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import driver
import run
import workloads
from weaktensor.cli import cli_main

GOLDEN = workloads.GOLDEN


def cli_output(*argv: str) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli_main(list(argv)) == 0
    return buffer.getvalue().encode("utf-8")


@pytest.fixture
def tensor_files(tmp_path):
    """Seeded pair files and their oracle for a rank-2 and a rank-4 shape."""

    def make(dims):
        pre, post, spikes = workloads.selected_pair(np.random.default_rng(7), dims)
        paths = []
        for side, amps in (("pre", pre), ("post", post)):
            path = tmp_path / f"{'x'.join(map(str, dims))}.{side}.json"
            path.write_text(workloads.ket_json(dims, amps), encoding="utf-8")
            paths.append(str(path))
        return checks.weak_oracle(dims, pre, post), spikes, paths

    return make


def corrupt_line(out: bytes, index: int, old: str, new: str) -> bytes:
    lines = out.decode("utf-8").split("\n")
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    return "\n".join(lines).encode("utf-8")


def test_json_check_flags_one_wrong_component(tensor_files):
    oracle, _, (pre, post) = tensor_files((2, 3, 4, 5))
    out = cli_output("tensor", "--pre", pre, "--post", post, "--format", "json")
    assert checks.check_tensor_json(out, oracle) is None

    doc = json.loads(out)
    doc["components"][17][1] *= 1 + 1e-6
    assert checks.check_tensor_json(json.dumps(doc).encode(), oracle) == "components differ from the oracle"


@pytest.mark.parametrize("dims", [(16, 16), (2, 2, 3, 11)])
def test_text_check_flags_one_wrong_cell(tensor_files, dims):
    oracle, spikes, (pre, post) = tensor_files(dims)
    out = cli_output("tensor", "--pre", pre, "--post", post, "--format", "text")
    assert checks.check_tensor_text(out, oracle, tuple(spikes)) is None

    spike = int(spikes[0])
    value = f"{oracle.components.reshape(-1)[spike].real + 0.0:+.4f}"
    wrong = f"{float(value) + 2e-4:+.4f}"
    if len(dims) == 2:
        row, col = divmod(spike, dims[1])
        index = 4 + row  # three header lines, then the column labels
        assert out.decode().split("\n")[index].split()[1 + col] == value
        corrupted = corrupt_line(out, index, value, wrong)
    else:
        corrupted = corrupt_line(out, 3 + spike, value, wrong)
    assert checks.check_tensor_text(corrupted, oracle, tuple(spikes)) is not None


def test_text_check_requires_the_imaginary_warning_only_by_presence(tensor_files):
    oracle, spikes, (pre, post) = tensor_files((4, 4))
    out = cli_output("tensor", "--pre", pre, "--post", post, "--format", "text")
    lines = out.decode().split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("warning: imaginary"))
    bounded = lines[:at] + ["warning: imaginary parts above 1e-09: 16 cells"] + lines[at + 1:]
    assert checks.check_tensor_text("\n".join(bounded).encode(), oracle) is None
    missing = lines[:at] + lines[at + 1:]
    assert checks.check_tensor_text("\n".join(missing).encode(), oracle) == "imaginary-part warning missing"


@pytest.mark.parametrize("name", workloads.GOLDEN_SCENARIOS)
def test_golden_checks_flag_one_wrong_byte(name):
    svg = cli_output("run", name, "--format", "svg")
    golden_svg = (GOLDEN / f"{name}.svg").read_bytes()
    assert checks.check_equal(svg, golden_svg) is None
    flipped = bytearray(svg)
    flipped[len(svg) // 2] ^= 1
    assert checks.check_equal(bytes(flipped), golden_svg) is not None

    text = cli_output("run", name, "--format", "text")
    golden_txt = (GOLDEN / f"{name}.txt").read_bytes()
    assert checks.check_contains(text, golden_txt) is None
    at = text.index(golden_txt) + len(golden_txt) // 2
    assert checks.check_contains(text[:at] + bytes([text[at] ^ 1]) + text[at + 1:], golden_txt) is not None


def test_catalog_checks_accept_every_call_of_a_pass(tmp_path):
    workload = workloads.catalog_cli(3, tmp_path)
    assert len(workload.invocations) >= 40
    for inv in workload.invocations:
        assert inv.check(cli_output(*inv.args), "") is None, inv.args


@pytest.mark.parametrize("family", sorted(workloads.FAMILIES))
def test_evolve_check_flags_one_wrong_amplitude(family):
    params = {p: 0.7 + 0.1 * k for k, p in enumerate(workloads.FAMILIES[family][0])}
    flags = [x for p, v in params.items() for x in (f"--{p}", repr(v))]
    out = cli_output("evolve", "--family", family, *flags, "--time", "1.3", "--compare")
    assert checks.check_evolve(out, family, 1.3, **params) is None
    lines = out.decode().split("\n")
    at = lines.index("amplitudes:") + 1
    wrong = lines[at][:-2] + ("1i" if lines[at][-2] != "1" else "2i")
    corrupted = "\n".join(lines[:at] + [wrong] + lines[at + 1:]).encode()
    assert checks.check_evolve(corrupted, family, 1.3, **params) == "evolve amplitudes differ from the oracle"


def test_realize_check_flags_one_wrong_digit():
    out = cli_output("realize", "--levels", "3", "--axes", "4")
    assert checks.check_realize(out, 3, 4) is None
    assert checks.check_realize(out.replace(b"(0,0,1,2)", b"(0,0,2,1)"), 3, 4) is not None


def test_dynamics_check_flags_one_wrong_phase(tmp_path):
    rng = np.random.default_rng(5)
    dims = (2,) * 6
    pre = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    post = pre + rng.standard_normal(64) + 1j * rng.standard_normal(64)
    terms = [[0.8, [[0, 1], [3, 0]]], [-1.1, [[1, 1], [2, 1], [5, 0]]]]
    times = [0.3, 1.7, 2.9]
    np.save(tmp_path / "pre.npy", pre)
    np.save(tmp_path / "post.npy", post)
    spec = {"dims": list(dims), "terms": terms, "times": times}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    prefix = str(tmp_path / "out")
    driver.dynamics_pass(str(tmp_path), prefix)

    oracle = checks.dynamics_oracle(dims, pre, post, terms, times)
    summary, phases = Path(prefix + ".json").read_bytes(), np.load(prefix + ".npy")
    assert checks.check_dynamics(summary, phases, oracle) is None
    phases[9] += 1e-6
    assert checks.check_dynamics(summary, phases, oracle) == "phase report differs from the oracle"


def test_a_failed_check_counts_as_a_failed_invocation(tmp_path):
    golden = (GOLDEN / "cheshire.svg").read_bytes()
    flipped = golden[:100] + bytes([golden[100] ^ 1]) + golden[101:]
    invocations = [
        workloads.Invocation(
            "cli", ["run", "cheshire", "--format", "svg"], lambda out, _, g=g: checks.check_equal(out, g), 4
        )
        for g in (golden, flipped)
    ]
    failures = []
    result = run.run_pass(run.Runner(tmp_path), workloads.Workload(invocations, "cli"), False, failures)
    assert len(failures) == 1 and "differs from the golden" in failures[0]
    assert result.wall_s > 0 and result.cpu_s > 0 and result.peak_rss_mb > 10


def test_self_time_subtracts_direct_children_only():
    spans = [["cli", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert run.self_times(spans) == {"cli": [6.0, 1], "a": [3.0, 2], "b": [1.0, 1]}


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(not math.isnan(m["bound"]) and m["bound"] <= 0.25 for m in spec["end_to_end"])
