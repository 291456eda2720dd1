"""The program entry: ``import weaktensor`` loads no numpy and leaves the
environment alone, while ``python -m weaktensor`` runs numpy's BLAS on one
thread unless the caller sets ``OPENBLAS_NUM_THREADS``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import weaktensor

#: the public API, as the package stated it when it imported every submodule
PUBLIC_NAMES = """
    ComparisonReport DiagonalHamiltonian DimensionOverflowError DuplicateSubsystemError
    HamiltonianTerm InvalidCountError Ket LengthMismatchError LevelOutOfRangeError
    MAX_DIMENSION MissingParamError NonFiniteAmplitudeError NonFiniteEnergyError
    NonNumericAmplitudeError ORTHO_TOL OrthogonalSelectionError OutOfRangeError ParseError
    PhaseReport ProjectorProduct SCENARIO_NAMES Scenario SchemaViolationError SchemeDocument
    ShapeMismatchError SubsystemOutOfRangeError UnknownNameError UnsupportedRankError
    WeakTensorError WeakValueTensor ZeroVectorError apply_pauli_string basis_label
    basis_labels basis_state bell build_hamiltonian build_named check_dims cheshire cli_main
    compare_states custom diagonal_cells document_to_json epr_pair evolve exact_counterpart
    expectation_tensor flat_index ghz ghz3_selected ghz_ket hardy hardy_gamma
    hardy_overlap_labels inner is_diagonal_supported joint_hamiltonian make_ket marginalize
    norm normalize parse_scenario phase_report product_form read_ket_file read_scenario_file
    render_cube render_document render_grid render_svg scenario_to_json scheme_document
    selection_overlap stabilizer_eigenvalue tensor_product total_sum weak_tensor weak_value
""".split()

#: prints the CLI process's thread count and BLAS setting as it exits
THREAD_PROBE = """
import atexit, os, runpy, sys
atexit.register(lambda: print(len(os.listdir("/proc/self/task")),
                              os.environ.get("OPENBLAS_NUM_THREADS")))
sys.argv = ["weaktensor", "scenario", "list"]
runpy.run_module("weaktensor", run_name="__main__")
"""


def _env(**env):
    """The environment with this checkout's package on the path; ``None``
    unsets a variable, and nothing else of the environment changes."""
    src = os.path.dirname(os.path.dirname(weaktensor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    full = {**os.environ, "PYTHONPATH": path}
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return full


def _python(argv, **env):
    """Run a fresh interpreter on this checkout's package, with ``_env(**env)``."""
    argv = [sys.executable, *argv]
    done = subprocess.run(argv, env=_env(**env), capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b""), done.stderr
    return done.stdout


def _numpy_uses_openblas() -> bool:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def test_importing_the_package_loads_no_numpy_and_keeps_every_name():
    code = ("import json, os, sys; env = dict(os.environ); import weaktensor; "
            "print(json.dumps(['numpy' in sys.modules, weaktensor.__all__, dir(weaktensor), "
            "'numpy' in sys.modules, env == dict(os.environ)]))")
    loaded, names, listed, loaded_after_dir, env_kept = json.loads(_python(["-c", code]))
    assert not loaded and not loaded_after_dir and env_kept
    assert names == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(listed)


@pytest.fixture
def tensor_argv(tmp_path):
    """``-m weaktensor tensor --format json`` on a seeded 2**14 pair, where
    one BLAS call would be summed in an order set by its thread count."""
    rng = np.random.default_rng(14)
    pre = rng.normal(size=(2**14, 2))
    states = {"pre": pre, "post": pre + rng.normal(size=pre.shape)}
    argv = ["-m", "weaktensor", "tensor", "--format", "json"]
    for name, amps in states.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"shape": [2] * 14, "amps": amps.tolist()}))
        argv += [f"--{name}", str(path)]
    return argv


def test_cli_bytes_do_not_depend_on_the_callers_blas_threads(tensor_argv):
    assert _python(tensor_argv, OPENBLAS_NUM_THREADS=None) == _python(
        tensor_argv, OPENBLAS_NUM_THREADS="1"
    )


def test_cli_bytes_are_the_same_for_one_and_two_blas_threads(tensor_argv):
    assert _python(tensor_argv, OPENBLAS_NUM_THREADS="1") == _python(
        tensor_argv, OPENBLAS_NUM_THREADS="2"
    )


#: writes the bytes of every library reduction on a seeded 2**16 pair
LIBRARY_PROBE = """
import sys
import numpy as np
import weaktensor as wt
rng = np.random.default_rng(16)
pre = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
a, b = (wt.make_ket((2,) * 16, x) for x in (pre, pre + rng.normal(size=2**16)))
report = wt.compare_states(a, b)
values = [wt.inner(b, a), wt.norm(a), wt.norm(b), report.fidelity, report.max_component_diff]
weak, expectation = wt.weak_tensor(a, b), wt.expectation_tensor(a)
for array in (np.array(values), weak.components, expectation.components):
    sys.stdout.buffer.write(array.tobytes())
"""


def test_library_bits_are_the_same_for_one_and_two_blas_threads():
    one, two = (_python(["-c", LIBRARY_PROBE], OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert len(one) == 16 * (5 + 2 * 2**16) and one == two


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads /proc/self/task")
def test_the_cli_runs_one_blas_thread_unless_the_caller_sets_a_count():
    def probe(value):
        threads, setting = _python(["-c", THREAD_PROBE], OPENBLAS_NUM_THREADS=value).split()[-2:]
        return int(threads), setting.decode()

    default, kept = probe(None), probe("2")
    assert (default[1], kept[1]) == ("1", "2")
    if _numpy_uses_openblas():
        assert default[0] == 1
        if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS starts no more threads than CPUs
            assert kept[0] == 2


#: 559,638 bytes, well above the 64 KiB a Linux pipe holds before a write blocks
LARGE_ARGV = ["-m", "weaktensor", "run", "ghz", "--parties", "14", "--format", "json"]


def _spawn(stdout):
    return subprocess.Popen(
        [sys.executable, *LARGE_ARGV], env=_env(), stdout=stdout, stderr=subprocess.PIPE
    )


def _lost_write(proc):
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert stderr == b"BrokenPipeError: [Errno 32] Broken pipe\n"


def test_a_reader_that_closes_mid_output_gives_exit_1_and_one_line():
    proc = _spawn(subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _lost_write(proc)


def test_a_reader_gone_before_the_first_byte_gives_exit_1_and_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _spawn(write_end)
    finally:
        os.close(write_end)
    _lost_write(proc)


def test_a_reader_that_reads_everything_gives_exit_0(tmp_path):
    whole = _python(LARGE_ARGV)
    _python([*LARGE_ARGV, "--out", str(tmp_path / "out.json")])
    assert len(whole) > 2**16 and whole == (tmp_path / "out.json").read_bytes()
