"""One copy of each rule: the CLI writes every command's output through one
write site, the basis helpers that used to restate a rule of ``hilbert``
give the same bits and errors through the rule itself, the input rules
(family parameters, integers, labels, shapes, numbers) are each stated once,
and the package's export table is its only statement of the public API."""

import inspect
import itertools
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from types import ModuleType

import numpy as np
import pytest

import weaktensor
import weaktensor.cli as cli
from weaktensor import (
    DiagonalHamiltonian,
    DimensionOverflowError,
    HamiltonianTerm,
    Ket,
    LengthMismatchError,
    MissingParamError,
    NonFiniteAmplitudeError,
    NonFiniteEnergyError,
    NonNumericAmplitudeError,
    ProjectorProduct,
    SchemaViolationError,
    SchemeDocument,
    ShapeMismatchError,
    UnknownNameError,
    WeakTensorError,
    WeakValueTensor,
    apply_pauli_string,
    basis_labels,
    basis_state,
    build_named,
    check_dims,
    cli_main,
    compare_states,
    evolve,
    exact_counterpart,
    flat_index,
    ghz3_selected,
    hardy_gamma,
    joint_hamiltonian,
    make_ket,
    phase_report,
    product_form,
    tensor_product,
)
from weaktensor.dynamics import FAMILIES
from weaktensor.schemefile import _parse_shape

from oracles import pauli_string_loop

LINE_COMMANDS = [
    ("scenario", "list"),
    ("evolve", "--family", "psit1", "--eps", "0.8", "--time", "1.3", "--compare"),
    ("evolve", "--family", "exact", "--eps", "0.8", "--time", "1.3"),
    ("realize", "--levels", "3", "--axes", "2"),
]


def _subprocess_env(**extra):
    src = os.path.dirname(os.path.dirname(weaktensor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_every_command_writes_utf8_whatever_the_stdout_encoding(capsys):
    env = _subprocess_env(PYTHONIOENCODING="utf-16")
    for argv in [*LINE_COMMANDS, ("run", "cheshire")]:
        assert cli_main(list(argv)) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        done = subprocess.run([sys.executable, "-m", "weaktensor", *argv], env=env,
                              capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), argv
        assert done.stdout == expected, argv


@pytest.mark.parametrize(
    "argv",
    [*LINE_COMMANDS, ("run", "hardy", "--format", "json"), ("run", "ghz", "--format", "svg")],
)
def test_each_command_is_written_once_through_emit(capsys, monkeypatch, argv):
    writes = []
    monkeypatch.setattr(cli, "_emit", lambda data, out: writes.append((data, out)))
    assert cli_main(list(argv)) == 0
    assert capsys.readouterr().out == ""  # nothing is printed beside the one write
    assert len(writes) == 1 and isinstance(writes[0][0], bytes) and writes[0][1] is None


def test_a_failing_command_writes_nothing(capsys, monkeypatch):
    writes = []
    monkeypatch.setattr(cli, "_emit", lambda data, out: writes.append(data))
    assert cli_main(["realize", "--levels", "1", "--axes", "3"]) == 2
    assert writes == [] and capsys.readouterr().out == ""


# ---------------------------------------------------------------- Pauli strings


def _signed_zero_state(rng, dims):
    # real and imaginary parts drawn from +-0.0, +-1.5 and Gaussians
    n = int(np.prod(dims))
    pool = np.array([0.0, -0.0, 1.5, -1.5])
    parts = np.where(rng.random(2 * n) < 0.5, pool[rng.integers(0, 4, 2 * n)],
                     rng.standard_normal(2 * n))
    return parts.view(np.complex128)


def _letter_strings(rank, rng):
    if rank <= 4:
        yield from map("".join, itertools.product("IXYZ", repeat=rank))
    else:
        for letter, axis in itertools.product("IXYZ", range(rank)):
            others = rng.choice(list("IXYZ"), rank)
            others[axis] = letter
            yield "".join(others)


@pytest.mark.parametrize("rank", range(1, 7))
def test_pauli_strings_match_the_hand_sliced_loop_bit_for_bit(rank):
    rng = np.random.default_rng(100 + rank)
    dims = (2,) * rank
    for letters in _letter_strings(rank, rng):
        amps = _signed_zero_state(rng, dims)
        got = apply_pauli_string(letters, make_ket(dims, amps)).amps
        assert got.tobytes() == pauli_string_loop(letters, amps, dims).tobytes(), letters


# ---------------------------------------------------------------- basis helpers


def test_ghz3_selected_amplitudes_are_the_literal_arrays():
    s = 0.5773502691896258  # 1 / sqrt(3)
    pre = np.zeros(54)
    pre[[0, 26, 52]] = s
    post = pre.copy()
    post[52] = -s
    scenario = ghz3_selected()
    assert scenario.pre.amps.view(np.float64).tobytes() == pre.tobytes()
    assert scenario.post.amps.view(np.float64).tobytes() == post.tobytes()
    assert not np.signbit(scenario.post.amps.imag).any()  # +0.0 imaginary parts


def test_tensor_product_over_the_ceiling_raises_before_kron(monkeypatch):
    a, b = basis_state((2,) * 10, (0,) * 10), basis_state((2,) * 11, (1,) * 11)

    def no_kron(*args):
        raise AssertionError("np.kron ran before the dimension check")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(DimensionOverflowError):
        tensor_product(a, b)


def test_compare_states_takes_its_shape_rule_from_inner():
    one, pair = basis_state((2,), (0,)), basis_state((2, 2), (0, 1))
    zero = make_ket((2, 2), [0, 0, 0, 0])
    for a, b in ((one, pair), (one, zero)):  # the shape check comes before the zero check
        with pytest.raises(ShapeMismatchError) as info:
            compare_states(a, b)
        assert str(info.value) == "shapes differ: (2,) vs (2, 2)"


# ---------------------------------------------------------------- input rules


def test_evolve_flags_are_the_family_table_names_in_first_seen_order():
    evolve = cli.build_parser()._subparsers._group_actions[0].choices["evolve"]
    flags = [a.dest for a in evolve._actions if a.type is float and a.dest != "time"]
    names = list(dict.fromkeys(p for family in FAMILIES.values() for p in family.params))
    assert flags == names == ["eps", "eps2", "phi"]


@pytest.mark.parametrize("build", [product_form, exact_counterpart])
def test_family_builders_take_exactly_the_family_parameters(build):
    params = inspect.signature(build).parameters
    assert list(params) == ["family", "t", "params"]
    assert params["params"].kind is inspect.Parameter.VAR_KEYWORD
    for name, family in FAMILIES.items():
        given = dict.fromkeys(family.params, 0.5)
        build(name, 1.0, **given)
        for extra in {"eps", "eps2", "phi", "zeta"} - set(family.params):
            with pytest.raises(UnknownNameError) as info:
                build(name, 1.0, **given, **{extra: 0.5})
            assert str(info.value) == f"family {name!r} takes no parameter {extra!r}"
    with pytest.raises(UnknownNameError, match="no parameter 'eps2'"):  # the first, sorted
        build("psit1", 1.0, eps=0.5, zeta=1.0, phi=1.0, eps2=1.0)


BAD_LABELS = [(-1, 0, 0), (2, 0, 0), (0.5, 0, 0), ("0", 0, 0), (0, 0), (0, 0, 0, 0)]


def test_every_full_label_is_read_by_flat_index():
    dims = (2, 3, 2)
    rng = np.random.default_rng(18)
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    ket = make_ket(dims, amps)
    tensor = WeakValueTensor(dims, amps, "weak", 1.0 + 0.0j)
    report = phase_report(ket, make_ket(dims, np.ones(12)))
    assert len(report) == 12
    for label in basis_labels(dims):
        k = flat_index(label, dims)
        assert ket.amplitude(label) == tensor.component(label) == amps[k]
        assert report[label] == float(np.angle(amps[k]))
    for label in BAD_LABELS:
        with pytest.raises(WeakTensorError) as info:
            flat_index(label, dims)
        error = type(info.value)
        for read in (ket.amplitude, tensor.component):
            with pytest.raises(WeakTensorError) as info:
                read(label)
            assert type(info.value) is error, (read, label)
        assert label not in report and report.get(label) is None


SHAPES = {"1": [2, 1], "float": [2.0, 2], "true": [True, 2], "string": "22", "object": {},
          "empty": [], "null": None, "number": 5, "string-entry": [2, "2"], "3^14": [3] * 14,
          "2^20": [2] * 20, "2^21": [2] * 21, "2^300000": [2] * 300_000}


def _passes(rule, shape):
    try:
        rule(shape)
    except WeakTensorError:
        return False
    return True


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_a_json_shape_passes_exactly_when_check_dims_passes_it(shape):
    assert _passes(_parse_shape, shape) == _passes(check_dims, shape)
    if not _passes(check_dims, shape):
        with pytest.raises(SchemaViolationError):
            _parse_shape(shape)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_dims((2.7, 2)),
        lambda: check_dims(("3",)),
        lambda: check_dims(None),
        lambda: ProjectorProduct(((0.7, 1.9),)),
        lambda: ProjectorProduct((("0", "1"),)),
    ],
)
def test_dims_and_projector_levels_are_integers_never_truncated(call):
    with pytest.raises(WeakTensorError):
        call()


# ---------------------------------------------------------------- the number rule

PLUS = make_ket((2,), [1, 1])
STEP = DiagonalHamiltonian((2,), [0.0, 1.0])
AMPLITUDE_ERRORS = {"non-number": NonNumericAmplitudeError, "huge": NonFiniteAmplitudeError}
ENERGY_ERRORS = {"non-number": NonFiniteEnergyError, "huge": NonFiniteEnergyError}
NAMED = {**ENERGY_ERRORS, "none": MissingParamError}  # None stands for a parameter not given

#: entry point -> (what it made of a number x, a real entry?, a one-number entry?, errors)
NUMBER_INPUTS = {
    "Ket": (lambda x: Ket((2,), [x, 0]).amps[0], False, False, AMPLITUDE_ERRORS),
    "make_ket": (lambda x: make_ket((2,), [x, 0]).amps[0], False, False, AMPLITUDE_ERRORS),
    "tensor-components": (lambda x: WeakValueTensor((2,), [x, 0], "weak", 1).components[0],
                          False, False, AMPLITUDE_ERRORS),
    "tensor-overlap": (lambda x: WeakValueTensor((2,), [1, 0], "weak", x).overlap, False, True,
                       {**AMPLITUDE_ERRORS, "list": LengthMismatchError}),
    "HamiltonianTerm": (lambda x: HamiltonianTerm(x, ProjectorProduct()).coupling, True, True,
                        ENERGY_ERRORS),
    "DiagonalHamiltonian": (lambda x: DiagonalHamiltonian((2,), [x, 0]).energies[0], True, False,
                            ENERGY_ERRORS),
    "evolve-time": (lambda x: evolve(PLUS, STEP, x).amps, True, True, ENERGY_ERRORS),
    "product_form": (lambda x: product_form("psit1", 1.0, eps=x).amps, True, True, NAMED),
    "exact_counterpart": (lambda x: exact_counterpart("PsiGHZ11", 1.0, phi=0.5, eps=x).amps,
                          True, True, NAMED),
    "joint_hamiltonian": (lambda x: joint_hamiltonian("Hamm2", eps=1.0, eps2=x).energies, True,
                          True, NAMED),
    "hardy_gamma": (lambda x: hardy_gamma(x).pre.amps, True, True, NAMED),
    "build_named": (lambda x: build_named("hardy-gamma", gamma=x).pre.amps, True, True, NAMED),
}
NUMBERS = {"fraction": Fraction(1, 2), "true": True, "float32": np.float32(2), "complex": 2 + 0j}
NON_NUMBERS = {"decimal": Decimal("1"), "str": "1.5", "bytes": b"1", "none": None,
               "huge": 10**400, "imaginary": 1j, "list": [1, 2]}


def _number_cases():
    for entry, (_, real, one, _) in NUMBER_INPUTS.items():
        for value in [*NUMBERS, *NON_NUMBERS]:
            if (value != "imaginary" or real) and (value != "list" or one):
                yield pytest.param(entry, value, id=f"{entry}-{value}")


@pytest.mark.parametrize("entry, value", _number_cases())
def test_every_number_input_follows_one_rule(entry, value):
    read, real, _, errors = NUMBER_INPUTS[entry]
    if value in NUMBERS:  # accepted, with the bits of complex(x), or of its real part
        x = NUMBERS[value]
        reference = complex(x).real if real else complex(x)
        assert np.asarray(read(x)).tobytes() == np.asarray(read(reference)).tobytes()
        return
    expected = errors.get(value, errors["non-number"])
    with pytest.raises(WeakTensorError) as info:
        read(NON_NUMBERS[value])
    assert type(info.value) is expected


def _document_marginal(x):
    doc = SchemeDocument("s", (2,), (("0", "1"),), "weak", 1, np.array([1, 0j]), ([x, 0],), 1)
    return doc.to_tensor().marginals[0]


#: entry point -> the input its number errors name
NUMBER_NAMES = {
    "Ket": "amplitudes", "make_ket": "amplitudes", "tensor-components": "components",
    "tensor-overlap": "overlap", "HamiltonianTerm": "coupling",
    "DiagonalHamiltonian": "energies", "evolve-time": "time", "product_form": "eps",
    "exact_counterpart": "eps", "joint_hamiltonian": "eps2", "hardy_gamma": "gamma",
    "build_named": "gamma", "document-marginals": "marginals",
}


@pytest.mark.parametrize("entry", NUMBER_NAMES)
def test_number_errors_name_the_input(entry):
    read, real = NUMBER_INPUTS.get(entry, (_document_marginal, False))[:2]
    what = NUMBER_NAMES[entry]
    for value, message in (("1.5", f"{what} must be {'real' if real else 'numbers'}"),
                           (10**400, f"{what} must be finite")):
        with pytest.raises(WeakTensorError) as info:
            read(value)
        assert str(info.value) == message


# ---------------------------------------------------------------- public API


def test_all_is_derived_from_the_package_imports():
    names = weaktensor.__all__
    assert names == sorted(set(names))
    assert not [name for name in names if name.startswith("_")]
    submodules = [v for v in vars(weaktensor).values() if isinstance(v, ModuleType)]
    for name in names:
        value = getattr(weaktensor, name)
        assert not isinstance(value, ModuleType), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__.startswith("weaktensor."), name
        else:  # a constant: bound in a submodule, not in the package itself
            assert any(vars(module).get(name) is value for module in submodules), name
    # no stray public module, such as a bare ``import types`` would leave behind
    for name, value in vars(weaktensor).items():
        if isinstance(value, ModuleType) and not name.startswith("_"):
            assert value.__name__ == f"weaktensor.{name}", name
    # exported although no test imports them through the package
    assert {"MAX_DIMENSION", "ORTHO_TOL", "ComparisonReport", "Scenario",
            "selection_overlap"} <= set(names)
