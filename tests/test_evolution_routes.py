"""Both routes of the multiwise families run through ``evolve``.

The product form evolves each copy of the factor under its own local
coupling and takes the tensor product; the exact counterpart evolves the
product state under joint couplings, each the product of the same factor
projectors on several copies. The ``evolve`` CLI output of every family is
pinned byte for byte in ``tests/golden/evolve-*.txt``.
"""

import functools
import pathlib

import numpy as np
import pytest

from weaktensor import (
    HamiltonianTerm,
    NonFiniteEnergyError,
    ProjectorProduct,
    build_hamiltonian,
    cli_main,
    evolve,
    joint_hamiltonian,
    product_form,
    tensor_product,
)
from weaktensor.dynamics import FAMILIES
from oracles import dense_projector_product, kron_chain, product_form_loop
from test_families import SPEC

GOLDEN = pathlib.Path(__file__).parent / "golden"

TIMES = (0.0, 0.5, 1.3, -0.7, 4.25, 1e3, 1e8)

#: name -> (levels of the factor projector, copies it is multiplied over),
#: one entry per joint coupling, as the families are documented
JOINT = {
    "psit1": [((1, 0), (0, 1))],
    "E111": [((1, 0), (0, 1, 2))],
    "Hamm2": [((1, 0), (0, 1)), ((0, 1), (0, 1))],
    "GHZ2": [((0, 0, 0), (0, 1))],
    "PsiGHZ11": [((0, 0, 0), (0, 1)), ((1, 1, 1), (1, 2))],
}

#: golden name -> the ``evolve`` arguments it was written with
GOLDEN_ARGV = {
    "psit1": ["--eps", "0.7"],
    "E111": ["--eps", "0.7"],
    "Hamm2": ["--eps", "0.7", "--eps2", "0.25"],
    "GHZ2": ["--phi", "0.9"],
    "PsiGHZ11": ["--phi", "0.9", "--eps", "0.7"],
    "exact": ["--eps", "0.7"],
}


def param_sets(name):
    """Three random parameter sets, then all ``0.0`` and all ``-0.0``."""
    params = FAMILIES[name].params
    rng = np.random.default_rng(list(FAMILIES).index(name))
    drawn = [{p: float(rng.uniform(-2.0, 2.0)) for p in params} for _ in range(3)]
    return drawn + [dict.fromkeys(params, 0.0), dict.fromkeys(params, -0.0)]


def on_copy(selector, width, j):
    return ProjectorProduct(tuple((width * j + q, level) for q, level in selector.factors))


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("name", FAMILIES)
def test_product_form_is_the_per_copy_loop_bit_for_bit(name, t):
    _, phased, _ = SPEC[name]
    for params in param_sets(name):
        expected = product_form_loop(FAMILIES[name].factor.amps, phased(**params), t)
        assert product_form(name, t, **params).amps.tobytes() == expected.tobytes(), params


@pytest.mark.parametrize("name", FAMILIES)
def test_local_selectors_lie_within_one_factor(name):
    family = FAMILIES[name]
    dims = family.factor.dims
    assert len(family.local) == len(SPEC[name][1](**param_sets(name)[0]))
    for _, selector in family.local:
        assert selector.subsystems and all(0 <= s < len(dims) for s in selector.subsystems)
        # the coupling phases a component the factor holds
        assert np.abs(family.factor.amps.reshape(dims)[selector.index(dims)]).sum() > 0


@pytest.mark.parametrize("name", FAMILIES)
def test_joint_selectors_are_products_of_the_factor_projectors(name):
    family = FAMILIES[name]
    width, copies = len(family.factor.dims), len(family.local)
    dims = family.factor.dims * copies
    local = {selector for _, selector in family.local}
    assert len(family.joint) == len(JOINT[name])
    for (_, selector), (levels, listed) in zip(family.joint, JOINT[name]):
        assert len({s // width for s in selector.subsystems}) >= 2
        projector = ProjectorProduct(tuple(enumerate(levels)))
        assert projector in local
        blocks = [
            dense_projector_product(projector.factors, family.factor.dims)
            if j in listed
            else np.eye(2**width)
            for j in range(copies)
        ]
        np.testing.assert_array_equal(
            dense_projector_product(selector.factors, dims), kron_chain(blocks)
        )
    for params in param_sets(name):  # the public builder is these couplings, bit for bit
        terms = [HamiltonianTerm(rate(params), selector) for rate, selector in family.joint]
        want = build_hamiltonian(dims, terms).energies.tobytes()
        assert joint_hamiltonian(name, **params).energies.tobytes() == want, params


@pytest.mark.parametrize("name", FAMILIES)
def test_product_form_is_exact_evolution_under_the_summed_local_couplings(name):
    family = FAMILIES[name]
    width = len(family.factor.dims)
    state = functools.reduce(tensor_product, [family.factor] * len(family.local))
    for params in param_sets(name):
        terms = [
            HamiltonianTerm(rate(params), on_copy(selector, width, j))
            for j, (rate, selector) in enumerate(family.local)
        ]
        h = build_hamiltonian(state.dims, terms)
        for t in np.linspace(-5.0, 5.0, 11):
            np.testing.assert_allclose(
                product_form(name, t, **params).amps, evolve(state, h, t).amps, rtol=0, atol=1e-14
            )


@pytest.mark.parametrize("family", sorted(GOLDEN_ARGV))
def test_evolve_cli_matches_golden(family, capsys):
    argv = ["evolve", "--family", family, *GOLDEN_ARGV[family], "--time", "1.3", "--compare"]
    golden = (GOLDEN / f"evolve-{family}.txt").read_text(encoding="utf-8")
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (golden, "")


@pytest.mark.parametrize(
    ("family", "param", "value"), [("psit1", "--eps", "nan"), ("GHZ2", "--phi", "inf")]
)
def test_non_finite_product_form_parameter_is_a_non_finite_energy(family, param, value, capsys):
    assert cli_main(["evolve", "--family", family, param, value, "--time", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"NonFiniteEnergyError: {param[2:]} must be finite\n"


def test_non_finite_rates_raise_the_coupling_error():
    with pytest.raises(NonFiniteEnergyError):
        product_form("psit1", 1.0, eps=float("nan"))
    with pytest.raises(NonFiniteEnergyError) as info:  # eps - eps2 overflows
        product_form("Hamm2", 1.0, eps=1e308, eps2=-1e308)
    assert str(info.value) == "coupling must be finite"
