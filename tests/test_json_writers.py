"""``document_to_json`` and ``scenario_to_json`` against the per-element
``[re, im]`` transcription, and the document's component array."""

import json

import numpy as np
import pytest

from weaktensor import (
    custom,
    document_to_json,
    make_ket,
    marginalize,
    scenario_to_json,
    scheme_document,
    total_sum,
)
from oracles import json_pairs_loop, random_selected_pair, random_state

SHAPES = [(3,), (2, 3), (2, 2, 3), (2, 3, 5)]


def with_signed_zeros(rng, amps):
    """Copy of ``amps`` with about a third of the entries exactly ``±0.0``
    in one or both parts."""
    out = np.array(amps, dtype=complex)
    picked = rng.choice(out.size, size=out.size // 3 + 1, replace=False)
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
    for n, k in enumerate(picked):
        out[k] = zeros[n % len(zeros)]
    return out


def scenarios(dims):
    rng = np.random.default_rng(sum(dims))
    pre, post = random_selected_pair(rng, dims)
    yield custom(make_ket(dims, with_signed_zeros(rng, pre)), make_ket(dims, post))
    yield custom(make_ket(dims, pre), make_ket(dims, with_signed_zeros(rng, post)))
    yield custom(make_ket(dims, with_signed_zeros(rng, random_state(rng, dims))))


def bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("dims", SHAPES)
def test_document_json_equals_the_loop_transcription(dims):
    for scenario in scenarios(dims):
        tensor = scenario.tensor()
        payload = {
            "scenario": scenario.name,
            "shape": list(dims),
            "labels": [list(axis) for axis in scenario.axis_labels],
            "kind": tensor.kind,
            "overlap": json_pairs_loop([tensor.overlap])[0],
            "components": json_pairs_loop(tensor.components),
            "marginals": [json_pairs_loop(marginalize(tensor, a)) for a in range(len(dims))],
            "total": json_pairs_loop([total_sum(tensor)])[0],
        }
        expected = json.dumps(payload, indent=2) + "\n"
        assert document_to_json(scheme_document(scenario)) == expected


@pytest.mark.parametrize("dims", SHAPES)
def test_scenario_json_equals_the_loop_transcription(dims):
    rng = np.random.default_rng(len(dims))
    extreme = with_signed_zeros(rng, random_state(rng, dims))
    extreme[:2] = [complex(5e-324, -1e300), complex(-1e300, -5e-324)]
    for scenario in [*scenarios(dims), custom(make_ket(dims, extreme))]:
        payload = {"shape": list(dims), "pre": {"amps": json_pairs_loop(scenario.pre.amps)}}
        if scenario.post is not None:
            payload["post"] = {"amps": json_pairs_loop(scenario.post.amps)}
        payload["labels"] = [list(axis) for axis in scenario.axis_labels]
        assert scenario_to_json(scenario) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("dims", SHAPES)
def test_document_components_are_the_flat_read_only_tensor_array(dims):
    for scenario in scenarios(dims):
        components = scheme_document(scenario).components
        assert components.shape == (int(np.prod(dims)),)
        assert components.dtype == np.complex128
        assert not components.flags.writeable
        np.testing.assert_array_equal(
            bits(components), bits(scenario.tensor().components.reshape(-1))
        )
        with pytest.raises(ValueError):
            components[0] = 1.0
