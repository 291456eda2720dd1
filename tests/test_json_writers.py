"""``document_to_json`` and ``scenario_to_json`` against the per-element
``[re, im]`` transcription, and the document's component array."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    SCENARIO_NAMES,
    SchemeDocument,
    build_named,
    custom,
    document_to_json,
    ghz3_selected,
    make_ket,
    marginalize,
    scenario_to_json,
    scheme_document,
    total_sum,
)
from weaktensor import schemefile
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


# ------------------------------------------------ the list writer and its splice


def document_payload(doc):
    """The document as ``document_to_json`` wrote it with ``json.dumps``
    alone, pairs transcribed one element at a time."""
    return {
        "scenario": doc.scenario,
        "shape": list(doc.dims),
        "labels": [list(axis) for axis in doc.labels],
        "kind": doc.kind,
        "overlap": json_pairs_loop([doc.overlap])[0],
        "components": json_pairs_loop(doc.components),
        "marginals": [json_pairs_loop(axis) for axis in doc.marginals],
        "total": json_pairs_loop([doc.total])[0],
    }


def scenario_payload(scenario):
    payload = {"shape": list(scenario.dims), "pre": {"amps": json_pairs_loop(scenario.pre.amps)}}
    if scenario.post is not None:
        payload["post"] = {"amps": json_pairs_loop(scenario.post.amps)}
    payload["labels"] = [list(axis) for axis in scenario.axis_labels]
    return payload


def assert_document_bytes(doc):
    assert document_to_json(doc) == json.dumps(document_payload(doc), indent=2) + "\n"


def assert_scenario_bytes(scenario):
    assert scenario_to_json(scenario) == json.dumps(scenario_payload(scenario), indent=2) + "\n"


def hand_built(components):
    components = np.asarray(components, dtype=np.complex128).reshape(-1)
    return SchemeDocument(
        scenario="hand",
        dims=(components.size,),
        labels=(tuple(str(k) for k in range(components.size)),),
        kind="weak",
        overlap=complex(0.5, -0.0),
        components=components,
        marginals=(tuple(components.tolist()),),
        total=1 + 0j,
    )


INF, NAN = float("inf"), float("nan")
MAX = 1.7976931348623157e308


@pytest.mark.parametrize(
    "components",
    [
        [complex(INF, 0.0), 1 + 0j],
        [complex(-INF, 1.0), 0.5 + 0j],
        [complex(NAN, NAN), 1j],
        [complex(1.0, INF), complex(NAN, -INF), complex(-0.0, 5e-324), 2 + 0j],
    ],
    ids=["inf", "-inf", "nan", "mix"],
)
def test_non_finite_components_fall_back_to_json_dumps(components):
    doc = hand_built(components)
    text = document_to_json(doc)
    assert "NaN" in text or "Infinity" in text
    assert "nan" not in text and "inf" not in text
    assert_document_bytes(doc)


def test_extreme_and_integral_floats():
    values = [
        complex(0.0, -0.0),
        complex(-0.0, 0.0),
        complex(5e-324, -5e-324),
        complex(MAX, -MAX),
        complex(1.0, -2.0),
        complex(1e16, 123456789.0),
        complex(-3.0, 1e22),
        complex(0.1, 1e-7),
    ]
    assert_document_bytes(hand_built(values))
    assert_document_bytes(hand_built([]))
    scenario = custom(make_ket((len(values),), values), make_ket((len(values),), values[::-1]))
    assert_scenario_bytes(scenario)


def test_every_built_in_scenario():
    for name in SCENARIO_NAMES:
        scenario = build_named(name, gamma=0.3)
        assert_document_bytes(scheme_document(scenario))
        assert_scenario_bytes(scenario)


@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 2, 3), (2, 3, 2, 2), (2, 2, 2, 3, 2)])
def test_ranks_one_to_five(dims):
    for scenario in scenarios(dims):
        assert_document_bytes(scheme_document(scenario))
        assert_scenario_bytes(scenario)


@pytest.mark.parametrize(
    "scenario", [ghz3_selected(), next(scenarios((5,)))], ids=["ghz3-selected", "rank-1"]
)
def test_every_pair_list_goes_through_the_one_list_writer(monkeypatch, scenario):
    calls, pair_list = [], schemefile._pair_list

    def spy(values, depth):
        calls.append(depth)
        return pair_list(values, depth)

    monkeypatch.setattr(schemefile, "_pair_list", spy)
    doc = scheme_document(scenario)
    text = document_to_json(doc)
    assert sorted(calls) == [1] + [2] * len(doc.dims)  # the components and each marginal
    assert text == json.dumps(document_payload(doc), indent=2) + "\n"


def test_empty_marginals_are_written_as_json_writes_them():
    for marginals, written in [((), '"marginals": [],'), (((),), '"marginals": [\n    []\n  ],')]:
        doc = dataclasses.replace(hand_built([]), marginals=marginals)
        assert written in document_to_json(doc)
        assert_document_bytes(doc)


TRICKY = [
    '"components": []',
    '\n  "components": []',
    '\n  "pre": {\n    "amps": []',
    '    "amps": [] \\ "quoted" \\',
    "Grüße, ψ ⊗ φ — ∞",
]


def test_names_and_labels_cannot_match_the_splice():
    rng = np.random.default_rng(7)
    pre, post = random_selected_pair(rng, (2, 3))
    labels = [TRICKY[:2], TRICKY[2:]]
    for name in TRICKY:
        scenario = custom(make_ket((2, 3), pre), make_ket((2, 3), post), labels, name=name)
        doc = scheme_document(scenario)
        assert_document_bytes(doc)
        assert json.loads(document_to_json(doc))["scenario"] == name
        assert_scenario_bytes(scenario)
        alone = custom(make_ket((2, 3), pre), None, labels, name=name)
        assert_scenario_bytes(alone)


def test_scenario_json_with_and_without_post():
    rng = np.random.default_rng(11)
    pre, post = random_selected_pair(rng, (3, 2))
    with_post = scenario_to_json(custom(make_ket((3, 2), pre), make_ket((3, 2), post)))
    without = scenario_to_json(custom(make_ket((3, 2), pre)))
    assert '"post"' in with_post and '"post"' not in without
    # the pre list and the labels are written the same either way
    assert with_post.split('  "post"')[0] == without.split('  "labels"')[0]
    assert with_post.split('  "labels"')[1] == without.split('  "labels"')[1]


BITS = st.integers(0, 2**64 - 1)


@settings(max_examples=200)
@given(st.lists(st.tuples(BITS, BITS), min_size=1, max_size=12))
def test_any_float64_bit_pattern(bit_pairs):
    components = np.array(bit_pairs, dtype=np.uint64).reshape(-1).view(np.complex128)
    assert_document_bytes(hand_built(components))
