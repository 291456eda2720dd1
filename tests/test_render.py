import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktensor import (
    Ket,
    LengthMismatchError,
    UnsupportedRankError,
    WeakValueTensor,
    build_named,
    custom,
    make_ket,
    render_cube,
    render_grid,
    render_svg,
    weak_tensor,
)
from weaktensor.render import shown
from oracles import random_selected_pair

GOLDEN = pathlib.Path(__file__).parent / "golden"


def named_tensor(name):
    s = build_named(name)
    return s.tensor(), s.axis_labels


def rank4_tensor():
    rng = np.random.default_rng(51)
    dims = (2, 2, 2, 2)
    pre, post = random_selected_pair(rng, dims)
    return weak_tensor(Ket(dims, pre), Ket(dims, post))


# ---------------------------------------------------------------- golden text


@pytest.mark.parametrize("name", ["cheshire", "hardy-overlap"])
def test_grid_matches_golden(name):
    tensor, labels = named_tensor(name)
    assert render_grid(tensor, labels) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_cube_matches_golden():
    tensor, labels = named_tensor("ghz3-selected")
    assert render_cube(tensor, labels) == (GOLDEN / "ghz3-selected.txt").read_text(
        encoding="utf-8"
    )


@pytest.mark.parametrize("name", ["cheshire", "hardy-overlap", "ghz3-selected"])
def test_svg_matches_golden(name):
    tensor, labels = named_tensor(name)
    assert render_svg(tensor, labels) == (GOLDEN / f"{name}.svg").read_bytes()


def test_renderers_are_deterministic():
    tensor, labels = named_tensor("cheshire")
    assert render_grid(tensor, labels) == render_grid(tensor, labels)
    assert render_svg(tensor, labels) == render_svg(tensor, labels)
    cube, cube_labels = named_tensor("ghz3-selected")
    assert render_cube(cube, cube_labels) == render_cube(cube, cube_labels)


# ---------------------------------------------------------------- grid content


def test_grid_shows_marginal_band():
    tensor, labels = named_tensor("cheshire")
    lines = render_grid(tensor, labels).splitlines()
    assert lines[0].endswith("sum")
    assert lines[1].endswith("+0.0000")  # spin-up marginal
    assert lines[2].endswith("+1.0000")  # spin-down marginal
    assert lines[-1].startswith("sum") and lines[-1].endswith("+1.0000")


def test_grid_of_zero_tensor_renders_zero_cells():
    from weaktensor import WeakValueTensor

    t = WeakValueTensor((2, 2), np.zeros((2, 2), dtype=complex), "weak", 1.0 + 0j)
    out = render_grid(t)
    assert out.count("+0.0000") == 4 + 5  # four cells plus the marginal band


def test_builtin_scenarios_render_without_imaginary_warning():
    for name in (
        "bell-psi-plus",
        "bell-psi-minus",
        "bell-phi-plus",
        "bell-phi-minus",
        "ghz",
        "cheshire",
        "hardy",
        "hardy-overlap",
        "ghz3-selected",
    ):
        s = build_named(name)
        t = s.tensor()
        text = render_grid(t, s.axis_labels) if t.rank == 2 else render_cube(t, s.axis_labels)
        assert "warning" not in text


def test_complex_tensor_triggers_imaginary_warning():
    # overlap = 2 + i, so the components are (1, i, 0, 1) / (2 + i) with
    # imaginary parts (-0.2, +0.4, 0, -0.2)
    s = custom(make_ket((2, 2), [1.0, 1.0j, 0.0, 1.0]), make_ket((2, 2), [1, 1, 1, 1]))
    text = render_grid(s.tensor(), s.axis_labels)
    assert (
        "warning: imaginary parts above 1e-09: "
        "(0,0) imag=-0.2000; (0,1) imag=+0.4000; (1,1) imag=-0.2000" in text
    )


def test_cube_marks_diagonal_cells():
    tensor, labels = named_tensor("ghz3-selected")
    text = render_cube(tensor, labels)
    assert text.count("*") == 3
    assert "+1.0000*" in text and "-1.0000*" in text


# ---------------------------------------------------------------- svg content


def test_svg_structure():
    tensor, labels = named_tensor("cheshire")
    svg = render_svg(tensor, labels).decode("utf-8")
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.count("<rect") == 1 + 4  # background plus one per cell
    assert svg.count("#aecbe8") == 2 and svg.count("#f2b8a0") == 1 and svg.count("#efefef") == 1


def test_svg_cube_has_three_slices():
    tensor, labels = named_tensor("ghz3-selected")
    svg = render_svg(tensor, labels).decode("utf-8")
    assert svg.count("slice") == 3
    assert svg.count('stroke-width="3"') == 3  # outlined diagonal cells


def test_svg_escapes_markup_in_labels():
    import xml.dom.minidom

    s = custom(
        make_ket((2, 2), [1.0, 0.0, 1.0, 1.0]),
        make_ket((2, 2), [1.0, -1.0, -1.0, 1.0]),
        labels=[["a<b", "c&d"], ["x>y", "ok"]],
    )
    svg = render_svg(s.tensor(), s.axis_labels)
    xml.dom.minidom.parseString(svg)  # raises if the markup leaked through
    assert b"a&lt;b" in svg and b"c&amp;d" in svg


# ---------------------------------------------------------------- the display rule


@pytest.mark.parametrize("text", ["↑", "L_p", "", "a b", "\\n", "&<>", "é"])
def test_shown_returns_a_printable_label_unchanged(text):
    assert shown(text) is text


@pytest.mark.parametrize(
    "text, display",
    [("a\nb", "a\\nb"), ("c\td", "c\\td"), ("\ud800", "\\ud800"), ("\x00\x7f", "\\x00\\x7f"),
     ("\xa0", "\\xa0"), ("\u2028", "\\u2028"), ("\ufffe", "\\ufffe"), ("\U000e0001", "\\U000e0001"),
     ("↑\n↓", "↑\\n↓")],
)
def test_shown_writes_each_unprintable_character_as_its_escape(text, display):
    assert shown(text) == display
    assert shown(display) == display  # idempotent: the display is printable


@settings(max_examples=200)
@given(st.text(st.characters(exclude_categories=()), max_size=8))
def test_shown_is_printable_and_idempotent(text):
    assert shown(text).isprintable()
    assert shown(shown(text)) == shown(text)


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "render, tensor, message",
    [
        (render_grid, lambda: named_tensor("ghz3-selected")[0],
         "grid rendering supports rank 2, got rank 3"),
        (render_cube, lambda: named_tensor("cheshire")[0],
         "cube rendering supports rank 3, got rank 2"),
        (render_svg, rank4_tensor, "SVG rendering supports ranks 2 and 3, got rank 4"),
    ],
    ids=["grid", "cube", "svg"],
)
def test_a_renderer_refuses_a_rank_it_cannot_draw(render, tensor, message):
    with pytest.raises(UnsupportedRankError) as info:
        render(tensor())
    assert str(info.value) == message


def test_render_label_mismatch():
    tensor, _ = named_tensor("cheshire")
    with pytest.raises(LengthMismatchError):
        render_grid(tensor, [["a", "b", "c"], ["L", "R"]])


def test_imaginary_warning_names_eight_cells_then_counts():
    # imaginary parts 0.01 * k on a 3 x 4 grid; cells (0,0) and (1,2) are
    # real, so 10 cells are flagged and the last two are only counted
    imag = 0.01 * np.arange(12)
    imag[6] = 0.0
    components = np.arange(12) / 66 + 1j * imag
    tensor = WeakValueTensor((3, 4), components, "weak", 1.0 + 0.0j)
    lines = render_grid(tensor, (("a", "b", "c"), ("w", "x", "y", "z"))).splitlines()
    assert lines[-1] == (
        "warning: imaginary parts above 1e-09: "
        "(a,x) imag=+0.0100; (a,y) imag=+0.0200; (a,z) imag=+0.0300; "
        "(b,w) imag=+0.0400; (b,x) imag=+0.0500; (b,z) imag=+0.0700; "
        "(c,w) imag=+0.0800; (c,x) imag=+0.0900; and 2 more"
    )
    # exactly eight flagged cells are all named, with no count
    eight = WeakValueTensor((2, 2, 2), 1j * np.arange(1, 9), "weak", 1.0 + 0.0j)
    warning = render_cube(eight).splitlines()[-1]
    assert warning.count("imag=") == 8 and "more" not in warning


def test_label_str_separates_digits_once_a_dimension_exceeds_ten():
    from weaktensor.render import label_str

    assert label_str((1, 0, 9), (2, 2, 10)) == "|109>"
    assert label_str((1, 0, 9), (2, 2, 11)) == "|1,0,9>"
    assert label_str((10, 0), (11, 2)) == "|10,0>"
    assert label_str((7,), (10,)) == "|7>"
    assert label_str((7,), (11,)) == "|7>"


@pytest.mark.parametrize("dims", [(2,), (11,), (2, 3, 2), (10, 2), (2, 11, 3), (3, 12)])
def test_label_strs_is_label_str_of_every_basis_label(dims):
    from weaktensor import basis_labels
    from weaktensor.render import label_str, label_strs

    assert list(label_strs(dims)) == [label_str(l, dims) for l in basis_labels(dims)]


def test_fmt_reals_is_fmt_real_of_every_element():
    from weaktensor.render import fmt_real, fmt_reals

    values = np.array([[-0.0, -4e-5, 5e-5], [-0.0 - 1j, 1e300, -2.5 + 3j]])
    assert fmt_reals(values) == [fmt_real(v) for v in values.reshape(-1)]
    assert fmt_reals(values)[:3] == ["+0.0000", "-0.0000", "+0.0001"]
    assert fmt_reals(-0.0 + 2j) == [fmt_real(-0.0 + 2j)] == ["+0.0000"]


def test_renderers_and_scenarios_reject_labels_with_one_message():
    s = build_named("cheshire")
    message = "labels (('a', 'b'),) do not match shape (2, 2)"
    with pytest.raises(LengthMismatchError) as from_render:
        render_grid(s.tensor(), [["a", "b"]])
    with pytest.raises(LengthMismatchError) as from_scenario:
        custom(s.pre, s.post, [["a", "b"]])
    assert str(from_render.value) == str(from_scenario.value) == message
