"""Text and SVG renderings of weak-value tensors.

All renderers are pure functions of the tensor and the labels: identical
inputs produce byte-identical output (fixed element order, fixed decimal
formatting), so golden-file tests are valid.

Orientation: axis 0 is rendered as rows and axis 1 as columns; rank-3
tensors are rendered as one rank-2 slice per level of axis 0.

Text cells and ket labels are formatted in one pass per block:
:func:`fmt_reals` formats a whole array of cells or sums, and
:func:`label_strs` writes the ket label of every basis state of a shape.
:func:`fmt_real` and :func:`label_str` give the same strings for one value.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .errors import NotThreeAxesError, NotTwoAxesError, UnsupportedRankError
from .hilbert import check_labels
from .weakvalues import WeakValueTensor, marginalize, total_sum

#: Cells whose imaginary part exceeds this trigger the grid warning line.
IMAG_WARN_TOL = 1e-9

#: The warning line names at most this many cells, in flat order, and then
#: counts the rest.
IMAG_WARN_CELLS = 8

#: Real parts within this of zero are rendered with the neutral fill.
SIGN_TOL = 1e-12


def fmt_real(value: complex) -> str:
    """Signed real part at four decimals, the format of every text cell."""
    return f"{value.real + 0.0:+.4f}"  # +0.0 folds IEEE -0.0 into +0.0


def fmt_reals(values) -> list[str]:
    """:func:`fmt_real` of every element of a scalar or array, in flat order."""
    return list(map("{:+.4f}".format, (np.asarray(values).real + 0.0).reshape(-1).tolist()))


def _joiner(dims: Sequence[int]) -> str:
    # digits are comma-separated once any dimension exceeds 10
    return "" if max(dims) <= 10 else ","


def label_str(label: Sequence[int], dims: Sequence[int]) -> str:
    """Ket notation of a basis label; digits are comma-separated once any
    dimension exceeds 10."""
    return "|" + _joiner(dims).join(map(str, label)) + ">"


def label_strs(dims: Sequence[int]) -> Iterator[str]:
    """:func:`label_str` of every basis label of ``dims``, in flat-index
    order (the labels of :func:`~weaktensor.hilbert.basis_labels`)."""
    digits = [list(map(str, range(d))) for d in dims]
    return map("|{}>".format, map(_joiner(dims).join, itertools.product(*digits)))


def _fmt_full(value: complex) -> str:
    if abs(value.imag) > IMAG_WARN_TOL:
        return f"{value.real + 0.0:+.4f}{value.imag + 0.0:+.4f}i"
    return fmt_real(value)


def _imag_warning(t: WeakValueTensor, labels) -> list[str]:
    flagged = np.flatnonzero(np.abs(t.components.imag) > IMAG_WARN_TOL)
    if not flagged.size:
        return []
    cells = []
    for label in zip(*np.unravel_index(flagged[:IMAG_WARN_CELLS], t.dims)):
        pretty = ",".join(labels[axis][lvl] for axis, lvl in enumerate(label))
        cells.append(f"({pretty}) imag={t.components[label].imag:+.4f}")
    more = flagged.size - len(cells)
    tail = f"; and {more} more" if more else ""
    return [f"warning: imaginary parts above {IMAG_WARN_TOL:g}: " + "; ".join(cells) + tail]


def _grid_lines(
    cells: Sequence[str],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    sums: tuple[Sequence[str], Sequence[str], str] | None = None,
) -> list[str]:
    # cells: formatted, row-major; sums: formatted (row sums, column sums,
    # total) for the border band
    row_sums, col_sums, total = sums or ((), (), "")
    w0 = max(3, *map(len, row_labels))
    width = max(3, *map(len, itertools.chain(cells, col_labels, row_sums, col_sums, [total])))

    def line(head: str, strings: Sequence[str], tail: str | None = None) -> str:
        out = head.ljust(w0) + "  " + "  ".join(s.rjust(width) for s in strings)
        return out if tail is None else out + " | " + tail.rjust(width)

    cols = len(col_labels)
    rows = [cells[k : k + cols] for k in range(0, len(cells), cols)]
    if sums is None:
        return [line("", col_labels), *map(line, row_labels, rows)]
    lines = [line("", col_labels, "sum"), *map(line, row_labels, rows, row_sums)]
    return [*lines, "-" * len(lines[0]), line("sum", col_sums, total)]


def render_grid(t: WeakValueTensor, labels: Sequence[Sequence[str]] | None = None) -> str:
    """Fixed-precision text grid of a rank-2 tensor.

    Rows are axis 0 and columns axis 1; a border band carries the row and
    column marginal sums and the total. Cells show the signed real part; a
    trailing warning line names the cells whose imaginary part exceeds
    :data:`IMAG_WARN_TOL`: the first :data:`IMAG_WARN_CELLS` in flat order,
    then a count of the rest.
    """
    if t.rank != 2:
        raise NotTwoAxesError(f"grid rendering requires rank 2, got rank {t.rank}")
    labels = check_labels(labels, t.dims)
    sums = (fmt_reals(marginalize(t, 0)), fmt_reals(marginalize(t, 1)), fmt_real(total_sum(t)))
    lines = _grid_lines(fmt_reals(t.components), labels[0], labels[1], sums)
    lines.extend(_imag_warning(t, labels))
    return "\n".join(lines) + "\n"


def render_cube(t: WeakValueTensor, labels: Sequence[Sequence[str]] | None = None) -> str:
    """Text rendering of a rank-3 tensor: one slice per level of axis 0.

    Within slice ``i``, rows are axis 1 and columns axis 2, and the cube
    diagonal cell ``(i, i, i)`` is marked with ``*``.
    """
    if t.rank != 3:
        raise NotThreeAxesError(f"cube rendering requires rank 3, got rank {t.rank}")
    labels = check_labels(labels, t.dims)
    _, rows, cols = t.dims
    lines: list[str] = []
    for i, slice_label in enumerate(labels[0]):
        cells = [s + " " for s in fmt_reals(t.components[i])]
        if i < rows and i < cols:
            diag = i * cols + i
            cells[diag] = cells[diag][:-1] + "*"
        lines.append(f"slice {slice_label}:")
        lines.extend(_grid_lines(cells, labels[1], labels[2]))
        lines.append("")
    lines.extend(_imag_warning(t, labels))
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


_CELL_W, _CELL_H = 96, 56
_LEFT, _TOP, _PAD = 90, 46, 16
_SLICE_GAP = 28
_CAPTION_H = 26

_FILL_POS = "#aecbe8"
_FILL_NEG = "#f2b8a0"
_FILL_ZERO = "#efefef"


def _fill(value: complex) -> str:
    if value.real > SIGN_TOL:
        return _FILL_POS
    if value.real < -SIGN_TOL:
        return _FILL_NEG
    return _FILL_ZERO


def _svg_text(x: int, y: int, text: str, anchor: str = "middle", size: int = 14) -> str:
    escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-family="monospace" font-size="{size}">{escaped}</text>'
    )


def _svg_block(
    block: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    x0: int,
    y0: int,
    marks: set[tuple[int, int]],
) -> list[str]:
    rows, cols = block.shape
    parts = []
    for c in range(cols):
        parts.append(_svg_text(x0 + _LEFT + c * _CELL_W + _CELL_W // 2, y0 - 12, col_labels[c]))
    for r in range(rows):
        parts.append(
            _svg_text(x0 + _LEFT - 8, y0 + r * _CELL_H + _CELL_H // 2 + 5, row_labels[r], "end")
        )
    for r in range(rows):
        for c in range(cols):
            x = x0 + _LEFT + c * _CELL_W
            y = y0 + r * _CELL_H
            stroke_width = 3 if (r, c) in marks else 1
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                f'fill="{_fill(block[r, c])}" stroke="#333333" stroke-width="{stroke_width}"/>'
            )
            parts.append(
                _svg_text(x + _CELL_W // 2, y + _CELL_H // 2 + 5, _fmt_full(block[r, c]))
            )
    return parts


def render_svg(t: WeakValueTensor, labels: Sequence[Sequence[str]] | None = None) -> bytes:
    """Static SVG 1.1 rendering of a rank-2 or rank-3 tensor.

    Cells are colored by the sign of the real part and annotated with their
    values; rank-3 tensors are drawn as captioned slices along axis 0 with
    the cube diagonal cells outlined. Output is deterministic byte-for-byte.
    """
    if t.rank not in (2, 3):
        raise UnsupportedRankError(f"SVG rendering supports ranks 2 and 3, got rank {t.rank}")
    labels = check_labels(labels, t.dims)

    if t.rank == 2:
        rows, cols = t.dims
        width = _LEFT + cols * _CELL_W + _PAD
        height = _TOP + rows * _CELL_H + _PAD
        body = _svg_block(t.components, labels[0], labels[1], 0, _TOP, set())
    else:
        slices, rows, cols = t.dims
        slice_w = _LEFT + cols * _CELL_W
        width = _PAD + slices * (slice_w + _SLICE_GAP) - _SLICE_GAP + _PAD
        height = _TOP + _CAPTION_H + rows * _CELL_H + _PAD
        body = []
        for i in range(slices):
            x0 = _PAD + i * (slice_w + _SLICE_GAP)
            body.append(_svg_text(x0 + _LEFT, _TOP, f"slice {labels[0][i]}", "start", 15))
            diag = {(i, i)} if i < rows and i < cols else set()
            body.extend(
                _svg_block(t.components[i], labels[1], labels[2], x0, _TOP + _CAPTION_H, diag)
            )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return ("\n".join(parts) + "\n").encode("utf-8")
