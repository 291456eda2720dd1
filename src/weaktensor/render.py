"""Text and SVG renderings of weak-value tensors.

All renderers are pure functions of the tensor and the labels: identical
inputs produce byte-identical output (fixed element order, fixed decimal
formatting), so golden-file tests are valid.

Orientation: axis 0 is rendered as rows and axis 1 as columns; rank-3
tensors are rendered as one rank-2 slice per level of axis 0.

Text and SVG cells and ket labels are formatted in one pass per block:
:func:`fmt_reals` formats a whole array of cells or sums (an SVG cell adds
its imaginary part where that exceeds :data:`IMAG_WARN_TOL`, 1e-9), and
:func:`label_strs` writes the ket label of every basis state of a shape.
:func:`fmt_real` and :func:`label_str` give the same strings for one value.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .errors import NotThreeAxesError, NotTwoAxesError, UnsupportedRankError
from .hilbert import check_labels
from .weakvalues import WeakValueTensor, total_sum

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
    sums = (*map(fmt_reals, t.marginals), fmt_real(total_sum(t)))
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

#: Cell fill by the sign of the real part: 1, -1, or 0 within SIGN_TOL (or NaN)
_FILLS = ("#efefef", "#aecbe8", "#f2b8a0")


def _svg_text(x: int, y: int, text: str, anchor: str = "middle", size: int = 14) -> str:
    escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-family="monospace" font-size="{size}">{escaped}</text>'
    )


def render_svg(t: WeakValueTensor, labels: Sequence[Sequence[str]] | None = None) -> bytes:
    """Static SVG 1.1 rendering of a rank-2 or rank-3 tensor.

    Cells are colored by the sign of the real part and annotated with their
    values, the imaginary part appended where it exceeds
    :data:`IMAG_WARN_TOL`; rank-3 tensors are drawn as captioned slices
    along axis 0 with the cube diagonal cells outlined. Output is
    deterministic byte-for-byte.
    """
    if t.rank not in (2, 3):
        raise UnsupportedRankError(f"SVG rendering supports ranks 2 and 3, got rank {t.rank}")
    labels = check_labels(labels, t.dims)
    flat = t.components.reshape(-1)
    texts = fmt_reals(flat)
    for k in np.flatnonzero(np.abs(flat.imag) > IMAG_WARN_TOL).tolist():
        texts[k] += f"{flat[k].imag + 0.0:+.4f}i"
    signs = (flat.real > SIGN_TOL).astype(int) - (flat.real < -SIGN_TOL)
    fills = list(map(_FILLS.__getitem__, signs.tolist()))

    # a rank-2 tensor is one slice with no caption and no left margin
    captions, left, caption_h = ([None], 0, 0) if t.rank == 2 else (labels[0], _PAD, _CAPTION_H)
    *_, row_labels, col_labels = labels
    rows, cols = t.dims[-2:]
    slice_w = _LEFT + cols * _CELL_W
    y0 = _TOP + caption_h
    width = left + len(captions) * (slice_w + _SLICE_GAP) - _SLICE_GAP + _PAD
    height = y0 + rows * _CELL_H + _PAD
    cells = zip(fills, texts)  # flat order: slice by slice, row-major
    body = []
    for i, caption in enumerate(captions):
        x0 = left + i * (slice_w + _SLICE_GAP) + _LEFT
        if caption is not None:
            body.append(_svg_text(x0, _TOP, f"slice {caption}", "start", 15))
        for c, label in enumerate(col_labels):
            body.append(_svg_text(x0 + c * _CELL_W + _CELL_W // 2, y0 - 12, label))
        for r, label in enumerate(row_labels):
            body.append(_svg_text(x0 - 8, y0 + r * _CELL_H + _CELL_H // 2 + 5, label, "end"))
        diag = i * (cols + 1) if t.rank == 3 and i < min(rows, cols) else -1
        for k, (fill, text) in enumerate(itertools.islice(cells, rows * cols)):
            x = x0 + k % cols * _CELL_W
            y = y0 + k // cols * _CELL_H
            body.append(
                f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" fill="{fill}" '
                f'stroke="#333333" stroke-width="{3 if k == diag else 1}"/>'
            )
            body.append(_svg_text(x + _CELL_W // 2, y + _CELL_H // 2 + 5, text))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return ("\n".join(parts) + "\n").encode("utf-8")
