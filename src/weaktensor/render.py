"""Text and SVG renderings of weak-value tensors.

All renderers are pure functions of the tensor and the labels: identical
inputs produce byte-identical output (fixed element order, fixed decimal
formatting), so golden-file tests are valid.

Orientation: axis 0 is rendered as rows and axis 1 as columns; rank-3
tensors are rendered as one rank-2 slice per level of axis 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    LabelMismatchError,
    NotThreeAxesError,
    NotTwoAxesError,
    UnsupportedRankError,
)
from .weakvalues import WeakValueTensor, marginalize, total_sum

#: Cells whose imaginary part exceeds this trigger the grid warning line.
IMAG_WARN_TOL = 1e-9

#: Real parts within this of zero are rendered with the neutral fill.
SIGN_TOL = 1e-12


def fmt_real(value: complex) -> str:
    """Signed real part at four decimals, the format of every text cell."""
    return f"{value.real + 0.0:+.4f}"  # +0.0 folds IEEE -0.0 into +0.0


def label_str(label: Sequence[int], dims: Sequence[int]) -> str:
    """Ket notation of a basis label; digits are comma-separated once any
    dimension exceeds 10."""
    joiner = "" if all(d <= 10 for d in dims) else ","
    return "|" + joiner.join(str(l) for l in label) + ">"


def _fmt_full(value: complex) -> str:
    if abs(value.imag) > IMAG_WARN_TOL:
        return f"{value.real + 0.0:+.4f}{value.imag + 0.0:+.4f}i"
    return fmt_real(value)


def _checked_labels(
    t: WeakValueTensor, labels: Sequence[Sequence[str]] | None
) -> tuple[tuple[str, ...], ...]:
    if labels is None:
        return tuple(tuple(str(i) for i in range(d)) for d in t.dims)
    out = tuple(tuple(str(l) for l in axis) for axis in labels)
    if len(out) != t.rank or any(len(axis) != d for axis, d in zip(out, t.dims)):
        raise LabelMismatchError(f"labels {out} do not match shape {t.dims}")
    return out


def _imag_warning(t: WeakValueTensor, labels) -> list[str]:
    flagged = []
    for label in np.ndindex(*t.dims):
        value = t.components[label]
        if abs(value.imag) > IMAG_WARN_TOL:
            pretty = ",".join(labels[axis][lvl] for axis, lvl in enumerate(label))
            flagged.append(f"({pretty}) imag={value.imag:+.4f}")
    if not flagged:
        return []
    return [f"warning: imaginary parts above {IMAG_WARN_TOL:g}: " + "; ".join(flagged)]


def _grid_lines(
    block: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    row_sums: Sequence[complex] | None,
    col_sums: Sequence[complex] | None,
    total: complex | None,
    marks: set[tuple[int, int]] | None = None,  # None disables mark padding
) -> list[str]:
    rows, cols = block.shape

    def cell(r: int, c: int) -> str:
        text = fmt_real(block[r, c])
        if marks is not None:
            text += "*" if (r, c) in marks else " "
        return text

    strings = [[cell(r, c) for c in range(cols)] for r in range(rows)]
    sum_col = [fmt_real(v) for v in row_sums] if row_sums is not None else None
    sum_row = [fmt_real(v) for v in col_sums] if col_sums is not None else None

    w0 = max([len(str(l)) for l in row_labels] + [3])
    width = max(
        [len(s) for row in strings for s in row]
        + [len(str(l)) for l in col_labels]
        + ([len(s) for s in sum_col] if sum_col else [])
        + ([len(s) for s in sum_row] if sum_row else [])
        + ([len(fmt_real(total))] if total is not None else [])
        + [3]
    )

    def line(head: str, cells: Sequence[str], tail: str | None) -> str:
        out = head.ljust(w0) + "  " + "  ".join(s.rjust(width) for s in cells)
        if tail is not None:
            out += " | " + tail.rjust(width)
        return out

    lines = [line("", [str(l) for l in col_labels], "sum" if total is not None else None)]
    for r in range(rows):
        lines.append(
            line(str(row_labels[r]), strings[r], sum_col[r] if sum_col else None)
        )
    if sum_row is not None and total is not None:
        lines.append("-" * len(lines[0]))
        lines.append(line("sum", sum_row, fmt_real(total)))
    return lines


def render_grid(t: WeakValueTensor, labels: Sequence[Sequence[str]] | None = None) -> str:
    """Fixed-precision text grid of a rank-2 tensor.

    Rows are axis 0 and columns axis 1; a border band carries the row and
    column marginal sums and the total. Cells show the signed real part; a
    trailing warning line lists any cell whose imaginary part exceeds
    :data:`IMAG_WARN_TOL`.
    """
    if t.rank != 2:
        raise NotTwoAxesError(f"grid rendering requires rank 2, got rank {t.rank}")
    labels = _checked_labels(t, labels)
    lines = _grid_lines(
        t.components,
        labels[0],
        labels[1],
        marginalize(t, 0),
        marginalize(t, 1),
        total_sum(t),
    )
    lines.extend(_imag_warning(t, labels))
    return "\n".join(lines) + "\n"


def render_cube(t: WeakValueTensor, labels: Sequence[Sequence[str]] | None = None) -> str:
    """Text rendering of a rank-3 tensor: one slice per level of axis 0.

    Within slice ``i``, rows are axis 1 and columns axis 2, and the cube
    diagonal cell ``(i, i, i)`` is marked with ``*``.
    """
    if t.rank != 3:
        raise NotThreeAxesError(f"cube rendering requires rank 3, got rank {t.rank}")
    labels = _checked_labels(t, labels)
    lines: list[str] = []
    for i in range(t.dims[0]):
        lines.append(f"slice {labels[0][i]}:")
        lines.extend(
            _grid_lines(
                t.components[i],
                labels[1],
                labels[2],
                None,
                None,
                None,
                marks={(i, i)} if i < t.dims[1] and i < t.dims[2] else set(),
            )
        )
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
    labels = _checked_labels(t, labels)

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
