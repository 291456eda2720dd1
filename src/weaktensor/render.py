"""Text and SVG renderings of weak-value tensors.

All renderers are pure functions of the tensor and the labels: identical
inputs produce byte-identical output (fixed element order, fixed decimal
formatting), so golden-file tests are valid.

Orientation: axis 0 is rendered as rows and axis 1 as columns; rank-3
tensors are rendered as one rank-2 slice per level of axis 0.

Text and SVG cells and ket labels are formatted by one numpy byte kernel:
:func:`fmt_reals` and :func:`label_strs` fill a fixed-width byte row per
string and decode all rows at once, matching the one-value :func:`fmt_real`
and :func:`label_str`. A cell is ``x * 10**4`` rounded half-even on its exact
binary value, as ``format(x, "+.4f")`` does; the float product rounds to the
same integer unless it is a half-integer, which, like ``|x * 10**4| >= 2**50``
and non-finite values, goes to :func:`fmt_real`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .errors import UnsupportedRankError
from .hilbert import check_labels
from .weakvalues import WeakValueTensor, total_sum

#: Cells whose imaginary part exceeds this trigger the grid warning line.
IMAG_WARN_TOL = 1e-9

#: The warning line names at most this many cells, in flat order, and then
#: counts the rest.
IMAG_WARN_CELLS = 8

#: Real parts within this of zero are rendered with the neutral fill.
SIGN_TOL = 1e-12

#: The ranks each renderer draws, keyed by the name its refusal gives.
RANKS = {"grid": (2,), "cube": (3,), "SVG": (2, 3)}


def check_rank(renderer: str, rank: int) -> None:
    """The one rank rule: raise :class:`UnsupportedRankError` unless
    ``renderer`` (a key of :data:`RANKS`) draws ``rank`` axes."""
    ranks = RANKS[renderer]
    if rank not in ranks:
        listed = "s" * (len(ranks) > 1) + " " + " and ".join(map(str, ranks))
        raise UnsupportedRankError(f"{renderer} rendering supports rank{listed}, got rank {rank}")


def fmt_real(value: complex) -> str:
    """Signed real part at four decimals, the format of every text cell."""
    return f"{value.real + 0.0:+.4f}"  # +0.0 folds IEEE -0.0 into +0.0


def _put_digits(out: np.ndarray, values: np.ndarray, keep: int = 1) -> None:
    # digits of `values` (>= 0, broadcast to out[..., 0]); zeros left of the last `keep` are NUL
    width = out.shape[-1]
    for j in range(width):
        q = values // 10 ** (width - 1 - j)
        out[..., j] = np.where((q > 0) | (j >= width - keep), q % 10 + 48, 0)


def _strings(rows: np.ndarray) -> list[str]:
    # one string per byte row, each row ending in a space; NUL bytes are dropped
    return rows.tobytes().decode("ascii").replace("\0", "").split()


def fmt_reals(values) -> list[str]:
    """:func:`fmt_real` of every element of a scalar or array, in flat order."""
    x = np.asarray(values).real.reshape(-1).astype(np.float64) + 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e4
        n = np.rint(scaled)  # format()'s rounding but where `fast` fails (module docstring)
        fast = (abs(scaled - n) != 0.5) & (abs(n) < 2.0**50)
    n = np.abs(np.where(fast, n, 0.0)).astype(np.int64)
    width = len(str(n.max(initial=0) // 10**4))
    rows = np.empty((n.size, width + 7), np.uint8)  # sign, digits, ".", 4 digits, " "
    rows[:, 0], rows[:, width + 1], rows[:, -1] = np.where(x < 0, 45, 43), 46, 32
    _put_digits(rows[:, 1 : width + 1], n // 10**4)
    _put_digits(rows[:, width + 2 : -1], n % 10**4, keep=4)
    out = _strings(rows)
    for k in np.flatnonzero(~fast).tolist():
        out[k] = fmt_real(x[k])
    return out


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
    joiner, widths = _joiner(dims), [len(str(d - 1)) for d in dims]
    starts = np.cumsum([1] + [w + len(joiner) for w in widths]).tolist()  # digit columns
    # byte rows of "|", NUL-padded digit fields joined by ",", ">" for the
    # fewest last axes with 2**12 labels (or all), below a prefix per block
    lead = max(0, len(dims) - 1 - int(np.sum(np.cumprod(dims[::-1]) < 2**12)))
    block = np.full((*dims[lead:], starts[-1] - len(joiner) + 2), 44, np.uint8)
    block[..., 0], block[..., -2], block[..., -1] = 124, 62, 32
    for axis in range(lead, len(dims)):
        levels = np.arange(dims[axis]).reshape(-1, *[1] * (len(dims) - 1 - axis))
        _put_digits(block[..., starts[axis] : starts[axis + 1] - len(joiner)], levels)
    for head in itertools.product(*map(range, dims[:lead])):
        prefix = "".join(str(level).rjust(w, "\0") + joiner for level, w in zip(head, widths))
        block[..., 1 : starts[lead]] = np.frombuffer(prefix.encode(), np.uint8)
        yield from _strings(block)


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
    check_rank("grid", t.rank)
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
    check_rank("cube", t.rank)
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

#: What SVG text writes for a character: the entity of "&", "<" and ">", and the
#: Python escape of each character XML 1.0 cannot hold (C0 controls but tab, LF
#: and CR; U+FFFE and U+FFFF). The encoder escapes lone surrogates.
_SVG_ESCAPES = {c: repr(chr(c))[1:-1] for c in {*range(32), 0xFFFE, 0xFFFF} - {9, 10, 13}}
_SVG_ESCAPES.update(str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"}))


def _svg_text(x: int, y: int, text: str, anchor: str = "middle", size: int = 14) -> str:
    escaped = text.translate(_SVG_ESCAPES)
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
    deterministic byte-for-byte and well-formed XML: a character XML 1.0
    or UTF-8 cannot hold is written as its backslash escape.
    """
    check_rank("SVG", t.rank)
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
    return ("\n".join(parts) + "\n").encode("utf-8", "backslashreplace")
