"""Command-line interface.

Subcommands:

* ``scenario list`` - names of the built-in scenarios.
* ``run <name> [--gamma X] [--format text|json|svg] [--out PATH]`` - compute
  and render a built-in scenario's tensor (``<name>`` may also be a path to
  a scenario JSON file).
* ``tensor --pre FILE [--post FILE] [--format ...] [--out PATH]`` - tensor
  of custom states from single-state JSON files.
* ``evolve --family F --eps X [--eps2 X] [--phi X] --time T [--compare]`` -
  product-form or exact multiwise-interaction evolution with a phase report.
* ``realize --levels d --axes n`` - hypercube cell/basis table and diagonal.

Each command returns UTF-8 bytes that :func:`cli_main` writes once, to ``--out``
or stdout. Option values such as ``-1e3`` and ``-inf`` read as numbers.

Exit codes: 0 on success, 2 on usage errors, 1 on domain errors (the error
name is written to stderr).
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys

import numpy as np

from .dynamics import (
    FAMILIES, PHASE_AMP_TOL, compare_states, exact_counterpart, phase_report, product_form
)
from .errors import WeakTensorError
from .hilbert import basis_labels
from .realization import diagonal_cells
from .render import check_svg_rank, label_strs
from .scenarios import SCENARIO_NAMES, Scenario, build_named, custom
from .schemefile import read_ket_file, read_scenario_file, render_document, scheme_document

_REALIZE_TABLE_CAP = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e3`` and ``-inf`` as values, as argparse reads ``-1.5``, and
    writes ``--help`` as UTF-8 bytes, as every command writes its output."""

    def __init__(self, *args, **kwargs):  # subparsers are built from this class too
        super().__init__(*args, **kwargs)
        number = r"(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan"
        self._negative_number_matcher = re.compile(f"^-({number})$", re.IGNORECASE)

    def print_help(self, file=None):
        # --help is output too: UTF-8 through the one write site
        if file is None:
            _emit(self.format_help().encode("utf-8"), None)
        else:
            super().print_help(file)


def _scenario_for(args) -> Scenario:
    name = args.name
    if name in SCENARIO_NAMES:
        if name == "hardy-gamma" and args.gamma is None:
            raise _UsageError("scenario hardy-gamma requires --gamma")
        return build_named(name, gamma=args.gamma, parties=args.parties, levels=args.levels)
    if os.path.exists(name):  # an SVG is refused by rank before the states are read
        return read_scenario_file(name, check_svg_rank if args.format == "svg" else None)
    raise _UsageError(
        f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)} or a JSON file"
    )


def _emit(data: bytes, out: str | None) -> None:
    # the one write of a command's output: stdout gets the UTF-8 bytes --out
    # would hold, whatever stdout's text encoding
    if out is not None:
        with open(out, "wb") as handle:
            handle.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # what was printed before stays in front
        sys.stdout.buffer.write(data)
    else:  # a text-only stream, such as an io.StringIO
        sys.stdout.write(data.decode("utf-8"))


def _lines(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_scenario(args) -> bytes:
    return _lines(SCENARIO_NAMES)


def _cmd_run(args) -> bytes:
    return render_document(scheme_document(_scenario_for(args)), args.format)


def _cmd_tensor(args) -> bytes:
    # an SVG is refused by rank before any amplitude is read
    pre = read_ket_file(args.pre, check_svg_rank if args.format == "svg" else None)
    post = read_ket_file(args.post) if args.post else None
    return render_document(scheme_document(custom(pre, post)), args.format)


def _cmd_evolve(args) -> bytes:
    exact = args.family == "exact"
    name = "psit1" if exact else args.family
    params = {p: getattr(args, p) for p in FAMILIES[name].params}
    for param, value in params.items():
        if value is None:
            raise _UsageError(f"family {args.family} requires --{param}")

    route, other = (exact_counterpart, product_form) if exact else (product_form, exact_counterpart)
    state = route(name, args.time, **params)
    reference = route(name, 0.0, **params)

    lines = [f"family: {args.family}", f"time: {args.time:g}", "amplitudes:"]
    shown = np.abs(state.amps) > PHASE_AMP_TOL
    labels = itertools.compress(label_strs(state.dims), shown)
    # + 0.0 folds IEEE -0.0 into +0.0
    reals, imags = ((part[shown] + 0.0).tolist() for part in (state.amps.real, state.amps.imag))
    lines.extend(map("  {}  {:+.6f}{:+.6f}i".format, labels, reals, imags))
    lines.append("relative phases vs t=0:")
    phases = phase_report(state, reference)
    labels = itertools.compress(label_strs(state.dims), phases.keep)
    lines.extend(map("  {}  {:+.6f}".format, labels, phases.values()))
    if args.compare:  # state is already one side of the (exact, form) pair
        pair = (state, other(name, args.time, **params))
        report = compare_states(*pair if exact else pair[::-1])
        lines += ["exact vs product form:", f"  fidelity: {report.fidelity:.6f}",
                  f"  max component diff: {report.max_component_diff:.6f}"]
    return _lines(lines)


def _digit_tuple(label) -> str:
    return "(" + ",".join(map(str, label)) + ")"


def _cmd_realize(args) -> bytes:
    levels, axes = args.levels, args.axes
    if levels < 2 or axes < 1:
        raise _UsageError(f"need --levels >= 2 and --axes >= 1, got {levels} and {axes}")
    # levels >= 2, so axes >= cap.bit_length() already means more than cap
    # cells; testing it first avoids computing a huge power
    if axes >= _REALIZE_TABLE_CAP.bit_length() or levels**axes > _REALIZE_TABLE_CAP:
        raise _UsageError(f"table of {levels}**{axes} cells exceeds the cap {_REALIZE_TABLE_CAP}")
    dims = (levels,) * axes
    lines = ["cell  basis"]
    for cell, label in enumerate(basis_labels(dims)):
        lines.append(f"{cell:>4}  {_digit_tuple(label)}")
    lines.append("diagonal cells: " + "  ".join(map(_digit_tuple, diagonal_cells(dims))))
    return _lines(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weaktensor",
        description="Weak-value tensors of projector products for pre- and "
        "post-selected multi-qudit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="inspect built-in scenarios")
    scenario_sub = p_scenario.add_subparsers(dest="action", required=True)
    p_list = scenario_sub.add_parser("list", help="list scenario names")
    p_list.set_defaults(func=_cmd_scenario)

    p_run = sub.add_parser("run", help="compute and render a scenario tensor")
    p_run.add_argument("name", help="scenario name or path to a scenario JSON file")
    p_run.add_argument("--gamma", type=float, default=None, help="phase for hardy-gamma")
    p_run.add_argument("--parties", type=int, default=3, help="party count for ghz")
    p_run.add_argument("--levels", type=int, default=2, help="level count for ghz")
    p_run.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p_run.add_argument("--out", default=None, help="output path (default: stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_tensor = sub.add_parser("tensor", help="tensor of custom states from JSON files")
    p_tensor.add_argument("--pre", required=True, help="pre-state JSON file")
    p_tensor.add_argument("--post", default=None, help="post-state JSON file")
    p_tensor.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p_tensor.add_argument("--out", default=None)
    p_tensor.set_defaults(func=_cmd_tensor)

    p_evolve = sub.add_parser("evolve", help="multiwise-interaction evolution")
    p_evolve.add_argument(
        "--family",
        required=True,
        choices=(*FAMILIES, "exact"),
        help="product-form family, or 'exact' for exact evolution of the "
        "two-EPR-pair system",
    )
    for param in dict.fromkeys(p for f in FAMILIES.values() for p in f.params):  # first seen
        p_evolve.add_argument(f"--{param}", type=float, default=None)
    p_evolve.add_argument("--time", type=float, required=True)
    p_evolve.add_argument(
        "--compare", action="store_true", help="report exact vs product-form fidelity"
    )
    p_evolve.set_defaults(func=_cmd_evolve)

    p_realize = sub.add_parser("realize", help="hypercube cell/basis maps")
    p_realize.add_argument("--levels", type=int, required=True)
    p_realize.add_argument("--axes", type=int, required=True)
    p_realize.set_defaults(func=_cmd_realize)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _emit(args.func(args), getattr(args, "out", None))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WeakTensorError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
